"""Command-line harness for the full pipeline.

Five subcommands cover the experiment lifecycle: ``gen-data`` writes the
synthetic benchmark splits, ``train`` fits a model and writes a checkpoint,
``calibrate`` extracts the attention weight, ``eval`` scores the test
splits and writes the report, and ``report`` bins scores into plot-ready
histogram data. Configuration is a flat ``key = value`` file. Its keys are
the fields of ``SynthConfig``, ``TrainConfig`` and ``PattHyper``, with their
class defaults, plus the five keys in ``_CLI_DEFAULTS``; unknown keys
are rejected, and ``load_config`` checks every key, so each stage rejects a
bad value before it reads or writes a data file. All randomness derives
from the single ``seed`` key, so repeating any subcommand reproduces its
output files byte for byte.

Loading the config and the ``report`` stage import no numpy; ``main``
imports ``stages``, and numpy with it, only for the other four stages.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .config import (TAIL_FRACTION, PattHyper, SynthConfig, TrainConfig, check_fields,
                     config_fields)

__all__ = ["main", "entry"]

HIST_BINS = 30

# config keys that scale a training step's losses, gradients or update
_STEP_KEYS = ("learning_rate", "sgd_momentum", "tau", "epsilon", "alpha", "beta", "oe_gamma")

# the keys that no config class reads; per_class 0 means "smallest training
# class count"
_CLI_DEFAULTS = {
    "out_dir": "runs/default",
    "per_class": 0,
    "tail_fraction": TAIL_FRACTION,
    "score": "energy",
    "use_calibration": "auto",
}

# config class fields that only library callers set
_LIBRARY_ONLY = ("hyper",)

# key -> default; the default's type decides how the value string is parsed
DEFAULTS = {name: default for cls in (SynthConfig, TrainConfig, PattHyper)
            for name, default in config_fields(cls) if name not in _LIBRARY_ONLY}
DEFAULTS.update(_CLI_DEFAULTS)


class CliError(Exception):
    """Raised for config and file problems; rendered as one stderr line."""


def _parse_value(key: str, text: str):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        low = text.lower()
        if low not in ("true", "false"):
            raise CliError(f"config key '{key}' wants true/false, got {text!r}")
        return low == "true"
    if isinstance(default, str):
        return text
    try:
        if isinstance(default, tuple):
            return tuple(int(part) for part in text.split(","))
        if isinstance(default, float):
            value = float(text)
            if not math.isfinite(value):
                raise CliError(f"config key '{key}' must be finite, got {text!r}")
            return value
        value = int(text)
    except ValueError:
        raise CliError(f"config key '{key}' wants a number, got {text!r}") from None
    # an optional size (input_dim) is written 0 for None
    return None if default is None and value == 0 else value


def _build(cls, cfg, **extra):
    return cls(**{k: cfg[k] for k, _ in config_fields(cls) if k in DEFAULTS}, **extra)


def _train_config(cfg) -> TrainConfig:
    return _build(TrainConfig, cfg, hyper=_build(PattHyper, cfg))


def load_config(path, seed=None) -> dict:
    """Parse a key=value file over the defaults, apply the ``--seed``
    override and check every key."""
    if not os.path.isfile(path):
        raise CliError(f"missing config file: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise CliError(f"{path}: not UTF-8 text") from None
    cfg = dict(DEFAULTS)
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key not in DEFAULTS:
            raise CliError(f"{path}:{lineno}: unknown config key '{key}'")
        cfg[key] = _parse_value(key, value)
    if seed is not None:
        cfg["seed"] = seed
    try:
        _build(SynthConfig, cfg)
        _train_config(cfg)
        check_fields(cfg, (
            ("out_dir", cfg["out_dir"] != "", "a path"),
            ("per_class", cfg["per_class"] >= 0, ">= 0"),
            ("tail_fraction", 0.0 < cfg["tail_fraction"] < 1.0, "in (0, 1)"),
            ("score", cfg["score"] in ("energy", "msp"), "energy or msp"),
            ("use_calibration", cfg["use_calibration"] in ("auto", "on", "off"),
             "auto, on or off"),
        ))
    except ValueError as exc:
        raise CliError(f"bad config: {exc}") from None
    return cfg


def _require(path, what):
    if not os.path.isfile(path):
        raise CliError(f"missing {what}: {path}")
    return path


def _check_classes(path, n_classes, cfg) -> None:
    if n_classes != cfg["n_classes"]:
        raise CliError(f"checkpoint {path} has {n_classes} classes "
                       f"but n_classes = {cfg['n_classes']}")


def _read_scores(out_dir):
    path = _require(os.path.join(out_dir, "scores.csv"), "scores file")
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise CliError(f"bad scores file {path}: not ASCII") from None
    if not lines or lines[0] != "split,row,label,pred,score":
        raise CliError(f"bad scores file {path}: unexpected header")
    rows = {"id": [], "ood": []}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        row = None
        if len(parts) == 5 and parts[0] in rows:
            try:
                row = (int(parts[2]), int(parts[3]), float(parts[4]))
            except ValueError:
                pass
        # eval writes finite scores only; a NaN would drop out of the histogram
        if row is None or not math.isfinite(row[2]):
            raise CliError(f"bad scores file {path}: line {lineno}")
        rows[parts[0]].append(row)
    if not rows["id"] or not rows["ood"]:
        raise CliError(f"bad scores file {path}: need both id and ood rows")
    return rows


def cmd_report(cfg, out_dir) -> None:
    """Bin scores for plotting and recompute the accuracy split, ranking
    classes by the checkpoint's priors. Plain Python: no numpy import."""
    from . import checkpoint
    from .report import classification_report, histogram
    path = _require(os.path.join(out_dir, "model.ckpt"), "checkpoint")
    try:
        *_, priors = checkpoint.read(path)
    except ValueError as exc:
        raise CliError(f"bad checkpoint {path}: {exc}") from None
    _check_classes(path, len(priors), cfg)
    rows = _read_scores(out_dir)
    try:
        acc, acc_head, acc_tail = classification_report(
            [r[0] for r in rows["id"]], [r[1] for r in rows["id"]], priors,
            tail_fraction=cfg["tail_fraction"])
        edges, id_counts, ood_counts = histogram(
            [r[2] for r in rows["id"]], [r[2] for r in rows["ood"]], HIST_BINS)
    except ValueError as exc:
        raise CliError(f"bad scores file {os.path.join(out_dir, 'scores.csv')}: {exc}") from None
    with open(os.path.join(out_dir, "hist.csv"), "w", encoding="ascii") as fh:
        fh.write("bin_lo,bin_hi,id_count,ood_count\n")
        for b in range(HIST_BINS):
            fh.write(f"{edges[b]!r},{edges[b + 1]!r},{id_counts[b]},{ood_counts[b]}\n")
    with open(os.path.join(out_dir, "acc_table.csv"), "w", encoding="ascii") as fh:
        fh.write("group,acc\n")
        fh.write(f"overall,{acc!r}\n")
        fh.write(f"head,{'' if acc_head is None else repr(acc_head)}\n")
        fh.write(f"tail,{'' if acc_tail is None else repr(acc_tail)}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="patt-lab",
        description="Long-tailed out-of-distribution detection experiments.")
    parser.add_argument("command", choices=["calibrate", "eval", "gen-data", "report", "train"])
    parser.add_argument("--config", required=True, help="key = value config file")
    parser.add_argument("--out", default=None, help="output directory (overrides out_dir)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed=args.seed)
        out_dir = args.out if args.out is not None else cfg["out_dir"]
        if args.command == "report":
            cmd_report(cfg, out_dir)
        else:
            import numpy as np
            from .stages import COMMANDS as STAGES
            # a finite value in a config or input file can still overflow;
            # fail on the first overflow or invalid operation instead of
            # printing numpy warnings
            with np.errstate(over="raise", invalid="raise"):
                STAGES[args.command](cfg, out_dir)
    except (CliError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    # run the package's copy of this module: its CliError is the one stages raise
    from patt_lab.cli import entry as package_entry
    package_entry()
