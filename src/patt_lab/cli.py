"""Command-line harness for the full pipeline.

Five subcommands cover the experiment lifecycle: ``gen-data`` writes the
synthetic benchmark splits, ``train`` fits a model and writes a checkpoint,
``calibrate`` extracts the attention weight, ``eval`` scores the test
splits and writes the report, and ``report`` bins those scores into
plot-ready histogram data and copies the report's accuracy split into a
table. Configuration is a flat ``key = value`` file. Its keys are
the fields of ``SynthConfig`` and ``TrainConfig``, with their class
defaults, plus the five keys in ``_CLI_DEFAULTS``; unknown keys are
rejected, and ``load_config`` checks every key, so each stage rejects a
bad value before it reads or writes a data file. All randomness derives
from the single ``seed`` key, so repeating any subcommand reproduces its
output files byte for byte. Every input file is read through ``_read``,
which words a missing or refused file and names the stage that writes it.

The config check and the ``report`` stage load neither numpy nor argparse;
``main`` imports ``stages``, and numpy with it, only for the other four stages.
"""

from __future__ import annotations

import math
import os
import sys

from .config import TAIL_FRACTION, SynthConfig, TrainConfig, check_fields, config_fields

__all__ = ["main", "entry"]

HIST_BINS = 30

_COMMANDS = ("gen-data", "train", "calibrate", "eval", "report")
USAGE = (f"usage: patt-lab {{{','.join(_COMMANDS)}}} --config FILE [--out DIR] [--seed N]\n"
         "--out and --seed override the config's out_dir and seed; --opt=VALUE works too\n")

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

# key -> default; the default's type decides how the value string is parsed
DEFAULTS = {name: default for cls in (SynthConfig, TrainConfig)
            for name, default in config_fields(cls)}
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


def _build(cls, cfg):
    return cls(**{k: cfg[k] for k, _ in config_fields(cls)})


def load_config(path, seed=None) -> dict:
    """Parse a key=value file over the defaults, apply the ``--seed``
    override and check every key."""
    if not os.path.isfile(path):
        raise CliError(f"missing config file: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().removeprefix("\ufeff").splitlines()  # a BOM is no key
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
        _build(TrainConfig, cfg)
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


# the stage that writes each input file, named when the file is missing
_WRITERS = {"dataset file": "gen-data", "checkpoint": "train", "attention file": "calibrate",
            "scores file": "eval", "report file": "eval"}


def _read(path, what, read, *args):
    """``read(path, *args)``, the one reader of every input file: a missing
    file, or one that ``read`` refuses, is one ``CliError`` naming the file."""
    if not os.path.isfile(path):
        raise CliError(f"missing {what}: {path} (run {_WRITERS[what]} first)")
    try:
        return read(path, *args)
    except (ValueError, MemoryError, OverflowError) as exc:
        # an n_classes beyond memory or int64 fails numpy's class count
        raise CliError(f"bad {what} {path}: {exc}") from None


def _score_histogram(path):
    """The score histogram of a ``scores.csv``; ``ValueError`` says what is
    wrong with the file."""
    from .report import SCORES_HEADER, histogram
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != SCORES_HEADER:
        raise ValueError("unexpected header")
    scores = {"id": [], "ood": []}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            score = float(parts[4]) if len(parts) == 5 and parts[0] in scores else math.nan
        except ValueError:
            score = math.nan
        # eval writes finite scores only; a NaN would drop out of the histogram
        if not math.isfinite(score):
            raise ValueError(f"line {lineno}")
        scores[parts[0]].append(score)
    if not scores["id"] or not scores["ood"]:
        raise ValueError("need both id and ood rows")
    return histogram(scores["id"], scores["ood"], HIST_BINS)


def cmd_report(out_dir) -> None:
    """Bin the scores of ``scores.csv`` for plotting and copy the accuracy
    split of ``report.csv`` into ``acc_table.csv``: the stage reads only
    what ``eval`` wrote. Plain Python: no numpy import."""
    from . import report
    row = _read(os.path.join(out_dir, "report.csv"), "report file", report.read_report)
    edges, id_counts, ood_counts = _read(os.path.join(out_dir, "scores.csv"), "scores file",
                                         _score_histogram)
    with open(os.path.join(out_dir, "hist.csv"), "w", encoding="ascii") as fh:
        fh.write("bin_lo,bin_hi,id_count,ood_count\n")
        fh.writelines(f"{lo!r},{hi!r},{a},{b}\n"
                      for lo, hi, a, b in zip(edges, edges[1:], id_counts, ood_counts))
    with open(os.path.join(out_dir, "acc_table.csv"), "w", encoding="ascii") as fh:
        fh.write("group,acc\n")
        for group, col in (("overall", "acc"), ("head", "acc_head"), ("tail", "acc_tail")):
            fh.write(f"{group},{'' if row[col] is None else repr(row[col])}\n")


def _parse_args(argv):
    """The command, config, out and seed of ``argv``; a usage error raises ``CliError``."""
    words, opts, args = [], dict.fromkeys(("--config", "--out", "--seed")), iter(argv)
    for arg in args:
        name, eq, value = arg.partition("=")
        if not arg.startswith("-"):
            words.append(arg)
        elif name not in opts:  # an abbreviation too
            raise CliError(f"unknown option {name!r}")
        elif not eq and (value := next(args, None)) is None:
            raise CliError(f"{name} needs a value")
        else:
            opts[name] = value  # the last of a repeated option
    if len(words) != 1 or words[0] not in _COMMANDS:
        raise CliError(f"want one command of {', '.join(_COMMANDS)}, got {words or 'none'}")
    if opts["--config"] is None:
        raise CliError("--config FILE is required")
    seed = opts["--seed"]
    try:
        return words[0], opts["--config"], opts["--out"], None if seed is None else int(seed)
    except ValueError:
        raise CliError(f"--seed wants an integer, got {seed!r}") from None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(USAGE, end="")
        return 0
    try:
        command, config, out, seed = _parse_args(argv)
    except CliError as exc:
        print(f"error: {exc} (see patt-lab --help)", file=sys.stderr)
        return 2
    try:
        if out == "":
            raise CliError("--out must be a path, got ''")
        cfg = load_config(config, seed=seed)
        out_dir = out if out is not None else cfg["out_dir"]
        if command == "report":
            cmd_report(out_dir)
        else:
            from .stages import run
            run(command, cfg, out_dir)
    except (CliError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    code = main()
    # every output file is closed in a with block before main returns, so
    # the process ends here once both streams are flushed: teardown (the
    # exit-time collection over the objects numpy and the package leave
    # alive, the module cleanup) is left to the operating system. main
    # itself changes nothing about the exit of in-process callers.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    # run the package's copy of this module: its CliError is the one stages raise
    from patt_lab.cli import entry as package_entry
    package_entry()
