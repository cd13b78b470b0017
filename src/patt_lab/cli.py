"""Command-line harness for the full pipeline.

Five subcommands cover the experiment lifecycle: ``gen-data`` writes the
synthetic benchmark splits, ``train`` fits a model and writes a checkpoint,
``calibrate`` extracts the attention weight, ``eval`` scores the test
splits and writes the report, and ``report`` bins scores into plot-ready
histogram data. Configuration is a flat ``key = value`` file. Its keys are
the fields of ``SynthConfig``, ``TrainConfig`` and ``PattHyper``, with the
dataclass defaults, plus the five keys in ``_CLI_DEFAULTS``; unknown keys
are rejected, and ``load_config`` checks every key, so each stage rejects a
bad value before it reads or writes a data file. All randomness derives
from the single ``seed`` key, so repeating any subcommand reproduces its
output files byte for byte.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .calibration import (AttentionWeight, attention_weight, calibrate_feature,
                          energy_score, load_attention, msp_score, save_attention)
from .data import (SynthConfig, class_balanced_subset, gen_longtail,
                   load_features_csv, save_features_csv, save_manifest)
from .losses import PattHyper
from .metrics import TAIL_FRACTION, build_report, classification_report
from .model import (TrainConfig, classifier_logits, encoder_forward,
                    load_checkpoint, save_checkpoint, train)
from .util import check_fields, derive_seed

__all__ = ["main", "entry"]

HIST_BINS = 30

# config keys that scale a training step's losses, gradients or update
_STEP_KEYS = ("learning_rate", "sgd_momentum", "tau", "epsilon", "alpha", "beta", "oe_gamma")

# the keys that no dataclass reads; per_class 0 means "smallest training
# class count"
_CLI_DEFAULTS = {
    "out_dir": "runs/default",
    "per_class": 0,
    "tail_fraction": TAIL_FRACTION,
    "score": "energy",
    "use_calibration": "auto",
}

# dataclass fields that only library callers set
_LIBRARY_ONLY = ("hyper", "ood_seed")

# key -> default; the default's type decides how the value string is parsed
DEFAULTS = {f.name: f.default for cls in (SynthConfig, TrainConfig, PattHyper)
            for f in fields(cls) if f.name not in _LIBRARY_ONLY}
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
    return cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name in DEFAULTS}, **extra)


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


def _load_split(out_dir, name, n_classes=None):
    path = _require(os.path.join(out_dir, name), "dataset file")
    try:
        return load_features_csv(path, n_classes=n_classes)
    except ValueError as exc:
        raise CliError(f"bad dataset file {path}: {exc}") from None


def _load_train(out_dir, cfg):
    # train.csv must hold rows of every class that n_classes declares
    train_id = _load_split(out_dir, "train.csv", n_classes=cfg["n_classes"])
    empty = np.flatnonzero(train_id.class_counts == 0)
    if empty.size:
        path = os.path.join(out_dir, "train.csv")
        raise CliError(f"bad dataset file {path}: class {empty[0]} has no rows "
                       f"(n_classes = {cfg['n_classes']})")
    return train_id


def cmd_gen_data(cfg, out_dir) -> None:
    dcfg = _build(SynthConfig, cfg)
    try:
        train_id, val_id, test_id, train_ood, test_ood = gen_longtail(dcfg)
    except ValueError as exc:
        raise CliError(f"data generation failed: {exc}") from None
    splits = {
        "train.csv": train_id,
        "val_id.csv": val_id,
        "test_id.csv": test_id,
        "train_ood.csv": train_ood,
        "test_ood.csv": test_ood,
    }
    for name, split in splits.items():
        save_features_csv(split, os.path.join(out_dir, name))
    sizes = {name: split.inputs.shape[0] for name, split in splits.items()}
    save_manifest(os.path.join(out_dir, "manifest.txt"), dcfg, sizes)


def cmd_train(cfg, out_dir) -> None:
    train_id = _load_train(out_dir, cfg)
    train_ood = _load_split(out_dir, "train_ood.csv", n_classes=cfg["n_classes"])
    val_id = _load_split(out_dir, "val_id.csv", n_classes=cfg["n_classes"])
    try:
        model, mix, history = train(_train_config(cfg), train_id, train_ood, val_id)
    except ValueError as exc:
        raise CliError(f"training failed: {exc}") from None
    except (FloatingPointError, RuntimeError) as exc:
        raise CliError(f"training failed: {exc} (check the keys that scale the step: "
                       f"{', '.join(_STEP_KEYS)})") from None
    save_checkpoint(os.path.join(out_dir, "model.ckpt"), model, mix)
    with open(os.path.join(out_dir, "history.csv"), "w", encoding="ascii") as fh:
        fh.write("epoch,total,isac,tla,oe,val_acc\n")
        for rec in history.records:
            fh.write(f"{rec.epoch},{rec.total!r},{rec.isac!r},"
                     f"{rec.tla!r},{rec.oe!r},{rec.val_acc!r}\n")


def _load_model(out_dir, cfg):
    path = _require(os.path.join(out_dir, "model.ckpt"), "checkpoint")
    try:
        model, mix = load_checkpoint(path)
    except ValueError as exc:
        raise CliError(f"bad checkpoint {path}: {exc}") from None
    if model.n_classes != cfg["n_classes"]:
        raise CliError(f"checkpoint {path} has {model.n_classes} classes "
                       f"but n_classes = {cfg['n_classes']}")
    return model, mix


def cmd_calibrate(cfg, out_dir) -> None:
    model, mix = _load_model(out_dir, cfg)
    train_id = _load_train(out_dir, cfg)
    train_ood = _load_split(out_dir, "train_ood.csv", n_classes=cfg["n_classes"])
    per_class = cfg["per_class"] or int(train_id.class_counts.min())
    cb = class_balanced_subset(train_id, per_class,
                               seed=derive_seed(cfg["seed"], "calibration-subset"))
    try:
        cb_z = encoder_forward(model, cb.inputs)
        ood_z = encoder_forward(model, train_ood.inputs)
        weight = AttentionWeight.from_raw(
            attention_weight(cb_z, cb.labels, ood_z, model, mix.priors))
    except (ValueError, FloatingPointError) as exc:
        raise CliError(f"calibration failed: {exc}") from None
    save_attention(os.path.join(out_dir, "attention.csv"), weight)


def _resolve_attention(cfg, out_dir):
    mode = cfg["use_calibration"]
    path = os.path.join(out_dir, "attention.csv")
    if mode == "off":
        return None
    if not os.path.isfile(path):
        if mode == "on":
            raise CliError(f"missing attention weight: {path} (run calibrate first)")
        return None
    try:
        return load_attention(path)
    except ValueError as exc:
        raise CliError(f"bad attention file {path}: {exc}") from None


def cmd_eval(cfg, out_dir) -> None:
    """Score both test splits and write the metric report.

    Predicted labels always come from the uncalibrated features; the
    attention weight, when present, reweights features for the score
    path only. The trained classifier is what produced the weight's
    virtual labels, so its predictions stay the reference. The head/tail
    split ranks classes by the checkpoint's priors.
    """
    model, mix = _load_model(out_dir, cfg)
    test_id = _load_split(out_dir, "test_id.csv", n_classes=cfg["n_classes"])
    test_ood = _load_split(out_dir, "test_ood.csv", n_classes=cfg["n_classes"])
    weight = _resolve_attention(cfg, out_dir)
    score = energy_score if cfg["score"] == "energy" else msp_score

    try:
        z_id = encoder_forward(model, test_id.inputs)
        z_ood = encoder_forward(model, test_ood.inputs)
        pred_id = np.argmax(classifier_logits(model, z_id), axis=1)
        pred_ood = np.argmax(classifier_logits(model, z_ood), axis=1)
        if weight is not None:
            z_id = calibrate_feature(z_id, weight.scaled)
            z_ood = calibrate_feature(z_ood, weight.scaled)
        id_scores = score(classifier_logits(model, z_id))
        ood_scores = score(classifier_logits(model, z_ood))
        report = build_report(id_scores, ood_scores, test_id.labels, pred_id,
                              mix.priors, tail_fraction=cfg["tail_fraction"])
    except (ValueError, FloatingPointError) as exc:
        raise CliError(f"evaluation failed: {exc}") from None

    with open(os.path.join(out_dir, "scores.csv"), "w", encoding="ascii") as fh:
        fh.write("split,row,label,pred,score\n")
        for i in range(id_scores.size):
            fh.write(f"id,{i},{test_id.labels[i]},{pred_id[i]},"
                     f"{float(id_scores[i])!r}\n")
        for i in range(ood_scores.size):
            fh.write(f"ood,{i},{test_ood.labels[i]},{pred_ood[i]},"
                     f"{float(ood_scores[i])!r}\n")
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="ascii") as fh:
        fh.write(report.to_csv())


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
    classes by the checkpoint's priors."""
    _model, mix = _load_model(out_dir, cfg)
    rows = _read_scores(out_dir)
    true_labels = np.array([r[0] for r in rows["id"]])
    pred_labels = np.array([r[1] for r in rows["id"]])
    try:
        acc, acc_head, acc_tail = classification_report(
            true_labels, pred_labels, mix.priors, tail_fraction=cfg["tail_fraction"])
    except ValueError as exc:
        raise CliError(f"bad scores file {os.path.join(out_dir, 'scores.csv')}: {exc}") from None
    id_scores = np.array([r[2] for r in rows["id"]])
    ood_scores = np.array([r[2] for r in rows["ood"]])
    lo = min(id_scores.min(), ood_scores.min())
    hi = max(id_scores.max(), ood_scores.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, HIST_BINS + 1)
    id_counts, _ = np.histogram(id_scores, bins=edges)
    ood_counts, _ = np.histogram(ood_scores, bins=edges)
    with open(os.path.join(out_dir, "hist.csv"), "w", encoding="ascii") as fh:
        fh.write("bin_lo,bin_hi,id_count,ood_count\n")
        for b in range(HIST_BINS):
            fh.write(f"{float(edges[b])!r},{float(edges[b + 1])!r},"
                     f"{id_counts[b]},{ood_counts[b]}\n")
    with open(os.path.join(out_dir, "acc_table.csv"), "w", encoding="ascii") as fh:
        fh.write("group,acc\n")
        fh.write(f"overall,{acc!r}\n")
        fh.write(f"head,{'' if acc_head is None else repr(acc_head)}\n")
        fh.write(f"tail,{'' if acc_tail is None else repr(acc_tail)}\n")


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "calibrate": cmd_calibrate,
    "eval": cmd_eval,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="patt-lab",
        description="Long-tailed out-of-distribution detection experiments.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="key = value config file")
    parser.add_argument("--out", default=None, help="output directory (overrides out_dir)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed=args.seed)
        out_dir = args.out if args.out is not None else cfg["out_dir"]
        os.makedirs(out_dir, exist_ok=True)
        # a finite value in a config or input file can still overflow; fail
        # on the first overflow or invalid operation instead of printing
        # numpy warnings
        with np.errstate(over="raise", invalid="raise"):
            COMMANDS[args.command](cfg, out_dir)
    except (CliError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
