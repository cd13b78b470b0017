"""Command-line harness for the full pipeline.

Five subcommands cover the experiment lifecycle: ``gen-data`` writes the
synthetic benchmark splits, ``train`` fits a model and writes a checkpoint,
``calibrate`` extracts the attention weight, ``eval`` scores the test
splits and writes the report, and ``report`` bins scores into plot-ready
histogram data. Configuration is a flat ``key = value`` file; every key
has a default, unknown keys are rejected. All randomness derives from the
single ``seed`` key, so repeating any subcommand reproduces its output
files byte for byte.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .calibration import (AttentionWeight, attention_weight, calibrate_feature,
                          energy_score, load_attention, msp_score, save_attention)
from .data import (SynthConfig, class_balanced_subset, gen_longtail,
                   load_features_csv, save_features_csv, save_manifest)
from .losses import PattHyper
from .metrics import EvalReport, build_report, classification_report
from .model import (METHODS, TrainConfig, classifier_logits, encoder_forward,
                    load_checkpoint, save_checkpoint, train)
from .util import derive_seed

__all__ = ["main", "entry"]

HIST_BINS = 30

# config keys that scale a training step's losses, gradients or update
_STEP_KEYS = ("learning_rate", "sgd_momentum", "tau", "epsilon", "alpha", "beta", "oe_gamma")

# key -> default; the default's type decides how the value string is parsed
DEFAULTS = {
    "seed": 0,
    "out_dir": "runs/default",
    # synthetic data
    "n_classes": 10,
    "feature_dim": 8,
    "imbalance_ratio": 100.0,
    "max_per_class": 500,
    "within_kappa": 80.0,
    "ood_kappa": 20.0,
    "val_per_class": 20,
    "test_per_class": 40,
    "ood_train_clusters": 2,
    "ood_test_clusters": 3,
    "ood_train_size": 600,
    "ood_test_size": 400,
    "max_direction_dot": 0.9,
    "features_direct": False,
    "input_dim": 0,
    # training
    "epochs": 30,
    "batch_size": 128,
    "ood_batch_size": 128,
    "learning_rate": 1e-3,
    "optimizer": "adam",
    "sgd_momentum": 0.9,
    "vmf_momentum": 0.9,
    "vmf_update": "batch",
    "encoder_widths": "64,64",
    "method": "patt",
    "oe_gamma": 0.5,
    # loss weights
    "tau": 0.1,
    "epsilon": 0.7,
    "alpha": 0.5,
    "beta": 0.1,
    # calibration; per_class 0 means "smallest training class count"
    "per_class": 0,
    "tail_fraction": 1.0 / 3.0,
    # evaluation
    "score": "energy",
    "use_calibration": "auto",
}


class CliError(Exception):
    """Raised for config and file problems; rendered as one stderr line."""


def _parse_value(key: str, text: str):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        low = text.lower()
        if low not in ("true", "false"):
            raise CliError(f"config key '{key}' wants true/false, got {text!r}")
        return low == "true"
    try:
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            value = float(text)
            if not math.isfinite(value):
                raise CliError(f"config key '{key}' must be finite, got {text!r}")
            return value
    except ValueError:
        raise CliError(f"config key '{key}' wants a number, got {text!r}") from None
    return text


def load_config(path) -> dict:
    """Parse a key=value file over the documented defaults."""
    if not os.path.isfile(path):
        raise CliError(f"missing config file: {path}")
    cfg = dict(DEFAULTS)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
    return cfg


def _widths(cfg) -> tuple:
    try:
        widths = tuple(int(part) for part in cfg["encoder_widths"].split(","))
    except ValueError:
        raise CliError(f"bad encoder_widths {cfg['encoder_widths']!r}") from None
    if not widths or any(w < 1 for w in widths):
        raise CliError(f"bad encoder_widths {cfg['encoder_widths']!r}")
    return widths


def _synth_config(cfg) -> SynthConfig:
    return SynthConfig(
        n_classes=cfg["n_classes"],
        feature_dim=cfg["feature_dim"],
        imbalance_ratio=cfg["imbalance_ratio"],
        max_per_class=cfg["max_per_class"],
        within_kappa=cfg["within_kappa"],
        ood_kappa=cfg["ood_kappa"],
        val_per_class=cfg["val_per_class"],
        test_per_class=cfg["test_per_class"],
        ood_train_clusters=cfg["ood_train_clusters"],
        ood_test_clusters=cfg["ood_test_clusters"],
        ood_train_size=cfg["ood_train_size"],
        ood_test_size=cfg["ood_test_size"],
        max_direction_dot=cfg["max_direction_dot"],
        features_direct=cfg["features_direct"],
        input_dim=cfg["input_dim"] or None,
        seed=cfg["seed"],
    )


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
    try:
        dcfg = _synth_config(cfg)
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
    if cfg["method"] not in METHODS:
        raise CliError(f"unknown method '{cfg['method']}' (pick one of {', '.join(METHODS)})")
    train_id = _load_train(out_dir, cfg)
    train_ood = _load_split(out_dir, "train_ood.csv", n_classes=cfg["n_classes"])
    val_id = _load_split(out_dir, "val_id.csv", n_classes=cfg["n_classes"])
    widths = _widths(cfg)
    try:
        hyper = PattHyper(tau=cfg["tau"], epsilon=cfg["epsilon"],
                          alpha=cfg["alpha"], beta=cfg["beta"])
        tcfg = TrainConfig(
            epochs=cfg["epochs"],
            batch_size=cfg["batch_size"],
            ood_batch_size=cfg["ood_batch_size"],
            learning_rate=cfg["learning_rate"],
            optimizer=cfg["optimizer"],
            sgd_momentum=cfg["sgd_momentum"],
            seed=cfg["seed"],
            hyper=hyper,
            vmf_momentum=cfg["vmf_momentum"],
            vmf_update=cfg["vmf_update"],
            encoder_widths=widths,
            feature_dim=cfg["feature_dim"],
            method=cfg["method"],
            oe_gamma=cfg["oe_gamma"],
        )
    except ValueError as exc:
        raise CliError(f"bad training config: {exc}") from None
    try:
        # a finite config value can still overflow the step; fail on the
        # first overflow or invalid operation instead of printing warnings
        with np.errstate(over="raise", invalid="raise"):
            model, mix, history = train(tcfg, train_id, train_ood, val_id)
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


def _train_priors(train_id):
    counts = np.asarray(train_id.class_counts, dtype=np.float64)
    return counts / counts.sum()


def cmd_calibrate(cfg, out_dir) -> None:
    model, _mix = _load_model(out_dir, cfg)
    train_id = _load_train(out_dir, cfg)
    train_ood = _load_split(out_dir, "train_ood.csv", n_classes=cfg["n_classes"])
    per_class = cfg["per_class"] or int(train_id.class_counts.min())
    if per_class < 1:
        raise CliError(f"per_class must be positive, got {per_class}")
    cb = class_balanced_subset(train_id, per_class,
                               seed=derive_seed(cfg["seed"], "calibration-subset"))
    try:
        cb_z = encoder_forward(model, cb.inputs)
        ood_z = encoder_forward(model, train_ood.inputs)
        raw = attention_weight(cb_z, cb.labels, ood_z, model, _train_priors(train_id))
    except ValueError as exc:
        raise CliError(f"calibration failed: {exc}") from None
    save_attention(os.path.join(out_dir, "attention.csv"), AttentionWeight.from_raw(raw))


def _resolve_attention(cfg, out_dir):
    mode = cfg["use_calibration"]
    if mode not in ("auto", "on", "off"):
        raise CliError(f"use_calibration must be auto/on/off, got '{mode}'")
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


def _score_fn(cfg):
    if cfg["score"] == "energy":
        return energy_score
    if cfg["score"] == "msp":
        return msp_score
    raise CliError(f"score must be energy or msp, got '{cfg['score']}'")


def cmd_eval(cfg, out_dir) -> None:
    """Score both test splits and write the metric report.

    Predicted labels always come from the uncalibrated features; the
    attention weight, when present, reweights features for the score
    path only. The trained classifier is what produced the weight's
    virtual labels, so its predictions stay the reference.
    """
    model, _mix = _load_model(out_dir, cfg)
    train_id = _load_train(out_dir, cfg)
    test_id = _load_split(out_dir, "test_id.csv", n_classes=cfg["n_classes"])
    test_ood = _load_split(out_dir, "test_ood.csv", n_classes=cfg["n_classes"])
    weight = _resolve_attention(cfg, out_dir)
    score = _score_fn(cfg)
    if not 0.0 < cfg["tail_fraction"] < 1.0:
        raise CliError(f"tail_fraction must be in (0, 1), got {cfg['tail_fraction']}")

    try:
        z_id = encoder_forward(model, test_id.inputs)
        z_ood = encoder_forward(model, test_ood.inputs)
    except ValueError as exc:
        raise CliError(f"evaluation failed: {exc}") from None
    pred_id = np.argmax(classifier_logits(model, z_id), axis=1)
    pred_ood = np.argmax(classifier_logits(model, z_ood), axis=1)
    if weight is not None:
        z_id = calibrate_feature(z_id, weight.scaled)
        z_ood = calibrate_feature(z_ood, weight.scaled)
    id_scores = score(classifier_logits(model, z_id))
    ood_scores = score(classifier_logits(model, z_ood))

    with open(os.path.join(out_dir, "scores.csv"), "w", encoding="ascii") as fh:
        fh.write("split,row,label,pred,score\n")
        for i in range(id_scores.size):
            fh.write(f"id,{i},{test_id.labels[i]},{pred_id[i]},"
                     f"{float(id_scores[i])!r}\n")
        for i in range(ood_scores.size):
            fh.write(f"ood,{i},{test_ood.labels[i]},{pred_ood[i]},"
                     f"{float(ood_scores[i])!r}\n")

    report = build_report(id_scores, ood_scores, test_id.labels, pred_id,
                          train_id.class_counts, tail_fraction=cfg["tail_fraction"])
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="ascii") as fh:
        fh.write(report.to_csv())


def _read_scores(out_dir):
    path = _require(os.path.join(out_dir, "scores.csv"), "scores file")
    rows = {"id": [], "ood": []}
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if header != "split,row,label,pred,score":
            raise CliError(f"bad scores file {path}: unexpected header")
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != 5 or parts[0] not in rows:
                raise CliError(f"bad scores file {path}: line {lineno}")
            try:
                rows[parts[0]].append((int(parts[2]), int(parts[3]), float(parts[4])))
            except ValueError:
                raise CliError(f"bad scores file {path}: line {lineno}") from None
    if not rows["id"] or not rows["ood"]:
        raise CliError(f"bad scores file {path}: need both id and ood rows")
    return rows


def cmd_report(cfg, out_dir) -> None:
    """Bin scores for plotting and recompute the accuracy split."""
    rows = _read_scores(out_dir)
    train_id = _load_train(out_dir, cfg)
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

    true_labels = np.array([r[0] for r in rows["id"]])
    pred_labels = np.array([r[1] for r in rows["id"]])
    try:
        acc, acc_head, acc_tail = classification_report(
            true_labels, pred_labels, train_id.class_counts,
            tail_fraction=cfg["tail_fraction"])
    except ValueError as exc:
        raise CliError(f"bad scores file {os.path.join(out_dir, 'scores.csv')}: {exc}") from None
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
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise CliError(f"seed must be nonnegative, got {args.seed}")
            cfg["seed"] = args.seed
        out_dir = args.out if args.out is not None else cfg["out_dir"]
        os.makedirs(out_dir, exist_ok=True)
        COMMANDS[args.command](cfg, out_dir)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
