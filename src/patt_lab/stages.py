"""The four CLI stages that run numpy. Each stage imports the package modules
it calls, so a stage loads and compiles only the code it runs. Package
functions are called through their modules, so a wrapper set on a module (a
tracer's) sees every call."""

import os

import numpy as np

from .cli import _STEP_KEYS, CliError, _build, _check_classes, _require, _train_config


def _load_split(out_dir, name, cfg):
    from . import data
    path = _require(os.path.join(out_dir, name), "dataset file")
    try:
        return data.load_features_csv(path, cfg["n_classes"])
    except (ValueError, MemoryError, OverflowError) as exc:
        # an n_classes beyond int64 or beyond memory leaves numpy unable
        # to count the classes
        raise CliError(f"bad dataset file {path}: {exc}") from None


def _load_train(out_dir, cfg):
    # train.csv must hold rows of every class that n_classes declares
    train_id = _load_split(out_dir, "train.csv", cfg)
    empty = np.flatnonzero(train_id.class_counts == 0)
    if empty.size:
        path = os.path.join(out_dir, "train.csv")
        raise CliError(f"bad dataset file {path}: class {empty[0]} has no rows "
                       f"(n_classes = {cfg['n_classes']})")
    return train_id


def cmd_gen_data(cfg, out_dir) -> None:
    from . import data
    dcfg = _build(data.SynthConfig, cfg)
    try:
        train_id, val_id, test_id, train_ood, test_ood = data.gen_longtail(dcfg)
    except (ValueError, MemoryError) as exc:
        raise CliError(f"data generation failed: {exc}") from None
    # the one stage that makes the output directory, once it has data to write
    os.makedirs(out_dir, exist_ok=True)
    splits = {
        "train.csv": train_id,
        "val_id.csv": val_id,
        "test_id.csv": test_id,
        "train_ood.csv": train_ood,
        "test_ood.csv": test_ood,
    }
    for name, split in splits.items():
        data.save_features_csv(split, os.path.join(out_dir, name))
    sizes = {name: split.inputs.shape[0] for name, split in splits.items()}
    data.save_manifest(os.path.join(out_dir, "manifest.txt"), dcfg, sizes)


def cmd_train(cfg, out_dir) -> None:
    from . import model
    train_id = _load_train(out_dir, cfg)
    train_ood = _load_split(out_dir, "train_ood.csv", cfg)
    val_id = _load_split(out_dir, "val_id.csv", cfg)
    try:
        net, mix, history = model.train(_train_config(cfg), train_id, train_ood, val_id)
    except (ValueError, MemoryError) as exc:
        raise CliError(f"training failed: {exc}") from None
    except (FloatingPointError, RuntimeError) as exc:
        raise CliError(f"training failed: {exc} (check the keys that scale the step: "
                       f"{', '.join(_STEP_KEYS)})") from None
    model.save_checkpoint(os.path.join(out_dir, "model.ckpt"), net, mix)
    with open(os.path.join(out_dir, "history.csv"), "w", encoding="ascii") as fh:
        fh.write("epoch,total,isac,tla,oe,val_acc\n")
        for rec in history:
            fh.write(f"{rec.epoch},{rec.total!r},{rec.isac!r},"
                     f"{rec.tla!r},{rec.oe!r},{rec.val_acc!r}\n")


def _load_model(out_dir, cfg):
    from . import model
    path = _require(os.path.join(out_dir, "model.ckpt"), "checkpoint")
    try:
        net, mix = model.load_checkpoint(path)
    except ValueError as exc:
        raise CliError(f"bad checkpoint {path}: {exc}") from None
    _check_classes(path, net.n_classes, cfg)
    return net, mix


def cmd_calibrate(cfg, out_dir) -> None:
    from . import calibration, data, model
    from .util import derive_seed
    net, mix = _load_model(out_dir, cfg)
    train_id = _load_train(out_dir, cfg)
    train_ood = _load_split(out_dir, "train_ood.csv", cfg)
    per_class = cfg["per_class"] or int(train_id.class_counts.min())
    cb = data.class_balanced_subset(train_id, per_class,
                                    seed=derive_seed(cfg["seed"], "calibration-subset"))
    try:
        cb_z = model.encoder_forward(net, cb.inputs)
        ood_z = model.encoder_forward(net, train_ood.inputs)
        weight = calibration.AttentionWeight.from_raw(
            calibration.attention_weight(cb_z, cb.labels, ood_z, net, mix.priors))
    except (ValueError, FloatingPointError) as exc:
        raise CliError(f"calibration failed: {exc}") from None
    calibration.save_attention(os.path.join(out_dir, "attention.csv"), weight)


def _resolve_attention(cfg, out_dir):
    from . import calibration
    mode = cfg["use_calibration"]
    path = os.path.join(out_dir, "attention.csv")
    if mode == "off":
        return None
    if not os.path.isfile(path):
        if mode == "on":
            raise CliError(f"missing attention weight: {path} (run calibrate first)")
        return None
    try:
        return calibration.load_attention(path)
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
    from . import calibration, metrics, model
    net, mix = _load_model(out_dir, cfg)
    test_id = _load_split(out_dir, "test_id.csv", cfg)
    test_ood = _load_split(out_dir, "test_ood.csv", cfg)
    weight = _resolve_attention(cfg, out_dir)
    score = calibration.energy_score if cfg["score"] == "energy" else calibration.msp_score

    try:
        z_id = model.encoder_forward(net, test_id.inputs)
        z_ood = model.encoder_forward(net, test_ood.inputs)
        pred_id = np.argmax(model.classifier_logits(net, z_id), axis=1)
        pred_ood = np.argmax(model.classifier_logits(net, z_ood), axis=1)
        if weight is not None:
            z_id = calibration.calibrate_feature(z_id, weight.scaled)
            z_ood = calibration.calibrate_feature(z_ood, weight.scaled)
        id_scores = score(model.classifier_logits(net, z_id))
        ood_scores = score(model.classifier_logits(net, z_ood))
        report = metrics.build_report(id_scores, ood_scores, test_id.labels, pred_id,
                                      mix.priors, tail_fraction=cfg["tail_fraction"])
    except (ValueError, FloatingPointError) as exc:
        raise CliError(f"evaluation failed: {exc}") from None

    with open(os.path.join(out_dir, "scores.csv"), "w", encoding="ascii") as fh:
        fh.write("split,row,label,pred,score\n")
        for split, labels, pred, scores in (("id", test_id.labels, pred_id, id_scores),
                                            ("ood", test_ood.labels, pred_ood, ood_scores)):
            rows = zip(labels.tolist(), pred.tolist(), scores.tolist())
            fh.writelines(f"{split},{i},{y},{p},{s!r}\n" for i, (y, p, s) in enumerate(rows))
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="ascii") as fh:
        fh.write(report.to_csv())


COMMANDS = {"gen-data": cmd_gen_data, "train": cmd_train, "calibrate": cmd_calibrate,
            "eval": cmd_eval}
