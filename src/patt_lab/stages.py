"""The four CLI stages that run numpy. Each stage imports the package modules
it calls, so a stage loads and compiles only the code it runs. Package
functions are called through their modules, so a wrapper set on a module (a
tracer's) sees every call. ``cli._read`` words the error of an input file,
missing or refused by its reader here (also for disagreeing with the config
or the checkpoint), and ``run`` every error of the stage's work."""

import itertools
import os

import numpy as np

from .cli import _STEP_KEYS, CliError, _build, _read


# the splits that the config sizes at one row or more, so one of none is damaged
_SIZED = {"val_id.csv": "validation", "test_id.csv": "test", "test_ood.csv": "OOD test"}
# the splits of class rows, where an outlier row (label -1) is damage
_LABELED = {"train.csv": "training", "val_id.csv": "validation", "test_id.csv": "test"}


def _load_rows(path, n_classes, name, width):
    # train.csv must hold rows of every class that n_classes declares, and a
    # split read against a width (None for any) must have that many columns
    from . import data
    rows = data.load_features_csv(path, n_classes)
    if width is not None and rows.dim != width:
        raise ValueError(f"{rows.dim} feature columns, want {width}")
    if name in _LABELED and (outliers := np.flatnonzero(rows.labels < 0)).size:
        raise ValueError(f"line {outliers[0] + 2}: {_LABELED[name]} label out of range for the "
                         f"class count: got -1, want each in [0, {n_classes})")
    if name == "train.csv" and (empty := np.flatnonzero(rows.class_counts == 0)).size:
        raise ValueError(f"class {empty[0]} has no rows (n_classes = {n_classes})")
    if name in _SIZED and not rows.labels.size:
        raise ValueError(f"the {_SIZED[name]} split has no rows")
    return rows


def _load_split(out_dir, name, cfg, width=None):
    return _read(os.path.join(out_dir, name), "dataset file", _load_rows, cfg["n_classes"], name,
                 width)


def cmd_gen_data(cfg, out_dir) -> None:
    """Generate the five splits and write them, the manifest last. A child
    (``util.Beside``) writes the leading splits up to half the rows while
    this process writes the others. Its warnings are issued after this
    process's, and its error replaces this process's, as writing the splits
    in order would raise it first."""
    from . import data, util
    dcfg = _build(data.SynthConfig, cfg)
    splits = dict(zip(("train.csv", "val_id.csv", "test_id.csv", "train_ood.csv", "test_ood.csv"),
                      data.gen_longtail(dcfg)))
    # the one stage that makes the output directory, once it has data to write
    os.makedirs(out_dir, exist_ok=True)
    sizes = {name: split.inputs.shape[0] for name, split in splits.items()}
    ends = list(itertools.accumulate(sizes.values()))
    lead = next(i for i, end in enumerate(ends, start=1) if 2 * end >= ends[-1])
    names = list(splits)

    def write(which):
        for name in which:
            data.save_features_csv(splits[name], os.path.join(out_dir, name))

    with util.Beside(write, "the split writer") as writer:
        join = writer.start(names[:lead])
        try:
            write(names[lead:])
        finally:
            join()  # raised in a finally, the child's error replaces this process's
    data.save_manifest(os.path.join(out_dir, "manifest.txt"), dcfg, sizes)


def cmd_train(cfg, out_dir) -> None:
    # model imports losses, and losses vmf, only on the training path: imported
    # here, before the splits are read and the outlier helper forks, they
    # compile once, and off the stage's peak RSS
    from . import losses, model  # noqa: F401
    train_id = _load_split(out_dir, "train.csv", cfg)
    train_ood = _load_split(out_dir, "train_ood.csv", cfg, train_id.dim)
    val_id = _load_split(out_dir, "val_id.csv", cfg, train_id.dim)
    net, stats, history = model.train(_build(model.TrainConfig, cfg), train_id, train_ood, val_id)
    model.save_checkpoint(os.path.join(out_dir, "model.ckpt"), net, stats)
    with open(os.path.join(out_dir, "history.csv"), "w", encoding="ascii") as fh:
        fh.write("epoch,total,isac,tla,oe,val_acc\n")
        for epoch, total, isac, tla, oe, val_acc in history:
            fh.write(f"{epoch},{total!r},{isac!r},{tla!r},{oe!r},{val_acc!r}\n")


def _load_model(path, n_classes):
    # the model and the class priors, the one part of the mixture a stage reads
    from . import model
    net, (_, _, priors) = model.load_checkpoint(path)
    if net.n_classes != n_classes:
        raise ValueError(f"{net.n_classes} classes but n_classes = {n_classes}")
    return net, priors


def cmd_calibrate(cfg, out_dir) -> None:
    from . import calibration
    from .util import derive_seed
    net, priors = _read(os.path.join(out_dir, "model.ckpt"), "checkpoint", _load_model,
                        cfg["n_classes"])
    train_id = _load_split(out_dir, "train.csv", cfg, net.input_dim)
    train_ood = _load_split(out_dir, "train_ood.csv", cfg, net.input_dim)
    per_class = cfg["per_class"] or int(train_id.class_counts.min())
    raw = calibration.fit_attention(net, train_id, train_ood, priors, per_class,
                                    derive_seed(cfg["seed"], "calibration-subset"))
    calibration.save_attention(os.path.join(out_dir, "attention.csv"), raw)


def _load_attention(path, dim):
    # the scaled weight, one per channel of the checkpoint's dim features
    from . import calibration
    scaled = calibration.load_attention(path)
    if scaled.size != dim:
        raise ValueError(f"{scaled.size} channel weights for {dim} feature channels")
    return scaled


def cmd_eval(cfg, out_dir) -> None:
    """Score both test splits through ``calibration.predict_and_score`` and
    write the metric report, its head/tail split ranked by the checkpoint's priors."""
    from . import calibration, metrics, report
    net, priors = _read(os.path.join(out_dir, "model.ckpt"), "checkpoint", _load_model,
                        cfg["n_classes"])
    test_id = _load_split(out_dir, "test_id.csv", cfg, net.input_dim)
    test_ood = _load_split(out_dir, "test_ood.csv", cfg, net.input_dim)
    # no weight when calibration is off, or auto with no file
    path, mode = os.path.join(out_dir, "attention.csv"), cfg["use_calibration"]
    weight = (None if mode == "off" or (mode == "auto" and not os.path.isfile(path))
              else _read(path, "attention file", _load_attention, net.feature_dim))
    pred_id, id_scores = calibration.predict_and_score(net, test_id.inputs, weight, cfg["score"])
    pred_ood, ood_scores = calibration.predict_and_score(net, test_ood.inputs, weight,
                                                         cfg["score"])
    row = metrics.build_report(id_scores, ood_scores, test_id.labels, pred_id,
                               priors, tail_fraction=cfg["tail_fraction"])
    report.write_scores(os.path.join(out_dir, "scores.csv"), (
        ("id", test_id.labels, pred_id, id_scores), ("ood", test_ood.labels, pred_ood, ood_scores)))
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="ascii") as fh:
        fh.write(report.report_csv(row))


# stage -> (function, the words of its failure line, the hint that ends the
# line of a floating-point or runtime error)
COMMANDS = {"gen-data": (cmd_gen_data, "data generation", ""), "train": (cmd_train, "training",
            f" (check the keys that scale the step: {', '.join(_STEP_KEYS)})"),
            "calibrate": (cmd_calibrate, "calibration", ""), "eval": (cmd_eval, "evaluation", "")}


def run(command, cfg, out_dir) -> None:
    """Run one of ``COMMANDS``, failing on the first overflow or invalid
    operation (a finite input can still overflow) instead of warning; any
    such error of the stage's work ends it as ``<words> failed: <exc>``,
    a floating-point or runtime error with the stage's hint after it."""
    stage, words, hint = COMMANDS[command]
    try:
        with np.errstate(over="raise", invalid="raise"):
            stage(cfg, out_dir)
    except (FloatingPointError, RuntimeError) as exc:
        raise CliError(f"{words} failed: {exc}{hint}") from None
    except (ValueError, MemoryError, OverflowError, ChildProcessError) as exc:
        raise CliError(f"{words} failed: {exc}") from None
