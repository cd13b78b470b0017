"""End-to-end tests of the command-line pipeline on a miniature dataset."""

import ast
import contextlib
import gc
import importlib
import io
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patt_lab import cli, report
from patt_lab.config import config_fields
from patt_lab.data import SynthConfig
from patt_lab.model import TrainConfig, load_checkpoint

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"

ALL_OUTPUTS = (
    "train.csv", "val_id.csv", "test_id.csv", "train_ood.csv", "test_ood.csv",
    "manifest.txt", "model.ckpt", "history.csv", "attention.csv",
    "scores.csv", "report.csv", "hist.csv", "acc_table.csv",
)

TINY = {
    "seed": 0,
    "n_classes": 4,
    "feature_dim": 4,
    "imbalance_ratio": 10.0,
    "max_per_class": 30,
    "val_per_class": 6,
    "test_per_class": 8,
    "ood_train_size": 40,
    "ood_test_size": 24,
    "ood_test_clusters": 2,
    "epochs": 2,
    "batch_size": 32,
    "encoder_widths": "8",
}


def write_config(path, **overrides):
    items = dict(TINY)
    items.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))
    return path


def run(config, out_dir, *commands):
    for command in commands:
        rc = cli.main([command, "--config", str(config), "--out", str(out_dir)])
        assert rc == 0, f"{command} failed"


def run_all(config, out_dir):
    run(config, out_dir, "gen-data", "train", "calibrate", "eval", "report")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = write_config(root / "run.cfg")
    out = root / "out"
    run_all(config, out)
    return config, out


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert cli.load_config(path) == cli.DEFAULTS

    def test_values_are_typed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "\n"
            "epochs = 7        # trailing comment\n"
            "learning_rate = 0.01\n"
            "features_direct = true\n"
            "method = ce-baseline\n")
        cfg = cli.load_config(path)
        assert cfg["epochs"] == 7
        assert cfg["learning_rate"] == 0.01
        assert cfg["features_direct"] is True
        assert cfg["method"] == "ce-baseline"

    def test_unknown_key_names_location(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("momentum = 0.9\n")
        with pytest.raises(cli.CliError, match=r":1: unknown config key"):
            cli.load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = soon\n")
        with pytest.raises(cli.CliError, match="epochs"):
            cli.load_config(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_float_rejected(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(f"tau = {text}\n")
        with pytest.raises(cli.CliError, match="'tau' must be finite"):
            cli.load_config(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"epochs = 3\xff\n")
        with pytest.raises(cli.CliError, match="not UTF-8"):
            cli.load_config(path)

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        # an editor that saves UTF-8 with a BOM; the BOM used to make the
        # first key unknown, with an invisible character in the message
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xef\xbb\xbfepochs = 7\ntau = 0.5\n")
        cfg = cli.load_config(path)
        assert cfg["epochs"] == 7 and cfg["tau"] == 0.5

    def test_huge_class_count_loads_at_once(self, tmp_path):
        # the tail check used to build the whole count profile: this load
        # never returned (feature_dim = 64 has room for about 1.9e42
        # directions)
        path = write_config(tmp_path / "run.cfg", n_classes=99999999999999999999999,
                            feature_dim=64)
        code = f"from patt_lab import cli; print(cli.load_config({str(path)!r})['n_classes'])"
        done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=10)
        assert done.returncode == 0 and done.stdout == "99999999999999999999999\n", done.stderr

    def test_bool_keys_are_strict(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("features_direct = 1\n")
        with pytest.raises(cli.CliError, match="features_direct"):
            cli.load_config(path)


# one invalid or out-of-range value for every config key
BAD_VALUES = {
    "seed": "-3", "out_dir": "", "n_classes": "1", "feature_dim": "1",
    "imbalance_ratio": "0.5", "max_per_class": "0", "within_kappa": "0.0",
    "ood_kappa": "-1.0", "val_per_class": "0", "test_per_class": "0",
    "ood_train_clusters": "0", "ood_test_clusters": "0", "ood_train_size": "-5",
    "ood_test_size": "0", "max_direction_dot": "1.5", "features_direct": "yes",
    "input_dim": "-2", "epochs": "-1", "batch_size": "0", "ood_batch_size": "0",
    "learning_rate": "-0.1", "optimizer": "rmsprop", "sgd_momentum": "nan",
    "vmf_momentum": "1.0", "vmf_update": "step", "encoder_widths": "64,0",
    "method": "pascl", "oe_gamma": "inf", "tau": "0.0", "epsilon": "-0.7",
    "alpha": "-0.5", "beta": "-0.1", "per_class": "-1", "tail_fraction": "1.5",
    "score": "mps", "use_calibration": "maybe",
}


class TestConfigSchema:
    """Every key is declared once, checked at load, and documented."""

    def test_bad_values_cover_every_key(self):
        assert set(BAD_VALUES) == set(cli.DEFAULTS)

    @pytest.mark.parametrize("command", ["gen-data", "report"])
    @pytest.mark.parametrize("key", [*BAD_VALUES, "--seed"])
    def test_every_stage_rejects_a_bad_value(self, tmp_path, capsys, command, key):
        config = tmp_path / "run.cfg"
        argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
        if key == "--seed":
            config.write_text("")
            argv += ["--seed", "-3"]
        else:
            config.write_text(f"{key} = {BAD_VALUES[key]}\n")
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error:") and err.count("\n") == 1, err
        assert re.search(rf"\b{key.lstrip('-')}\b", err), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_shared_fields_share_defaults(self):
        synth = dict(config_fields(SynthConfig))
        train_fields = dict(config_fields(TrainConfig))
        shared = set(synth) & set(train_fields)
        assert shared == {"seed", "feature_dim"}
        for name in shared:
            assert synth[name] == train_fields[name] == cli.DEFAULTS[name], name
        # every config class field is a key, and the keys are those fields
        # and the CLI's own
        assert set(synth) | set(train_fields) <= set(cli.DEFAULTS)
        assert set(cli.DEFAULTS) == set(synth) | set(train_fields) | set(cli._CLI_DEFAULTS)

    def test_readme_table_matches_defaults(self):
        # the "Configuration keys" table: | `key` | `default` | meaning |
        text = README.read_text(encoding="utf-8")
        section = text.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `([a-z_]+)` \| `([^`]*)` \|", section, flags=re.M)
        assert [key for key, _ in rows] == list(dict(rows))
        assert set(dict(rows)) == set(cli.DEFAULTS)
        for key, default in rows:
            assert cli._parse_value(key, default) == cli.DEFAULTS[key], key


class TestPipelineOutputs:
    def test_all_artifacts_written(self, pipeline):
        _, out = pipeline
        for name in ALL_OUTPUTS:
            assert (out / name).exists(), name

    def test_scores_cover_both_splits(self, pipeline):
        _, out = pipeline
        lines = (out / "scores.csv").read_text().splitlines()
        assert lines[0] == "split,row,label,pred,score"
        splits = [line.split(",")[0] for line in lines[1:]]
        assert splits.count("id") == 4 * 8
        assert splits.count("ood") == 24

    def test_report_parses(self, pipeline):
        _, out = pipeline
        row = report.read_report(out / "report.csv")
        assert list(row) == list(report.REPORT_COLUMNS)
        assert 0.0 <= row["auroc"] <= 1.0

    def test_history_has_one_row_per_epoch(self, pipeline):
        _, out = pipeline
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,total,isac,tla,oe,val_acc"
        assert len(lines) == 1 + TINY["epochs"]

    def test_histogram_counts_match_score_rows(self, pipeline):
        _, out = pipeline
        lines = (out / "hist.csv").read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,id_count,ood_count"
        assert len(lines) == 1 + report.HIST_BINS
        id_total = sum(int(line.split(",")[2]) for line in lines[1:])
        ood_total = sum(int(line.split(",")[3]) for line in lines[1:])
        assert id_total == 4 * 8 and ood_total == 24

    def test_accuracy_table_groups(self, pipeline):
        _, out = pipeline
        lines = (out / "acc_table.csv").read_text().splitlines()
        assert lines[0] == "group,acc"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "overall", "head", "tail"]


class TestDeterminism:
    def test_identical_rerun_is_byte_identical(self, pipeline, tmp_path):
        config, out = pipeline
        again = tmp_path / "again"
        run_all(config, again)
        for name in ALL_OUTPUTS:
            assert (again / name).read_bytes() == (out / name).read_bytes(), name

    def test_seed_flag_overrides_config(self, pipeline, tmp_path):
        config, out = pipeline
        other = tmp_path / "other"
        rc = cli.main(["gen-data", "--config", str(config),
                       "--out", str(other), "--seed", "99"])
        assert rc == 0
        assert (other / "train.csv").read_bytes() != (out / "train.csv").read_bytes()

    def test_eval_does_not_mutate_inputs(self, pipeline, tmp_path):
        config, out = pipeline
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        before = {name: (copy / name).read_bytes()
                  for name in ("model.ckpt", "train.csv", "test_id.csv",
                               "test_ood.csv", "attention.csv")}
        run(config, copy, "eval")
        for name, blob in before.items():
            assert (copy / name).read_bytes() == blob, name


@pytest.fixture(scope="module")
def uncalibrated(tmp_path_factory):
    root = tmp_path_factory.mktemp("plain")
    config = write_config(root / "run.cfg")
    out = root / "out"
    run(config, out, "gen-data", "train", "eval")
    return root, config, out


class TestCalibrationRouting:
    """Without an attention file the score path must match both the explicit
    off switch and a stored weight that rescales to all ones."""

    def test_off_switch_matches_missing_file(self, uncalibrated):
        root, config, out = uncalibrated
        off_config = write_config(root / "off.cfg", use_calibration="off")
        off = root / "off"
        shutil.copytree(out, off)
        run(off_config, off, "calibrate", "eval")
        assert (off / "attention.csv").exists()
        assert (off / "scores.csv").read_bytes() == (out / "scores.csv").read_bytes()

    def test_all_ones_weight_matches_missing_file(self, uncalibrated):
        root, config, out = uncalibrated
        ones = root / "ones"
        shutil.copytree(out, ones)
        # constant raw weight rescales to the identity calibration
        d = TINY["feature_dim"]
        (ones / "attention.csv").write_text(
            ",".join(["0.5"] * d + ["1.0"] * d) + "\n")
        run(config, ones, "eval")
        assert (ones / "scores.csv").read_bytes() == (out / "scores.csv").read_bytes()

    def test_on_switch_requires_file(self, uncalibrated, capsys):
        root, config, out = uncalibrated
        on_config = write_config(root / "on.cfg", use_calibration="on")
        bare = root / "bare"
        shutil.copytree(out, bare)
        (bare / "scores.csv").unlink()
        rc = cli.main(["eval", "--config", str(on_config), "--out", str(bare)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_calibrated_scores_differ(self, uncalibrated, tmp_path):
        root, config, out = uncalibrated
        cal = tmp_path / "cal"
        shutil.copytree(out, cal)
        run(config, cal, "calibrate", "eval")
        assert (cal / "scores.csv").read_bytes() != (out / "scores.csv").read_bytes()


class TestMethodSwitch:
    def test_baseline_reports_are_comparable(self, pipeline, tmp_path):
        config, out = pipeline
        for method in ("oe-baseline", "ce-baseline"):
            alt_config = write_config(tmp_path / f"{method}.cfg", method=method,
                                      score="msp", use_calibration="off")
            alt = tmp_path / method
            run_all(alt_config, alt)
            base = (out / "report.csv").read_text().splitlines()
            other = (alt / "report.csv").read_text().splitlines()
            assert other[0] == base[0]
            report.read_report(alt / "report.csv")


class TestErrorPaths:
    def test_missing_config(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--config", str(tmp_path / "nope.cfg"),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_train_without_data(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.cfg")
        rc = cli.main(["train", "--config", str(config),
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_eval_without_checkpoint(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.cfg")
        out = tmp_path / "o"
        run(config, out, "gen-data")
        rc = cli.main(["eval", "--config", str(config), "--out", str(out)])
        assert rc == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_bad_method_in_config(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.cfg", method="pascl")
        out = tmp_path / "o"
        rc = cli.main(["train", "--config", str(config), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_seed_flag(self, tmp_path, capsys):
        config = write_config(tmp_path / "run.cfg")
        rc = cli.main(["gen-data", "--config", str(config),
                       "--out", str(tmp_path / "o"), "--seed", "-3"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


# edits that make eval's report.csv one that report refuses; "<column>=<cell>"
# sets one cell
REPORT_DAMAGES = ["header", "two-rows", "cells", "acc_tail=1.5", "acc="]


def damaged_report(path, damage):
    """The text of the report.csv at ``path`` with one ``REPORT_DAMAGES`` edit."""
    header, row = path.read_text().splitlines()
    cells = row.split(",")
    if damage == "header":
        header = header.replace("acc_tail", "tail")
    elif damage == "two-rows":
        row += "\n" + row
    elif damage == "cells":
        row = ",".join(cells[:-1])
    else:
        col, _, cell = damage.partition("=")
        cells[report.REPORT_COLUMNS.index(col)] = cell
        row = ",".join(cells)
    return f"{header}\n{row}\n"


def assert_one_error_line(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and err.count("\n") == 1, err


class TestCliContract:
    """Bad config values and corrupted inputs end in exit 1 with one
    ``error:`` line, never a traceback."""

    def test_zero_batch_size_in_train(self, pipeline, tmp_path, capsys):
        _, out = pipeline
        config = write_config(tmp_path / "run.cfg", batch_size=0)
        rc = cli.main(["train", "--config", str(config), "--out", str(out)])
        assert_one_error_line(rc, capsys)

    @pytest.mark.parametrize("overrides, message", [
        # exited 0 with outlier exposure off: the checkpoint was byte for
        # byte the one of oe_gamma = 0
        ({"method": "oe-baseline", "oe_gamma": -1}, "oe_gamma must be >= 0, got -1.0"),
        # exited 0 with the mean loss growing from 2.86 to 1,249 in one epoch
        ({"optimizer": "sgd", "sgd_momentum": -3}, "sgd_momentum must be in [0, 1), got -3.0"),
    ], ids=["oe_gamma", "sgd_momentum"])
    def test_out_of_range_step_key_in_train(self, tmp_path, capsys, overrides, message):
        config = write_config(tmp_path / "run.cfg", **overrides)
        out = tmp_path / "out"
        rc = cli.main(["train", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err == f"error: bad config: {message}\n", err
        assert not out.exists()

    def test_nan_tau_in_train_names_the_key(self, pipeline, tmp_path, capsys):
        _, out = pipeline
        config = write_config(tmp_path / "run.cfg", tau="nan")
        rc = cli.main(["train", "--config", str(config), "--out", str(out)])
        assert "'tau'" in capsys.readouterr().err
        assert rc == 1

    @pytest.mark.parametrize("overrides", [
        {"imbalance_ratio": 0.5},
        # too many classes to place on the circle at the direction spacing
        {"n_classes": 60, "feature_dim": 2},
    ])
    def test_bad_data_config_in_gen_data(self, tmp_path, capsys, overrides):
        config = write_config(tmp_path / "run.cfg", **overrides)
        rc = cli.main(["gen-data", "--config", str(config),
                       "--out", str(tmp_path / "o")])
        assert_one_error_line(rc, capsys)

    def test_unallocatable_width_in_train(self, pipeline, tmp_path, capsys):
        # used to end in numpy's MemoryError traceback; the parameter vector
        # (exabytes) is larger than any 64-bit address space, so the
        # allocation fails at once
        _, out = pipeline
        config = write_config(tmp_path / "run.cfg", encoder_widths="10000000000000000,64")
        rc = cli.main(["train", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert err.startswith("error: training failed: Unable to allocate"), err

    @pytest.mark.parametrize("overrides", [{"max_per_class": 10**15}, {"ood_test_size": 10**14}])
    def test_unallocatable_split_in_gen_data(self, tmp_path, capsys, overrides):
        # used to end in numpy's MemoryError traceback from sample_vmf; a
        # class of petabytes and an outlier cluster of hundreds of terabytes
        # are larger than any 64-bit address space, so the allocation fails
        # at once
        config = write_config(tmp_path / "run.cfg", **overrides)
        rc = cli.main(["gen-data", "--config", str(config), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert err.startswith("error: data generation failed: Unable to allocate"), err

    def test_unplaceable_class_count_in_gen_data(self, tmp_path):
        # used to build the count profile of every class before placing a
        # direction, and never returned; the cap-packing bound now refuses
        # it at config load
        config = write_config(tmp_path / "run.cfg", n_classes=99999999999999999999999)
        done = subprocess.run(
            [sys.executable, "-m", "patt_lab.cli", "gen-data", "--config", str(config),
             "--out", str(tmp_path / "o")],
            env=src_env(), capture_output=True, text=True, timeout=10)
        assert done.returncode == 1 and done.stderr.count("\n") == 1, done.stderr
        assert done.stderr.startswith(
            "error: bad config: could not place n_classes = 99999999999999999999999 "
        ), done.stderr

    @pytest.mark.parametrize("key, value, message", [
        ("within_kappa", 1e17, "within_kappa must be small enough to sample in feature_dim "
                               "= 4, got 1e+17"),
        ("ood_kappa", 1e17, "ood_kappa must be small enough to sample in feature_dim = 4, "
                            "got 1e+17"),
        ("feature_dim", 10**400, "feature_dim must be >= 2 and < 2**63, got 1000"),
    ], ids=["within_kappa", "ood_kappa", "feature_dim"])
    def test_unsampleable_geometry_in_gen_data(self, tmp_path, capsys, key, value, message):
        # such a kappa rounds the sampler's x0 to 1, and gen-data used to end
        # in "math domain error", which names no key; such a feature_dim
        # ended in an OverflowError traceback
        config = write_config(tmp_path / "run.cfg", **{key: value})
        out = tmp_path / "out"
        rc = cli.main(["gen-data", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert err.startswith(f"error: bad config: {message}"), err
        assert not out.exists()

    @pytest.mark.parametrize("n_classes", [2**59, 10**23])
    def test_uncountable_class_count_in_train(self, pipeline, tmp_path, capsys, n_classes):
        # numpy cannot count 2**59 classes (exabytes, refused at once) or
        # 10**23 (beyond int64) when a stage loads a split: both used to end
        # in a traceback. At feature_dim = 64 the sphere has room for about
        # 1.9e42 directions, so the config loads.
        _, out = pipeline
        config = write_config(tmp_path / "run.cfg", n_classes=n_classes, feature_dim=64)
        rc = cli.main(["train", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert err.startswith(f"error: bad dataset file {out / 'train.csv'}: "), err

    @pytest.mark.parametrize("method", ["patt", "oe-baseline", "ce-baseline"])
    def test_outlier_row_in_train_csv_fails_before_a_step(self, pipeline, tmp_path, capsys,
                                                          monkeypatch, method):
        # a labeled split may not hold an outlier row (label -1): its reader
        # refuses it, before a step. The baselines used to run every step
        # first and fail only in their final full pass over the split.
        from patt_lab import model as model_module
        _, out = pipeline
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        lines = (bad / "train.csv").read_text().splitlines(keepends=True)
        row = lines[1].split(",")
        assert row[1] == "0"
        row[1] = "-1"
        lines[1] = ",".join(row)
        (bad / "train.csv").write_text("".join(lines))
        steps = []
        step = model_module.train_step

        def counting(*args):
            steps.append(None)
            return step(*args)

        monkeypatch.setattr(model_module, "train_step", counting)
        config = write_config(tmp_path / "run.cfg", method=method)
        rc = cli.main(["train", "--config", str(config), "--out", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert err == (f"error: bad dataset file {bad / 'train.csv'}: line 2: training label out "
                       "of range for the class count: got -1, want each in [0, 4)\n"), err
        assert steps == []
        assert (bad / "model.ckpt").read_bytes() == (out / "model.ckpt").read_bytes()

    @pytest.mark.parametrize("command, name, words", [
        ("train", "train.csv", "training"),
        ("train", "val_id.csv", "validation"),
        ("calibrate", "train.csv", "training"),
        ("eval", "test_id.csv", "test"),
    ])
    def test_outlier_row_in_a_labeled_split_names_its_line(self, pipeline, tmp_path, capsys,
                                                           command, name, words):
        # the split written as gen-data writes it, its sidecar too, with the
        # third row made an outlier: calibrate used to exit 0, and the other
        # stages named neither the file nor the row
        from patt_lab import data
        config, out = pipeline
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        rows = data.load_features_csv(bad / name, TINY["n_classes"])
        labels = rows.labels.copy()
        labels[2] = -1
        data.save_features_csv(data.LabeledSet(rows.inputs, labels, TINY["n_classes"]),
                               bad / name)
        assert (bad / name).read_text().splitlines()[3].split(",")[1] == "-1"
        before = {p.name: p.read_bytes() for p in bad.iterdir()}
        rc = cli.main([command, "--config", str(config), "--out", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1 and err == (f"error: bad dataset file {bad / name}: line 4: {words} label "
                                   "out of range for the class count: got -1, want each in "
                                   "[0, 4)\n"), err
        assert {p.name: p.read_bytes() for p in bad.iterdir()} == before

    @pytest.mark.parametrize("edit, words", [
        ("outlier-row", "validation label out of range for the class count: got -1, "
                        "want each in [0, 4)"),
        ("no-rows", "the validation split has no rows"),
    ])
    def test_bad_val_id_csv_fails_before_a_step(self, pipeline, tmp_path, capsys, monkeypatch,
                                                edit, words):
        # val_acc used to count an outlier row of the validation split as a
        # miss, and training ran to the end; a split of no rows printed numpy's
        # "Mean of empty slice" warning and blamed the step size
        from patt_lab import model as model_module
        _, out = pipeline
        bad = tmp_path / "bad"
        bad.mkdir()
        for name in ("train.csv", "train_ood.csv", "val_id.csv"):
            shutil.copyfile(out / name, bad / name)
        lines = (bad / "val_id.csv").read_text().splitlines(keepends=True)
        if edit == "outlier-row":
            row = lines[1].split(",")
            assert row[1] == "0"
            row[1] = "-1"
            lines[1] = ",".join(row)
        else:
            del lines[1:]
        (bad / "val_id.csv").write_text("".join(lines))
        steps = []
        step = model_module.train_step

        def counting(*args):
            steps.append(None)
            return step(*args)

        monkeypatch.setattr(model_module, "train_step", counting)
        config = write_config(tmp_path / "run.cfg")
        rc = cli.main(["train", "--config", str(config), "--out", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        # the reader refuses both, and names the file, and the row of an outlier
        line = ": line 2" if edit == "outlier-row" else ""
        assert err == f"error: bad dataset file {bad / 'val_id.csv'}{line}: {words}\n", err
        assert steps == []
        assert not (bad / "model.ckpt").exists() and not (bad / "history.csv").exists()

    def test_mixture_refused_at_save_is_one_error_line(self, pipeline, tmp_path, capsys,
                                                       monkeypatch):
        # the mixture's checks run where it is written: a refused mixture is a
        # failed training, one error line and no checkpoint
        from patt_lab import model as model_module
        config, out = pipeline
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        (bad / "model.ckpt").unlink()
        train = model_module.train

        def unnormed(*args):
            net, (mus, kappas, priors), history = train(*args)
            return net, (2.0 * mus, kappas, priors), history

        monkeypatch.setattr(model_module, "train", unnormed)
        rc = cli.main(["train", "--config", str(config), "--out", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert err.startswith("error: training failed: "), err
        assert not (bad / "model.ckpt").exists()

    def test_out_of_range_test_label_in_eval(self, pipeline, tmp_path, capsys):
        config, out = pipeline
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        lines = (bad / "test_id.csv").read_text().splitlines(keepends=True)
        row = lines[1].split(",")
        row[1] = "42"
        lines[1] = ",".join(row)
        (bad / "test_id.csv").write_text("".join(lines))
        rc = cli.main(["eval", "--config", str(config), "--out", str(bad)])
        assert_one_error_line(rc, capsys)

    @pytest.mark.parametrize("damage", REPORT_DAMAGES)
    def test_damaged_report_csv_in_report(self, pipeline, tmp_path, capsys, damage):
        # report used to recompute the accuracy split from scores.csv and
        # never read report.csv; it now copies the file's cells, checked
        config, out = pipeline
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        (bad / "report.csv").write_text(damaged_report(out / "report.csv", damage))
        before = {p.name: p.read_bytes() for p in bad.iterdir()}
        rc = cli.main(["report", "--config", str(config), "--out", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert err.startswith(f"error: bad report file {bad / 'report.csv'}: "), err
        assert {p.name: p.read_bytes() for p in bad.iterdir()} == before

    def test_report_copies_the_accuracy_split_of_eval(self, small_two_epochs, tmp_path):
        # the CLI defaults, eval at tail_fraction 1/3 and report at 0.5:
        # report used to recompute the split at its own fraction, and the
        # tail accuracy of its acc_table.csv disagreed with report.csv
        work = tmp_path / "out"
        shutil.copytree(small_two_epochs, work)
        config = tmp_path / "run.cfg"
        config.write_text("")
        run(config, work, "train", "eval")
        config.write_text("tail_fraction = 0.5\n")
        run(config, work, "report")
        header, row = (work / "report.csv").read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        lines = (work / "acc_table.csv").read_text().splitlines()
        assert lines == ["group,acc", f"overall,{cells['acc']}", f"head,{cells['acc_head']}",
                         f"tail,{cells['acc_tail']}"]
        # the split at 0.5 is another one, so the copy is what this checks
        _, (_, _, priors) = load_checkpoint(work / "model.ckpt")
        ids = [line.split(",") for line in (work / "scores.csv").read_text().splitlines()
               if line.startswith("id,")]
        labels, preds = [int(r[2]) for r in ids], [int(r[3]) for r in ids]
        assert report.classification_report(labels, preds, priors, 0.5)[2] != float(
            cells["acc_tail"])

    def test_zero_row_test_ood_in_eval(self, pipeline, tmp_path, capsys):
        # build_report's "non-empty" ValueError used to escape as a traceback
        config, out = pipeline
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        header = (bad / "test_ood.csv").read_text().splitlines()[0]
        (bad / "test_ood.csv").write_text(header + "\n")
        rc = cli.main(["eval", "--config", str(config), "--out", str(bad)])
        assert_one_error_line(rc, capsys)
        assert (bad / "scores.csv").read_bytes() == (out / "scores.csv").read_bytes()

    @pytest.mark.parametrize("command, name, split", [
        ("train", "val_id.csv", "validation"),
        ("eval", "test_id.csv", "test"),
        ("eval", "test_ood.csv", "OOD test"),
    ])
    def test_header_only_sized_split_names_its_file(self, pipeline, tmp_path, capsys, command,
                                                    name, split):
        # the config sizes these splits at one row or more; a header-only one
        # used to pass the reader and fail in the stage without naming the file
        config, out = pipeline
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        outputs = {"train": ("model.ckpt", "history.csv"), "eval": ("scores.csv", "report.csv")}
        for output in outputs[command]:
            (bad / output).unlink()
        (bad / name).write_text((out / name).read_text().splitlines()[0] + "\n")
        rc = cli.main([command, "--config", str(config), "--out", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1 and err == (f"error: bad dataset file {bad / name}: "
                                   f"the {split} split has no rows\n"), err
        assert not any((bad / output).exists() for output in outputs[command])

    @pytest.mark.parametrize("forked", [False, True], ids=["inline", "forks"])
    @pytest.mark.parametrize("name", ["train_ood.csv", "val_id.csv"])
    def test_split_of_another_width_names_its_file(self, pipeline, tmp_path, capsys, request,
                                                   name, forked):
        # a split narrower than train.csv used to fail in numpy's words, at
        # the first step once the helper had forked (train_ood.csv) or after
        # a whole epoch (val_id.csv), without naming the file
        config, out = pipeline
        pids = request.getfixturevalue("forks") if forked else None
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        for output in ("model.ckpt", "history.csv"):
            (bad / output).unlink()
        lines = (out / name).read_text().splitlines()
        (bad / name).write_text("".join(line.rsplit(",", 2)[0] + "\n" for line in lines))
        rc = cli.main(["train", "--config", str(config), "--out", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1 and err == (f"error: bad dataset file {bad / name}: "
                                   f"6 feature columns, want 8\n"), err
        assert not (bad / "model.ckpt").exists() and not (bad / "history.csv").exists()
        assert pids in (None, [])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_score_in_report(self, pipeline, tmp_path, capsys, value):
        # a NaN score used to drop out of hist.csv with exit 0
        config, out = pipeline
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        lines = (bad / "scores.csv").read_text().splitlines(keepends=True)
        lines[1] = lines[1].rsplit(",", 1)[0] + f",{value}\n"
        (bad / "scores.csv").write_text("".join(lines))
        rc = cli.main(["report", "--config", str(config), "--out", str(bad)])
        assert_one_error_line(rc, capsys)


class TestPriorsFromCheckpoint:
    def test_eval_and_report_do_not_read_train_csv(self, pipeline, tmp_path):
        config, out = pipeline
        bare = tmp_path / "bare"
        shutil.copytree(out, bare)
        (bare / "train.csv").unlink()
        run(config, bare, "eval", "report")
        for name in ("scores.csv", "report.csv", "hist.csv", "acc_table.csv"):
            assert (bare / name).read_bytes() == (out / name).read_bytes(), name


class TestClassCountAgreement:
    """``n_classes`` must agree with train.csv and with the checkpoint."""

    @pytest.mark.parametrize("command", ["train", "calibrate", "eval"])
    def test_more_classes_than_the_data(self, pipeline, tmp_path, capsys, command):
        # the 4-class run read with n_classes = 6: classes 4 and 5 have no
        # rows in train.csv, and the checkpoint holds 4 classes
        _, out = pipeline
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        config = write_config(tmp_path / "run.cfg", n_classes=6)
        rc = cli.main([command, "--config", str(config), "--out", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert err.startswith("error:") and "n_classes = 6" in err

    @pytest.mark.parametrize("command", ["calibrate", "eval"])
    def test_checkpoint_with_another_class_count(self, pipeline, tmp_path, capsys, command):
        # 5-class data next to the 4-class checkpoint
        _, out = pipeline
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        config = write_config(tmp_path / "run.cfg", n_classes=5)
        run(config, bad, "gen-data")
        capsys.readouterr()
        rc = cli.main([command, "--config", str(config), "--out", str(bad)])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert err == (f"error: bad checkpoint {bad / 'model.ckpt'}: "
                       "4 classes but n_classes = 5\n"), err


def test_cli_config_check_and_report_import_no_numpy(pipeline, tmp_path):
    config, out = pipeline
    work = tmp_path / "out"
    shutil.copytree(out, work)
    for name in ("hist.csv", "acc_table.csv"):
        (work / name).unlink()
    bad = write_config(tmp_path / "bad.cfg", tau="0.0")
    # no numpy, neither ``dataclasses`` nor the ``inspect`` it imports, no
    # model, the checkpoint's reader (report reads only what eval wrote), and
    # no argparse nor the ``gettext`` and ``locale`` that it loads
    code = (
        "import sys\n"
        "def check(when):\n"
        "    loaded = sorted({'numpy', 'dataclasses', 'inspect', 'patt_lab.model',\n"
        "                     'argparse', 'gettext', 'locale'} & set(sys.modules))\n"
        "    assert not loaded, (when, loaded)\n"
        "from patt_lab import cli\n"
        "check('import')\n"
        f"assert cli.main(['train', '--config', {str(bad)!r}]) == 1\n"
        "check('config error')\n"
        f"assert cli.main(['report', '--config', {str(config)!r}, '--out', {str(work)!r}]) == 0\n"
        "check('report')\n")
    done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith("error: bad config: tau") and done.stderr.count("\n") == 1
    for name in ("hist.csv", "acc_table.csv"):
        assert (work / name).read_bytes() == (out / name).read_bytes(), name


def test_report_words_a_bad_report_file_without_numpy(pipeline, tmp_path):
    # the one check of report.csv is plain Python: a refused file costs the
    # report stage no numpy. It used to read and check model.ckpt instead.
    config, out = pipeline
    work = tmp_path / "out"
    shutil.copytree(out, work)
    (work / "report.csv").write_text(damaged_report(out / "report.csv", "acc_tail=1.5"))
    code = (
        "import sys\n"
        "from patt_lab import cli\n"
        f"rc = cli.main(['report', '--config', {str(config)!r}, '--out', {str(work)!r}])\n"
        "print(rc, sorted({'numpy', 'patt_lab.model'} & set(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.stdout == "1 []\n", (done.stdout, done.stderr)
    assert done.stderr == (f"error: bad report file {work / 'report.csv'}: acc_tail = '1.5' "
                           f"is not a finite value in [0, 1]\n")


# modules a stage must not load, and the output file that shows it ran; no
# stage loads ``dataclasses``, nor ``argparse`` and the modules it loads
NOT_LOADED = {
    "gen-data": (("patt_lab.model", "patt_lab.losses", "patt_lab.calibration",
                  "patt_lab.metrics", "patt_lab.vmf", "patt_lab.report"), "train.csv"),
    "train": (("patt_lab.report", "patt_lab.calibration", "patt_lab.metrics"), "model.ckpt"),
    "calibrate": (("numpy.ma", "patt_lab.losses", "patt_lab.metrics", "patt_lab.report",
                   "patt_lab.vmf", "mmap"), "attention.csv"),
    "eval": (("patt_lab.losses", "patt_lab.vmf", "mmap", "hashlib"), "scores.csv"),
}


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_stage_loads_only_the_modules_it_runs(pipeline, tmp_path, command):
    config, out = pipeline
    work = tmp_path / "out"
    if command != "gen-data":
        shutil.copytree(out, work)
    unwanted, output = NOT_LOADED[command]
    unwanted += ("dataclasses", "argparse", "gettext", "locale")
    code = (
        "import sys\n"
        "from patt_lab import cli\n"
        f"assert cli.main([{command!r}, '--config', {str(config)!r}, '--out', {str(work)!r}]) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "patt_lab.stages" in loaded
    assert not loaded & set(unwanted), sorted(loaded & set(unwanted))
    assert (work / output).read_bytes() == (out / output).read_bytes()


@pytest.mark.parametrize("command", ["calibrate", "eval"])
def test_non_finite_checkpoint_parameter_names_the_file(pipeline, tmp_path, capsys, command):
    # calibrate and eval used to blame the weight or the scores
    config, out = pipeline
    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    ckpt = bad / "model.ckpt"
    blob = ckpt.read_bytes()
    (n_sizes,) = struct.unpack_from("<I", blob, 5)
    at = 5 + 4 * (n_sizes + 2)  # the first float64: a weight of the first layer
    ckpt.write_bytes(blob[:at] + struct.pack("<d", float("nan")) + blob[at + 8:])
    rc = cli.main([command, "--config", str(config), "--out", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == f"error: bad checkpoint {ckpt}: {ckpt}: non-finite parameter in checkpoint\n"


class TestOutputDirectory:
    """Only gen-data makes the output directory, once its data exists."""

    @pytest.mark.parametrize("command", ["train", "calibrate", "eval", "report"])
    def test_reading_stage_on_a_missing_directory(self, pipeline, tmp_path, capsys, command):
        config, _ = pipeline
        missing = tmp_path / "missing"
        rc = cli.main([command, "--config", str(config), "--out", str(missing)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: missing") and err.count("\n") == 1, err
        assert not missing.exists()

    def test_failed_generation(self, tmp_path, capsys):
        # 13 directions are within the circle's cap-packing bound of 14.05,
        # but the seeded placement jams after 10 classes: a failure only
        # the direction placement of gen-data finds
        config = write_config(tmp_path / "run.cfg", n_classes=11, feature_dim=2,
                              ood_train_clusters=1, ood_test_clusters=1)
        out = tmp_path / "out"
        rc = cli.main(["gen-data", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: data generation failed"), err
        assert "n_classes = 11" in err and "feature_dim = 2" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "calibrate", "eval", "report"])
    def test_empty_tail_is_a_bad_config_in_every_stage(self, tmp_path, capsys, command):
        # gen-data used to find this only inside data generation, with a
        # message that named no key, and train and report accepted it
        config = write_config(tmp_path / "run.cfg", imbalance_ratio=1000.0, max_per_class=20)
        out = tmp_path / "out"
        rc = cli.main([command, "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert err.startswith("error: bad config: imbalance_ratio = 1000.0 with "
                              "max_per_class = 20 empties the tail"), err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "calibrate", "eval", "report"])
    def test_empty_out_is_refused_up_front(self, pipeline, tmp_path, monkeypatch, capsys,
                                           command):
        # an empty --out used to get past the out_dir check: gen-data failed
        # on the empty path, and the other stages read their inputs from,
        # and wrote their outputs to, the current directory
        config, out = pipeline
        work = tmp_path / "work"
        shutil.copytree(out, work)
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        monkeypatch.chdir(work)
        rc = cli.main([command, "--config", str(config), "--out", ""])
        err = capsys.readouterr().err
        assert rc == 1 and err == "error: --out must be a path, got ''\n", err
        assert {p.name: p.read_bytes() for p in work.iterdir()} == before


class TestMissingInputNamesItsWriter:
    """A missing input file names the stage that writes it."""

    def test_every_stage_after_a_failed_generation(self, tmp_path, capsys):
        # the jammed placement of test_failed_generation: gen-data writes
        # nothing, and each later stage says which stage to run first
        config = write_config(tmp_path / "run.cfg", n_classes=11, feature_dim=2,
                              ood_train_clusters=1, ood_test_clusters=1)
        out = tmp_path / "out"
        rc = cli.main(["gen-data", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: data generation failed: could not place "), err
        ckpt = f"missing checkpoint: {out / 'model.ckpt'} (run train first)"
        for command, line in (
                ("train", f"missing dataset file: {out / 'train.csv'} (run gen-data first)"),
                ("calibrate", ckpt), ("eval", ckpt),
                ("report", f"missing report file: {out / 'report.csv'} (run eval first)")):
            rc = cli.main([command, "--config", str(config), "--out", str(out)])
            err = capsys.readouterr().err
            assert rc == 1 and err == f"error: {line}\n", (command, err)

    @pytest.mark.parametrize("command, name, what, writer", [
        ("eval", "attention.csv", "attention file", "calibrate"),
        ("report", "scores.csv", "scores file", "eval"),
        # report used to run without report.csv, recomputing its split
        ("report", "report.csv", "report file", "eval"),
    ])
    def test_attention_and_scores_files(self, pipeline, tmp_path, capsys, command, name, what,
                                        writer):
        config, out = pipeline
        on_config = write_config(tmp_path / "on.cfg", use_calibration="on")
        work = tmp_path / "out"
        shutil.copytree(out, work)
        (work / name).unlink()
        rc = cli.main([command, "--config", str(on_config), "--out", str(work)])
        err = capsys.readouterr().err
        assert rc == 1 and err == f"error: missing {what}: {work / name} (run {writer} first)\n", err


def raising(exc_type):
    def fail(*args, **kwargs):
        raise exc_type("injected")
    return fail


class TestFailureBoundaries:
    """An error raised in a stage's work, or by the reader of one of its input
    files, ends the stage in exit 1 with one ``error:`` line and no output
    written: ``stages.run`` words the first, ``cli._read`` the second. No
    other code of ``stages`` words an error."""

    # (stage, module, function, error raised by it, the stage's one line)
    INJECTED = [
        ("gen-data", "data", "gen_longtail", OverflowError, "data generation failed: injected"),
        ("gen-data", "data", "gen_longtail", MemoryError, "data generation failed: injected"),
        ("train", "model", "train", OverflowError, "training failed: injected"),
        ("train", "model", "train", RuntimeError, "training failed: injected (check the keys that "
         f"scale the step: {', '.join(cli._STEP_KEYS)})"),
        ("calibrate", "calibration", "attention_weight", MemoryError,
         "calibration failed: injected"),
        ("calibrate", "calibration", "attention_weight", OverflowError,
         "calibration failed: injected"),
        ("eval", "metrics", "build_report", MemoryError, "evaluation failed: injected"),
        ("eval", "metrics", "build_report", RuntimeError, "evaluation failed: injected"),
        ("calibrate", "model", "load_checkpoint", MemoryError,
         "bad checkpoint {out}/model.ckpt: injected"),
        ("report", "report", "read_report", MemoryError,
         "bad report file {out}/report.csv: injected"),
        ("eval", "calibration", "load_attention", MemoryError,
         "bad attention file {out}/attention.csv: injected"),
    ]

    @pytest.mark.parametrize("command, module, name, exc_type, line", INJECTED,
                             ids=[f"{c}-{m}.{n}-{e.__name__}" for c, m, n, e, _ in INJECTED])
    def test_injected_error_is_one_line(self, pipeline, tmp_path, capsys, monkeypatch, command,
                                        module, name, exc_type, line):
        config, out = pipeline
        work = tmp_path / "out"
        shutil.copytree(out, work)
        before = {p.name: p.read_bytes() for p in work.iterdir()}
        monkeypatch.setattr(importlib.import_module(f"patt_lab.{module}"), name,
                            raising(exc_type))
        rc = cli.main([command, "--config", str(config), "--out", str(work)])
        err = capsys.readouterr().err
        assert rc == 1 and err == f"error: {line.format(out=work)}\n", err
        assert {p.name: p.read_bytes() for p in work.iterdir()} == before

    def test_only_run_words_an_error(self):
        # the top-level definitions of stages.py that raise CliError, and the
        # cmd_* functions that catch an error
        tree = ast.parse((SRC / "patt_lab" / "stages.py").read_text(encoding="utf-8"))
        tops = [(getattr(top, "name", ""), top) for top in tree.body]
        raising = {name for name, top in tops for node in ast.walk(top)
                   if isinstance(node, ast.Raise) and node.exc is not None
                   and "CliError" in ast.unparse(node.exc)}
        catching = {name for name, top in tops if name.startswith("cmd_")
                    for node in ast.walk(top) if isinstance(node, ast.ExceptHandler)}
        assert (raising, catching) == ({"run"}, set())


@pytest.fixture(scope="module")
def small_two_epochs(tmp_path_factory):
    # the CLI defaults (the `small` data) trained for two epochs
    root = tmp_path_factory.mktemp("small2")
    config = root / "run.cfg"
    config.write_text("epochs = 2\n")
    run(config, root / "out", "gen-data")
    return root / "out"


class TestOverflowingStep:
    """A finite config value that overflows the training step ends in one
    ``error: training failed`` line naming the keys that scale the step,
    with no numpy warning printed first."""

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "1e300"),  # used to fail as "features must be unit norm"
        ("tau", "1e-320"),           # used to fail as "argument must be finite"
        ("alpha", "1e308"),          # used to exit 0 after numpy warnings
        ("epsilon", "1e-300"),       # used to exit 0 after numpy warnings
    ])
    def test_overflow_is_one_error_line(self, small_two_epochs, tmp_path, capsys, key, value):
        config = tmp_path / "run.cfg"
        config.write_text(f"epochs = 2\n{key} = {value}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["train", "--config", str(config), "--out", str(small_two_epochs)])
        assert not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert err.startswith("error: training failed: overflow encountered in"), err
        for name in cli._STEP_KEYS:
            assert name in err


class TestOutlierHelperProcess:
    """``train`` runs the outlier stream in a forked helper process, which
    changes nothing a caller of ``cli.main`` sees."""

    def test_overflowing_outlier_split_is_the_inline_error_line(self, pipeline, tmp_path,
                                                                 capsys, monkeypatch, forks):
        # every outlier value overflows the first layer in the helper; with
        # its sidecar removed, the CSV is what train reads
        config, out = pipeline
        bad = tmp_path / "bad"
        bad.mkdir()
        for name in ("train.csv", "val_id.csv"):
            shutil.copyfile(out / name, bad / name)
        lines = (out / "train_ood.csv").read_text().splitlines(keepends=True)
        (bad / "train_ood.csv").write_text(lines[0] + "".join(
            ",".join(line.split(",")[:2] + ["1.7e308"] * (line.count(",") - 1)) + "\n"
            for line in lines[1:]))
        errs = []
        for inline in (False, True):
            if inline:
                monkeypatch.delattr(os, "fork")
            rc = cli.main(["train", "--config", str(config), "--out", str(bad)])
            errs.append(capsys.readouterr().err)
            assert rc == 1 and errs[-1].count("\n") == 1, errs[-1]
        assert len(forks) == 1
        assert errs[0] == errs[1]
        assert errs[0].startswith("error: training failed: overflow encountered in "), errs[0]
        assert not (bad / "model.ckpt").exists()

    def test_a_finally_around_main_runs_once(self, pipeline, tmp_path, forks):
        # the helper ends in os._exit: it never unwinds through its caller's
        # finally (bench/trace_stage.py writes its spans in one)
        config, out = pipeline
        work = tmp_path / "out"
        shutil.copytree(out, work)
        log = tmp_path / "finally.log"
        try:
            rc = cli.main(["train", "--config", str(config), "--out", str(work)])
        finally:
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
        assert rc == 0 and len(forks) == 1
        assert log.read_text() == f"{os.getpid()}\n"
        assert (work / "model.ckpt").read_bytes() == (out / "model.ckpt").read_bytes()

    def test_one_cpu_train_compiles_no_helper(self, pipeline, tmp_path):
        # the fork rule is asked before the helper's mmap is made: a train
        # that may run on one CPU does not load mmap, and keeps its bits
        config, out = pipeline
        work = tmp_path / "out"
        shutil.copytree(out, work)
        (work / "model.ckpt").unlink()
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0}\n"
            "from patt_lab import cli\n"
            f"rc = cli.main(['train', '--config', {str(config)!r}, '--out', {str(work)!r}])\n"
            "print(rc, sorted({'mmap'} & set(sys.modules)))\n")
        done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.stdout == "0 []\n", (done.stdout, done.stderr)
        assert (work / "model.ckpt").read_bytes() == (out / "model.ckpt").read_bytes()

    def test_two_cpu_train_compiles_losses_once(self, pipeline, tmp_path):
        # losses is imported before the helper forks, so the helper does not
        # compile it again on its first stream
        config, out = pipeline
        work = tmp_path / "out"
        shutil.copytree(out, work)
        (work / "model.ckpt").unlink()
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from patt_lab import cli\n"
            f"rc = cli.main(['train', '--config', {str(config)!r}, '--out', {str(work)!r}])\n"
            "print(rc, sorted({'mmap'} & set(sys.modules)))\n")
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.stdout == "0 ['mmap']\n", (done.stdout, done.stderr)
        imports = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
        assert imports.count("patt_lab.losses") == 1, done.stderr
        assert (work / "model.ckpt").read_bytes() == (out / "model.ckpt").read_bytes()


class TestSplitWriterProcess:
    """``gen-data`` writes the leading splits in a forked child while the
    stage writes the others, which changes nothing a caller of ``cli.main``
    sees."""

    def test_forked_and_inline_runs_write_the_same_bytes(self, tmp_path, monkeypatch, forks):
        config = write_config(tmp_path / "run.cfg")
        for name in ("forked", "inline"):
            if name == "inline":
                monkeypatch.delattr(os, "fork")
            run(config, tmp_path / name, "gen-data")
        assert len(forks) == 1
        names = sorted(os.listdir(tmp_path / "forked"))
        assert len(names) == 11 and names == sorted(os.listdir(tmp_path / "inline"))
        for name in names:
            forked, inline = ((tmp_path / run_dir / name).read_bytes()
                              for run_dir in ("forked", "inline"))
            assert forked == inline, name

    def test_forked_and_inline_runs_issue_the_same_warnings(self, tmp_path, monkeypatch, forks):
        # a warning from each split's writer: the child's are issued in this
        # process, in the order of an inline run
        from patt_lab import data
        save, caught = data.save_features_csv, []

        def warning(split, path):
            warnings.warn(f"writing {os.path.basename(path)}", UserWarning)
            return save(split, path)

        monkeypatch.setattr(data, "save_features_csv", warning)
        config = write_config(tmp_path / "run.cfg")
        for name in ("forked", "inline"):
            if name == "inline":
                monkeypatch.delattr(os, "fork")
            with warnings.catch_warnings(record=True) as got:
                warnings.simplefilter("always")
                run(config, tmp_path / name, "gen-data")
            caught.append([(w.category, str(w.message), w.filename, w.lineno) for w in got])
        assert len(forks) == 1
        assert caught[0] == caught[1] and len(caught[0]) == 5, caught

    @pytest.mark.parametrize("broken", [("train.csv",), ("val_id.csv", "test_ood.csv")])
    def test_a_failed_split_is_the_inline_error_line(self, tmp_path, capsys, monkeypatch,
                                                      forks, broken):
        # a directory in a split's place fails its open: the child's split
        # first, and with a second failure in the stage's own splits, the
        # child's error is still the one raised, as inline
        config = write_config(tmp_path / "run.cfg")
        out = tmp_path / "out"
        for name in broken:
            (out / name).mkdir(parents=True)
        errs = []
        for inline in (False, True):
            if inline:
                monkeypatch.delattr(os, "fork")
            rc = cli.main(["gen-data", "--config", str(config), "--out", str(out)])
            errs.append(capsys.readouterr().err)
            assert rc == 1 and errs[-1].count("\n") == 1, errs[-1]
            assert not (out / "manifest.txt").exists()
            forks.assert_no_child_left()
        assert len(forks) == 1
        assert errs[0] == errs[1] == f"error: [Errno 21] Is a directory: '{out / broken[0]}'\n"

    def test_a_finally_around_main_runs_once(self, tmp_path, forks):
        # the writer ends in os._exit: it never unwinds through its caller's
        # finally
        config = write_config(tmp_path / "run.cfg")
        log = tmp_path / "finally.log"
        try:
            rc = cli.main(["gen-data", "--config", str(config), "--out", str(tmp_path / "out")])
        finally:
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
        assert rc == 0 and len(forks) == 1
        assert log.read_text() == f"{os.getpid()}\n"
        assert (tmp_path / "out" / "manifest.txt").exists()


@pytest.mark.parametrize("command, output, line", [
    ("gen-data", "manifest.txt", "data generation failed: the split writer process ended"),
    ("train", "model.ckpt", "training failed: the outlier stream's helper process ended"),
], ids=["gen-data", "train"])
def test_a_dead_helper_is_one_error_line(pipeline, tmp_path, capsys, monkeypatch, forks,
                                         command, output, line):
    # the child is killed before the hand-off, so start meets a broken pipe,
    # or after it, so join meets the end of the reply pipe; waitid with
    # WNOWAIT waits for the death and leaves the reaping to close
    from patt_lab.util import Beside
    config, out = pipeline
    start, errs = Beside.start, []

    def dead(self):
        os.kill(self.pid, signal.SIGKILL)
        os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)

    def killed_before(self, *args):
        dead(self)
        return start(self, *args)

    def killed_after(self, *args):
        os.kill(self.pid, signal.SIGSTOP)
        join = start(self, *args)
        dead(self)
        return join

    for i, kill in enumerate((killed_before, killed_after)):
        work = tmp_path / str(i)
        shutil.copytree(out, work)
        (work / output).unlink()
        monkeypatch.setattr(Beside, "start", kill)
        rc = cli.main([command, "--config", str(config), "--out", str(work)])
        errs.append(capsys.readouterr().err)
        assert rc == 1 and errs[-1].count("\n") == 1, errs[-1]
        assert not (work / output).exists()
        forks.assert_no_child_left()
    assert len(forks) == 2
    assert errs[0] == errs[1] == f"error: {line}\n"


# the real CPU mask of a pid (0: this process), read past the two_cpus
# fixture's report; where the call is missing, no mask can change
REAL_MASK = getattr(os, "sched_getaffinity", lambda pid: {0})
# this process's mask when the tests were collected: each util.Beside gives
# it back on close, so every later run starts from it
START_MASK = REAL_MASK(0)

# what each stage with a util.Beside child writes (each split with its sidecar)
STAGE_WRITES = {
    "gen-data": tuple(f"{name}{ext}" for name in ALL_OUTPUTS[:5] for ext in ("", ".bin"))
    + ("manifest.txt",),
    "train": ("model.ckpt", "history.csv"),
}


def fresh_copy(pipeline, work, command):
    """Make ``work`` a copy of the pipeline's outputs without the files that
    ``command`` writes; returns the arguments that run it there."""
    config, out = pipeline
    shutil.copytree(out, work)
    for name in STAGE_WRITES[command]:
        (work / name).unlink()
    return [command, "--config", str(config), "--out", str(work)]


class TestPinnedApart:
    """The ``util.Beside`` child runs on the last CPU of this process's mask
    and this process on the others: unpinned, a pipe write wakes its reader
    on the writer's CPU, and the two take turns on one."""

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    def test_the_child_and_this_process_are_pinned_apart(self, pipeline, tmp_path,
                                                        monkeypatch, forks, command):
        # both masks are read at each join, while the child lives: it has
        # served a call by then, so it has made its pin. Where the real mask
        # has one CPU, the pin is refused and both keep that mask
        from patt_lab.util import Beside
        masks, join = [], Beside.join

        def reading(self):
            result = join(self)
            masks.append((REAL_MASK(self.pid), REAL_MASK(0)))
            return result

        monkeypatch.setattr(Beside, "join", reading)
        assert cli.main(fresh_copy(pipeline, tmp_path / "out", command)) == 0
        assert len(forks) == 1 and masks
        last = {max(START_MASK)}
        want = ((last, START_MASK - last) if len(START_MASK) > 1
                else (START_MASK, START_MASK))
        assert all(got == want for got in masks), (masks, START_MASK)
        assert REAL_MASK(0) == START_MASK

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    @pytest.mark.parametrize("path", ["passes", "fails", "dead child", "fork fails",
                                      "fork warns"])
    def test_the_mask_comes_back_on_every_path(self, pipeline, tmp_path, monkeypatch, forks,
                                               warning_fork, command, path):
        # a stage that fails: the labeled stream raises in train, and a
        # directory in place of a split this process writes fails gen-data;
        # a dead child is killed before the first hand-off
        from patt_lab import losses
        from patt_lab.util import Beside
        start = Beside.start
        argv = fresh_copy(pipeline, tmp_path / "out", command)

        def failing(*args):
            raise FloatingPointError("the labeled stream fails")

        def killed_before(self, *args):
            os.kill(self.pid, signal.SIGKILL)
            os.waitid(os.P_PID, self.pid, os.WEXITED | os.WNOWAIT)
            return start(self, *args)

        def failing_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        if path == "fails" and command == "train":
            monkeypatch.setattr(losses, "tla_loss_batch", failing)
        elif path == "fails":
            (tmp_path / "out" / "test_ood.csv").mkdir()
        elif path == "dead child":
            monkeypatch.setattr(Beside, "start", killed_before)
        elif path == "fork fails":
            monkeypatch.setattr(os, "fork", failing_fork)
        elif path == "fork warns":
            warning_fork()
        with (pytest.warns(DeprecationWarning, match="multi-threaded")
              if path == "fork warns" else contextlib.nullcontext()):
            rc = cli.main(argv)
        assert rc == (1 if path in ("fails", "dead child") else 0)
        assert len(forks) == (0 if path == "fork fails" else 1)
        assert REAL_MASK(0) == START_MASK

    @pytest.mark.parametrize("command", ["gen-data", "train"])
    @pytest.mark.parametrize("refused", ["OSError", "missing"])
    def test_the_pin_is_best_effort(self, pipeline, tmp_path, capsys, monkeypatch, forks,
                                    command, refused):
        # a refused pin (a one-CPU machine under the two_cpus fixture gives
        # OSError 22), or no os.sched_setaffinity: the child still works
        # beside this process, and every bit is kept
        def einval(pid, cpus):
            raise OSError(22, "Invalid argument")

        if refused == "OSError":
            monkeypatch.setattr(os, "sched_setaffinity", einval)
        else:
            monkeypatch.delattr(os, "sched_setaffinity")
        assert cli.main(fresh_copy(pipeline, tmp_path / "out", command)) == 0
        assert "error:" not in capsys.readouterr().err
        assert len(forks) == 1
        forks.assert_no_child_left()
        for name in STAGE_WRITES[command]:
            assert (tmp_path / "out" / name).read_bytes() == (pipeline[1] / name).read_bytes()


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def test_array_path_is_the_stages_path(pipeline, tmp_path):
    # fit_attention and predict_and_score, called with what the calibrate and
    # eval stages read, give back the bytes those stages wrote
    from patt_lab import calibration, data
    from patt_lab.util import derive_seed
    config, out = pipeline
    cfg = cli.load_config(config)
    net, (_, _, priors) = load_checkpoint(out / "model.ckpt")
    splits = {name: data.load_features_csv(out / f"{name}.csv", cfg["n_classes"])
              for name in ("train", "train_ood", "test_id", "test_ood")}
    per_class = cfg["per_class"] or int(splits["train"].class_counts.min())
    raw = calibration.fit_attention(net, splits["train"], splits["train_ood"], priors,
                                    per_class, derive_seed(cfg["seed"], "calibration-subset"))
    calibration.save_attention(tmp_path / "attention.csv", raw)
    assert (tmp_path / "attention.csv").read_bytes() == (out / "attention.csv").read_bytes()
    weight = calibration.load_attention(out / "attention.csv")
    cells = []
    for name in ("test_id", "test_ood"):
        pred, scores = calibration.predict_and_score(net, splits[name].inputs, weight,
                                                     cfg["score"])
        cells += [[str(p), repr(s)] for p, s in zip(pred.tolist(), scores.tolist())]
    rows = (out / "scores.csv").read_text(encoding="ascii").splitlines()[1:]
    assert cells == [row.split(",")[3:] for row in rows]


def test_readme_library_block_runs():
    # the ``## Library`` example, run as written
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(code, f"{README}:Library", "exec"), names)
    assert len(names["history"]) == 30
    assert names["scores"].shape == (names["test_id"].inputs.shape[0],)
    assert np.isfinite(names["scores"]).all()
    assert 0.0 <= names["auroc"] <= 1.0 and 0.0 <= names["fpr95"] <= 1.0


def test_readme_parts_table_names_real_code():
    # "The paper's four parts": | part | functions | config keys | tests |,
    # each cell a list of `...` names
    section = README.read_text(encoding="utf-8").split("\n## The paper's four parts\n", 1)[1]
    rows = [[re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[2:5]]
            for line in section.split("\n## ", 1)[0].splitlines()
            if line.startswith("|") and "`" in line]
    assert len(rows) == 4
    for functions, keys, tests in rows:
        assert functions and keys and tests
        for name in functions:
            module, attr = name.split(".")
            assert callable(getattr(importlib.import_module(f"patt_lab.{module}"), attr)), name
        assert set(keys) <= set(cli.DEFAULTS), keys
        for test_id in tests:
            path, *names = test_id.split("::")
            body = ast.parse((SRC.parent / "tests" / path).read_text(encoding="utf-8")).body
            for name in names:
                body = next((node.body for node in body if isinstance(
                    node, (ast.ClassDef, ast.FunctionDef)) and node.name == name), None)
                assert body is not None, test_id


def test_readme_module_map_names_every_module():
    # the module map's "- `patt_lab.<name>`" entries and the package's
    # modules: a module added or deleted cannot leave the README behind
    listed = re.findall(r"^- `patt_lab\.(\w+)`", README.read_text(encoding="utf-8"), re.M)
    modules = sorted(p.stem for p in (SRC / "patt_lab").glob("*.py") if p.stem != "__init__")
    assert sorted(listed) == modules


def test_module_entry_point_runs_the_command(tmp_path):
    # `python -m patt_lab.cli` used to exit 0 without running anything
    done = subprocess.run(
        [sys.executable, "-m", "patt_lab.cli", "train", "--config", str(tmp_path / "nope.cfg")],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("error: missing config file") and done.stderr.count("\n") == 1


def test_module_entry_point_words_a_stage_error(tmp_path):
    # a numpy stage raises the error class of the package's `cli`, which
    # `python -m` would otherwise load a second time beside `__main__`
    config = tmp_path / "empty.cfg"
    config.write_text("")
    done = subprocess.run(
        [sys.executable, "-m", "patt_lab.cli", "eval", "--config", str(config),
         "--out", str(tmp_path / "out")],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("error: missing checkpoint") and done.stderr.count("\n") == 1, \
        done.stderr


def command_line(how, argv):
    """``(exit code, stdout, stderr)`` of the command line ``argv``, run by
    ``cli.main`` in this process or by ``python -m patt_lab.cli``, whose
    ``entry`` parses ``sys.argv``."""
    if how == "main":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()
    done = subprocess.run([sys.executable, "-m", "patt_lab.cli", *argv], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


class TestCommandLine:
    """The grammar ``COMMAND --config FILE [--out DIR] [--seed N]``: options
    in any order, spaced or joined by ``=``; a usage error is exit 2 and one
    ``error:`` line."""

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_the_usage_without_numpy(self, flag):
        code = ("import sys\n"
                "from patt_lab import cli\n"
                f"rc = cli.main(['gen-data', {flag!r}])\n"
                "print(rc, sorted({'numpy', 'argparse'} & set(sys.modules)))\n")
        done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert (done.stdout, done.stderr) == (cli.USAGE + "0 []\n", "")
        assert cli.USAGE.startswith("usage: patt-lab {gen-data,train,calibrate,eval,report} "
                                    "--config FILE [--out DIR] [--seed N]\n")
        # the module entry point, with the interpreter listing what it imports
        done = subprocess.run([sys.executable, "-X", "importtime", "-m", "patt_lab.cli", flag],
                              env=src_env(), capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (0, cli.USAGE), done.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
        assert "patt_lab.cli" in imported and not imported & {"numpy", "argparse"}

    @pytest.mark.parametrize("how", ["main", "module"])
    @pytest.mark.parametrize("argv", [
        [],
        ["--config", "{cfg}", "--out", "{out}"],
        ["gen", "--config", "{cfg}", "--out", "{out}"],
        ["gen-data", "train", "--config", "{cfg}", "--out", "{out}"],
        ["gen-data", "--conf", "{cfg}", "--out", "{out}"],
        ["gen-data", "--config", "{cfg}", "--out", "{out}", "--verbose"],
        ["gen-data", "-c", "{cfg}", "--out", "{out}"],
        ["gen-data", "--out", "{out}", "--config"],
        ["gen-data", "--config", "{cfg}", "--out", "{out}", "--seed", "1.5"],
        ["gen-data", "--config", "{cfg}", "--out", "{out}", "--seed="],
        ["gen-data", "--out", "{out}"],
    ], ids=["nothing", "no-command", "unknown-command", "two-commands", "abbreviated",
            "unknown-option", "short-option", "no-value", "float-seed", "empty-seed",
            "no-config"])
    def test_usage_error_is_exit_2_and_one_line(self, tmp_path, monkeypatch, how, argv):
        config = write_config(tmp_path / "run.cfg")
        monkeypatch.chdir(tmp_path)  # the config's out_dir is relative
        argv = [arg.format(cfg=config, out=tmp_path / "out") for arg in argv]
        rc, out, err = command_line(how, argv)
        assert (rc, out) == (2, ""), err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and err.endswith(" (see patt-lab --help)\n"), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("how", ["main", "module"])
    def test_option_forms_and_order_give_the_same_outputs(self, tmp_path, how):
        config = write_config(tmp_path / "run.cfg")
        forms = {
            "spaced": ["gen-data", "--config", "{cfg}", "--out", "{out}", "--seed", "3"],
            "joined": ["gen-data", "--config={cfg}", "--out={out}", "--seed=3"],
            "options-first": ["--seed", "3", "--out", "{out}", "--config", "{cfg}", "gen-data"],
            "repeated": ["gen-data", "--seed", "1", "--config", "{cfg}", "--seed", "3",
                         "--out", "{cfg}", "--out", "{out}"],
        }
        for form, argv in forms.items():
            argv = [arg.format(cfg=config, out=tmp_path / form) for arg in argv]
            assert command_line(how, argv) == (0, "", ""), form
        reference = tmp_path / "reference"
        run(write_config(tmp_path / "seed3.cfg", seed=3), reference, "gen-data")
        files = sorted(p.name for p in reference.iterdir())
        for form in forms:
            assert sorted(p.name for p in (tmp_path / form).iterdir()) == files, form
            for name in files:
                assert (tmp_path / form / name).read_bytes() == (reference / name).read_bytes()


class FlushedText(io.StringIO):
    """A text stream that keeps what it held at its last ``flush``."""

    flushed = ""

    def flush(self):
        self.flushed = self.getvalue()


class TestExitFreeze:
    """``entry`` flushes both streams once ``main`` returns and ends the
    process in ``os._exit``, so no interpreter teardown runs (the exit-time
    collection over the objects numpy and the package leave alive); ``main``
    itself changes nothing, so in-process callers keep a normal collector."""

    @pytest.fixture
    def unfrozen(self):
        assert gc.get_freeze_count() == 0
        yield
        gc.unfreeze()

    def test_main_leaves_the_collector_unfrozen(self, pipeline, tmp_path, unfrozen):
        config, out = pipeline
        work = tmp_path / "out"
        shutil.copytree(out, work)
        run(config, work, "calibrate")
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("command, code", [("calibrate", 0), ("eval", 1)])
    def test_entry_flushes_and_exits_with_the_code_of_main(self, pipeline, tmp_path,
                                                           monkeypatch, command, code):
        # eval fails on the missing directory, calibrate passes on a copy;
        # os._exit records its code and what each stream had flushed by then
        config, out = pipeline
        work = tmp_path / "out"
        if code == 0:
            shutil.copytree(out, work)
        stdout, stderr, exits = FlushedText(), FlushedText(), []
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", stderr)
        monkeypatch.setattr(os, "_exit", lambda n: exits.append((n, stdout.flushed,
                                                                 stderr.flushed)))
        monkeypatch.setattr(sys, "argv", ["patt-lab", command, "--config", str(config),
                                          "--out", str(work)])
        cli.entry()
        err = stderr.getvalue()
        assert exits == [(code, "", err)]
        assert err.count("error:") == err.count("\n") == code, err
        if code == 0:
            assert (work / "attention.csv").read_bytes() == (out / "attention.csv").read_bytes()


def unmanaged_opens(tree) -> list:
    """Line numbers of the calls to ``open`` that are not the context
    expression of a ``with`` item."""
    managed = {id(item.context_expr) for node in ast.walk(tree)
               if isinstance(node, (ast.With, ast.AsyncWith)) for item in node.items}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "open" and id(node) not in managed)


@pytest.mark.parametrize("path", sorted((SRC / "patt_lab").glob("*.py")), ids=lambda p: p.name)
def test_every_open_is_a_with_item(path):
    # `entry` ends the process in os._exit, which flushes and closes no file
    # object: one still open when main returns would lose its buffered
    # bytes. A `with` closes each before main returns.
    lines = unmanaged_opens(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not lines, f"{path.name}: open() outside a with at lines {lines}"


def process_calls(tree) -> list:
    """``(name, top-level definition)`` of each use of ``os.fork``,
    ``os.pipe`` and ``os._exit``, the name of the definition None outside
    one."""
    return [(node.attr, getattr(top, "name", None)) for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "os" and node.attr in ("fork", "pipe", "_exit")]


def test_every_child_is_a_beside():
    # util.Beside is the one forked child of the package: it alone forks
    # and opens pipes, and its child and cli.entry alone end the process
    found = {(path.name, *use) for path in (SRC / "patt_lab").glob("*.py")
             for use in process_calls(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {("util.py", "fork", "Beside"), ("util.py", "pipe", "Beside"),
                     ("util.py", "_exit", "Beside"), ("cli.py", "_exit", "entry")}


def numpy_imports(tree) -> list:
    """Line numbers of the import statements that load numpy, also one
    inside a function."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Import)
                  and any(alias.name.split(".")[0] == "numpy" for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "numpy")


@pytest.mark.parametrize("name", ["config.py", "report.py", "cli.py"])
def test_numpy_free_module_imports_no_numpy(name):
    # the report stage and a config check load these modules alone
    path = SRC / "patt_lab" / name
    lines = numpy_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not lines, f"{name}: numpy imported at lines {lines}"


def test_numpy_check_sees_a_lazy_import():
    tree = ast.parse("import os, numpy.linalg\ndef f():\n    import numpy as np\n"
                     "    from numpy import errstate\n    from .numpy import x\n")
    assert numpy_imports(tree) == [1, 3, 4]


def test_open_check_sees_an_unmanaged_open():
    tree = ast.parse("with open(a) as f, open(b) as g:\n    pass\n"
                     "fh = open(c)\nwith wrap(open(d)):\n    pass\n")
    assert unmanaged_opens(tree) == [3, 4]


FUZZ = {
    "seed": 0, "n_classes": 3, "feature_dim": 4, "imbalance_ratio": 4.0,
    "max_per_class": 24, "val_per_class": 4, "test_per_class": 4,
    "ood_train_size": 16, "ood_test_size": 12, "ood_test_clusters": 2,
    "epochs": 1, "batch_size": 16, "ood_batch_size": 8, "encoder_widths": "6",
}

TINIEST = 5e-324
HUGE = 1.7976931348623157e308


def step_value(low, high, extremes):
    # a listed extreme (boundaries, subnormals, overflow-sized, one invalid
    # value) or an ordinary float from the key's valid range
    return st.one_of(st.sampled_from(extremes),
                     st.floats(low, high, exclude_max=high < HUGE))


WEIGHT = step_value(0.0, HUGE, [0.0, TINIEST, 1e-300, 0.1, 0.5, 1.0, 1e12,
                                1e150, 1e300, HUGE, -1e-300])
POSITIVE = step_value(TINIEST, HUGE, [TINIEST, 1e-320, 1e-300, 1e-12, 0.1, 0.7,
                                      1.0, 1e12, 1e300, HUGE, 0.0])
STEP_KEYS = {
    "learning_rate": WEIGHT, "alpha": WEIGHT, "beta": WEIGHT, "oe_gamma": WEIGHT,
    "epsilon": POSITIVE, "tau": POSITIVE,
    "vmf_momentum": step_value(0.0, 1.0, [0.0, TINIEST, 0.5, 0.9, 0.9999999999999999, 1.0]),
    "sgd_momentum": step_value(0.0, 1.0, [0.0, 0.9, 1.0, 2.0, 1e12, 1e300, -1.0]),
}


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    config = write_config(root / "data.cfg", **FUZZ)
    run(config, root / "out", "gen-data")
    return root


def main_quietly(argv):
    # (exit code, stderr text, warnings raised), with stderr captured per call
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = cli.main(argv)
    return rc, err.getvalue(), [str(w.message) for w in caught]


class TestCliContractFuzz:
    """Every drawn value of the keys that scale a training step ends in exit 0
    with nothing on stderr, or exit 1 with exactly one ``error:`` line."""

    @settings(max_examples=40, deadline=None)
    @given(values=st.fixed_dictionaries(STEP_KEYS),
           method=st.sampled_from(["patt", "oe-baseline", "ce-baseline"]),
           optimizer=st.sampled_from(["adam", "sgd"]))
    def test_train_and_later_stages(self, fuzz_data, values, method, optimizer):
        config = fuzz_data / "run.cfg"
        items = dict(FUZZ, method=method, optimizer=optimizer,
                     **{k: repr(v) for k, v in values.items()})
        config.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))
        for command in ("train", "calibrate", "eval", "report"):
            rc, err, caught = main_quietly(
                [command, "--config", str(config), "--out", str(fuzz_data / "out")])
            assert not caught, (command, caught)
            if rc != 0:
                assert rc == 1 and err.startswith("error:") and err.count("\n") == 1, err
                break
            assert err == "", (command, err)


# the files train, calibrate, eval and report read, and the stages that read each
READERS = {
    "model.ckpt": ("calibrate", "eval"),
    "train.csv": ("train", "calibrate"),
    "train_ood.csv": ("train", "calibrate"),
    "val_id.csv": ("train",),
    "test_id.csv": ("eval",),
    "test_ood.csv": ("eval",),
    "attention.csv": ("eval",),
    "scores.csv": ("report",),
    "report.csv": ("report",),
}
CELLS = [b"-1", b"0", b"3", b"42", b"-7", b"", b"x", b"1.5", b"nan", b"inf", b"-inf",
         b"1e309", b"\xff"]
BINARY_CELLS = [float("nan"), float("inf"), -1.0, 0.0, 1e308, 5e-324]


def corrupt(blob, kind, a, b, cell, number):
    """``blob`` truncated, with rows deleted, or with one comma-separated
    cell replaced by ``cell`` (for the binary checkpoint: one float64
    overwritten by ``number``); ``a`` and ``b`` pick the place."""
    if kind == "truncate":
        return blob[:a % len(blob)]
    if kind == "relabel" and not blob.isascii():
        at = a % (len(blob) - 7)
        return blob[:at] + struct.pack("<d", number) + blob[at + 8:]
    lines = blob.split(b"\n")
    row = a % len(lines)
    if kind == "delete":
        return b"\n".join(lines[:row] + lines[row + 1 + b % (len(lines) - row):])
    cells = lines[row].split(b",")
    cells[b % len(cells)] = cell
    return b"\n".join(lines[:row] + [b",".join(cells)] + lines[row + 1:])


class TestCorruptedInputFuzz:
    """A truncated, shortened or relabelled input file ends every stage that
    reads it in exit 0 with nothing on stderr, or exit 1 with exactly one
    ``error:`` line."""

    def test_attention_file_of_another_width_names_the_file(self, pipeline, tmp_path, capsys):
        # the width is checked where the file is read, so the error names it
        config, out = pipeline
        work = tmp_path / "out"
        shutil.copytree(out, work)
        path = work / "attention.csv"
        path.write_text("0.5,1.5,0.0,2.0\n")
        rc = cli.main(["eval", "--config", str(config), "--out", str(work)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == (f"error: bad attention file {path}: 2 channel weights for 4 "
                       f"feature channels\n")

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(sorted(READERS)),
           kind=st.sampled_from(["truncate", "delete", "relabel"]),
           a=st.integers(0, 2 ** 20), b=st.integers(0, 2 ** 20),
           cell=st.sampled_from(CELLS), number=st.sampled_from(BINARY_CELLS))
    def test_stages_reading_the_file(self, pipeline, name, kind, a, b, cell, number):
        config, out = pipeline
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp) / "out"
            shutil.copytree(out, work)
            (work / name).write_bytes(corrupt((out / name).read_bytes(), kind, a, b, cell, number))
            for command in READERS[name]:
                rc, err, caught = main_quietly(
                    [command, "--config", str(config), "--out", str(work)])
                assert not caught, (name, command, caught)
                if rc != 0:
                    assert rc == 1 and err.startswith("error:") and err.count("\n") == 1, err
                else:
                    assert err == "", (name, command, err)
