"""End-to-end tests of the command-line pipeline on a miniature dataset."""

import contextlib
import io
import os
import re
import shutil
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

from patt_lab import cli
from patt_lab.config import config_fields
from patt_lab.data import SynthConfig
from patt_lab.metrics import EvalReport
from patt_lab.model import TrainConfig

import oracles

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

    def test_huge_class_count_loads_at_once(self, tmp_path):
        # the tail check used to build the whole count profile: this load
        # never returned
        path = write_config(tmp_path / "run.cfg", n_classes=99999999999999999999999)
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
        report = oracles.read_report((out / "report.csv").read_text())
        assert list(report) == list(EvalReport.CSV_COLUMNS)
        assert 0.0 <= report["auroc"] <= 1.0

    def test_history_has_one_row_per_epoch(self, pipeline):
        _, out = pipeline
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,total,isac,tla,oe,val_acc"
        assert len(lines) == 1 + TINY["epochs"]

    def test_histogram_counts_match_score_rows(self, pipeline):
        _, out = pipeline
        lines = (out / "hist.csv").read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,id_count,ood_count"
        assert len(lines) == 1 + cli.HIST_BINS
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
            oracles.read_report("\n".join(other))


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
        # direction, and never returned
        config = write_config(tmp_path / "run.cfg", n_classes=99999999999999999999999)
        done = subprocess.run(
            [sys.executable, "-m", "patt_lab.cli", "gen-data", "--config", str(config),
             "--out", str(tmp_path / "o")],
            env=src_env(), capture_output=True, text=True, timeout=10)
        assert done.returncode == 1 and done.stderr.count("\n") == 1, done.stderr
        assert done.stderr.startswith(
            "error: data generation failed: could not place n_classes = 99999999999999999999999 "
        ), done.stderr

    @pytest.mark.parametrize("n_classes", [2**59, 10**23])
    def test_uncountable_class_count_in_train(self, pipeline, tmp_path, capsys, n_classes):
        # numpy cannot count 2**59 classes (exabytes, refused at once) or
        # 10**23 (beyond int64) when a stage loads a split: both used to end
        # in a traceback
        _, out = pipeline
        config = write_config(tmp_path / "run.cfg", n_classes=n_classes)
        rc = cli.main(["train", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, err
        assert err.startswith(f"error: bad dataset file {out / 'train.csv'}: "), err

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

    def test_out_of_range_score_label_in_report(self, pipeline, tmp_path, capsys):
        config, out = pipeline
        bad = tmp_path / "bad"
        shutil.copytree(out, bad)
        lines = (bad / "scores.csv").read_text().splitlines(keepends=True)
        row = lines[1].split(",")
        row[2] = "42"
        lines[1] = ",".join(row)
        (bad / "scores.csv").write_text("".join(lines))
        rc = cli.main(["report", "--config", str(config), "--out", str(bad)])
        assert_one_error_line(rc, capsys)

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

    @pytest.mark.parametrize("command", ["train", "calibrate", "eval", "report"])
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

    @pytest.mark.parametrize("command", ["calibrate", "eval", "report"])
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
        assert err.startswith("error:") and "4 classes but n_classes = 5" in err


def test_cli_config_check_and_report_import_no_numpy(pipeline, tmp_path):
    config, out = pipeline
    work = tmp_path / "out"
    shutil.copytree(out, work)
    for name in ("hist.csv", "acc_table.csv"):
        (work / name).unlink()
    bad = write_config(tmp_path / "bad.cfg", tau="0.0")
    # no numpy, and neither ``dataclasses`` nor the ``inspect`` it imports
    code = (
        "import sys\n"
        "def check(when):\n"
        "    loaded = sorted({'numpy', 'dataclasses', 'inspect'} & set(sys.modules))\n"
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


# modules a stage must not load, and the output file that shows it ran; no
# stage loads ``dataclasses``
NOT_LOADED = {
    "gen-data": (("patt_lab.model", "patt_lab.losses", "patt_lab.calibration",
                  "patt_lab.metrics", "patt_lab.vmf", "patt_lab.checkpoint",
                  "patt_lab.report"), "train.csv"),
    "train": (("patt_lab.report",), "model.ckpt"),
    "calibrate": (("numpy.ma", "patt_lab.losses", "patt_lab.metrics", "patt_lab.report"),
                  "attention.csv"),
    "eval": (("patt_lab.losses", "hashlib"), "scores.csv"),
}


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_stage_loads_only_the_modules_it_runs(pipeline, tmp_path, command):
    config, out = pipeline
    work = tmp_path / "out"
    if command != "gen-data":
        shutil.copytree(out, work)
    unwanted, output = NOT_LOADED[command]
    unwanted += ("dataclasses",)
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


@pytest.mark.parametrize("command", ["calibrate", "eval", "report"])
def test_non_finite_checkpoint_parameter_names_the_file(pipeline, tmp_path, capsys, command):
    # calibrate and eval used to blame the weight or the scores; report exited 0
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
        # too many classes to place on the circle: a failure only the seeded
        # direction placement of gen-data finds
        config = write_config(tmp_path / "run.cfg", n_classes=60, feature_dim=2)
        out = tmp_path / "out"
        rc = cli.main(["gen-data", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("error: data generation failed"), err
        assert "n_classes = 60" in err and "feature_dim = 2" in err, err
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


def src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


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
    "sgd_momentum": step_value(-HUGE, HUGE, [0.0, 0.9, 1.0, 2.0, 1e12, 1e300, -1.0]),
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


# the files calibrate, eval and report read, and the stages that read each
READERS = {
    "model.ckpt": ("calibrate", "eval", "report"),
    "train.csv": ("calibrate",),
    "train_ood.csv": ("calibrate",),
    "test_id.csv": ("eval",),
    "test_ood.csv": ("eval",),
    "attention.csv": ("eval",),
    "scores.csv": ("report",),
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
