"""End-to-end tests of the command-line pipeline on a miniature dataset."""

import contextlib
import io
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patt_lab import cli
from patt_lab.metrics import EvalReport

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

    def test_bool_keys_are_strict(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("features_direct = 1\n")
        with pytest.raises(cli.CliError, match="features_direct"):
            cli.load_config(path)


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
        report = EvalReport.from_csv((out / "report.csv").read_text())
        assert 0.0 <= report.auroc <= 1.0

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
            EvalReport.from_csv("\n".join(other))


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
        assert err.startswith("error:") and "4 classes but n_classes = 5" in err


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


SRC = Path(__file__).resolve().parents[1] / "src"


def test_module_entry_point_runs_the_command(tmp_path):
    # `python -m patt_lab.cli` used to exit 0 without running anything
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "patt_lab.cli", "train", "--config", str(tmp_path / "nope.cfg")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("error: missing config file") and done.stderr.count("\n") == 1


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
