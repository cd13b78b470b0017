"""Unit tests for dataset generation, CSV persistence and subset draws."""

import shutil
import struct
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from patt_lab import cli, data
from patt_lab.config import class_counts_profile
from patt_lab.data import (LabeledSet, SynthConfig, class_balanced_subset, gen_longtail,
                           load_features_csv, sample_vmf, save_features_csv, save_manifest)

import oracles

# round(500 * 100^(-y/9)) for y = 0..9
PROFILE_10_100_500 = [500, 300, 180, 108, 65, 39, 23, 14, 8, 5]


def sets_equal(a, b):
    return (np.array_equal(a.inputs, b.inputs)
            and np.array_equal(a.labels, b.labels)
            and np.array_equal(a.class_counts, b.class_counts))


class TestCountsProfile:
    def test_reference_profile(self):
        got = class_counts_profile(10, 100.0, 500)
        assert got == PROFILE_10_100_500

    def test_balanced_degenerate(self):
        assert class_counts_profile(6, 1.0, 80) == [80] * 6

    def test_non_increasing_and_endpoint_ratio(self):
        for ratio in (2.0, 10.0, 100.0):
            counts = class_counts_profile(8, ratio, 400)
            assert np.all(np.diff(counts) <= 0)
            # endpoints differ from the exact ratio only through rounding
            assert counts[0] / counts[-1] == pytest.approx(ratio, abs=ratio * 0.1)

    def test_rejects_emptying_tail(self):
        with pytest.raises(ValueError, match="empties the tail"):
            class_counts_profile(10, 1000.0, 20)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError, match="ratio"):
            class_counts_profile(10, 0.5, 100)


def small_config(**overrides):
    base = dict(n_classes=5, feature_dim=6, imbalance_ratio=10.0,
                max_per_class=60, val_per_class=7, test_per_class=9,
                ood_train_size=40, ood_test_size=30, seed=0)
    base.update(overrides)
    return SynthConfig(**base)


class TestGenLongtail:
    def test_train_counts_follow_profile(self):
        train, *_ = gen_longtail(SynthConfig(seed=3))
        assert train.class_counts.tolist() == PROFILE_10_100_500
        assert np.array_equal(np.bincount(train.labels, minlength=10),
                              train.class_counts)

    def test_balanced_eval_splits(self):
        _, val_id, test_id, _, _ = gen_longtail(small_config())
        assert val_id.class_counts.tolist() == [7] * 5
        assert test_id.class_counts.tolist() == [9] * 5
        assert np.array_equal(np.bincount(test_id.labels), test_id.class_counts)

    def test_outlier_splits_are_unlabeled(self):
        _, _, _, train_ood, test_ood = gen_longtail(small_config())
        assert np.all(train_ood.labels == -1) and np.all(test_ood.labels == -1)
        assert train_ood.inputs.shape[0] == 40 and test_ood.inputs.shape[0] == 30

    def test_same_seed_bit_identical(self):
        first = gen_longtail(small_config(seed=11))
        second = gen_longtail(small_config(seed=11))
        for a, b in zip(first, second):
            assert sets_equal(a, b)

    def test_different_seed_differs(self):
        a = gen_longtail(small_config(seed=1))[0]
        b = gen_longtail(small_config(seed=2))[0]
        assert not np.array_equal(a.inputs, b.inputs)

    def test_cluster_directions_separated(self):
        """Recover every cluster direction from the feature-space mean and
        check all pairwise dot products against the configured bound."""
        config = small_config(features_direct=True, seed=4,
                              within_kappa=200.0, ood_kappa=200.0)
        train, _, _, train_ood, test_ood = gen_longtail(config)
        dirs = []
        for y in range(config.n_classes):
            m = train.inputs[train.labels == y].mean(axis=0)
            dirs.append(m / np.linalg.norm(m))
        for split, clusters in ((train_ood, config.ood_train_clusters),
                                (test_ood, config.ood_test_clusters)):
            for chunk in np.array_split(split.inputs, clusters):
                m = chunk.mean(axis=0)
                dirs.append(m / np.linalg.norm(m))
        dirs = np.stack(dirs)
        dots = dirs @ dirs.T - np.eye(len(dirs))
        # mean recovery is noisy, so allow a small margin above the bound
        assert dots.max() < config.max_direction_dot + 0.05

    def test_features_direct_skips_affine_map(self):
        config = small_config(features_direct=True)
        train, *_ = gen_longtail(config)
        assert train.dim == config.feature_dim
        np.testing.assert_allclose(np.linalg.norm(train.inputs, axis=1), 1.0,
                                   atol=1e-9)

    def test_raw_inputs_not_unit_norm(self):
        train, *_ = gen_longtail(small_config())
        assert train.dim == 2 * 6
        norms = np.linalg.norm(train.inputs, axis=1)
        assert norms.std() > 1e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_classes=1)
        with pytest.raises(ValueError):
            SynthConfig(imbalance_ratio=0.5)
        with pytest.raises(ValueError):
            SynthConfig(max_direction_dot=1.5)
        with pytest.raises(ValueError):
            SynthConfig(within_kappa=0.0)

    def test_config_rejects_an_empty_tail_naming_both_keys(self):
        # the count profile is checked when the config is built, before any
        # numpy work, and the message names the two keys that set it
        with pytest.raises(ValueError, match=r"imbalance_ratio = 1000\.0 with "
                                             r"max_per_class = 20 empties the tail"):
            SynthConfig(imbalance_ratio=1000.0, max_per_class=20)
        SynthConfig(imbalance_ratio=1000.0, max_per_class=500)

    @pytest.mark.parametrize("key", ["within_kappa", "ood_kappa"])
    def test_config_refuses_exactly_the_kappas_the_sampler_cannot_take(self, key):
        # bisect for the smallest refused kappa at feature_dim = 8 (about
        # 1.6e16): the largest accepted one still samples, and the sampler
        # fails at the refused one
        low, high = 1e16, 1e17
        SynthConfig(**{key: low})
        while np.nextafter(low, high) < high:
            mid = 0.5 * (low + high)
            try:
                SynthConfig(**{key: mid})
                low = mid
            except ValueError:
                high = mid
        with pytest.raises(ValueError, match=f"{key} must be small enough to sample "
                                             f"in feature_dim = 8"):
            SynthConfig(**{key: high})
        mu = np.eye(8)[0]
        assert np.isfinite(sample_vmf(mu, low, 5, seed=0)).all()
        with pytest.raises(ValueError, match="math domain error"):
            sample_vmf(mu, high, 5, seed=0)

    @pytest.mark.parametrize("overrides, key", [
        (dict(n_classes=60, feature_dim=2), "n_classes = 60 directions"),
        (dict(n_classes=3, feature_dim=2, ood_train_clusters=40), "ood_train_clusters = 40"),
    ])
    def test_direction_placement_failure_names_the_keys(self, overrides, key):
        # the cap-packing bound is checked when the config is built
        with pytest.raises(ValueError) as got:
            small_config(**overrides)
        message = str(got.value)
        for part in (key, "max_direction_dot = 0.9", "feature_dim = 2"):
            assert part in message, message


class TestDirectionPlacement:
    """``data._spread_directions`` tests each draw against every placed row
    in one product, and accepts the directions of the per-pair loop it
    replaced."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("counts, dim, dot", [
        ((10, 2, 3), 8, 0.9),  # the CLI defaults
        ((150, 10, 10), 16, 0.5),
        ((100, 10, 10), 32, 0.3),
    ])
    def test_matches_the_per_pair_loop(self, seed, counts, dim, dot):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        placed = np.empty((sum(counts), dim))
        want, start = [], 0
        for count in counts:
            data._spread_directions(rng, placed, start, count, dot, "n_classes")
            want += oracles.spread_directions_ref(ref_rng, dim, want, count, dot)
            start += count
        np.testing.assert_array_equal(placed.view(np.uint64), np.array(want).view(np.uint64))
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("count, dim", [(11, 2), (60, 6)])
    def test_jams_where_the_per_pair_loop_jams(self, count, dim):
        # more directions than the seeded draws can place 60 degrees apart
        rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
        assert oracles.spread_directions_ref(ref_rng, dim, [], count, 0.5) is None
        with pytest.raises(ValueError, match=f"could not place n_classes = {count} "):
            data._spread_directions(rng, np.empty((count, dim)), 0, count, 0.5, "n_classes")
        assert rng.random() == ref_rng.random()

    def test_two_thousand_directions_in_two_seconds(self):
        # the per-pair loop takes about 8 s for these on a 2 vCPU machine
        placed = np.empty((2000, 32))
        start = time.perf_counter()
        data._spread_directions(np.random.default_rng(0), placed, 0, 2000, 0.5, "n_classes")
        assert time.perf_counter() - start < 2.0
        gram = placed @ placed.T
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 0.5


class TestFeaturesCsv:
    def test_round_trip_exact(self, tmp_path):
        train, *_ = gen_longtail(small_config())
        path = tmp_path / "train.csv"
        save_features_csv(train, path)
        loaded = load_features_csv(path, n_classes=5)
        assert sets_equal(loaded, train)

    def test_single_outlier_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,label,f0,f1\n0,-1,0.5,0.5\n")
        loaded = load_features_csv(path, 2)
        assert loaded.inputs.shape == (1, 2) and loaded.dim == 2
        assert loaded.labels.tolist() == [-1]
        np.testing.assert_array_equal(loaded.inputs, [[0.5, 0.5]])

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("id,label,f0,f1\n0,0,0.5,0.5\n1,0,0.25\n")
        with pytest.raises(ValueError, match="line 3"):
            load_features_csv(path, 2)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="line 1"):
            load_features_csv(path, 2)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "label.csv"
        path.write_text("id,label,f0\n0,-2,0.5\n")
        with pytest.raises(ValueError, match="out of range"):
            load_features_csv(path, 2)

    def test_non_numeric_value_names_line(self, tmp_path):
        path = tmp_path / "garbage.csv"
        path.write_text("id,label,f0\n0,0,x\n")
        with pytest.raises(ValueError, match="line 2"):
            load_features_csv(path, 2)

    def test_rows_match_per_element_formatting(self, tmp_path):
        # the bulk writer against the per-element form it replaced
        train, *_ = gen_longtail(small_config())
        path = tmp_path / "train.csv"
        save_features_csv(train, path)
        want = ["id,label," + ",".join(f"f{i}" for i in range(train.dim))]
        for i in range(train.inputs.shape[0]):
            row = ",".join(repr(float(v)) for v in train.inputs[i])
            want.append(f"{i},{int(train.labels[i])},{row}")
        assert path.read_text() == "\n".join(want) + "\n"

    def test_writer_peak_does_not_grow_with_the_split(self, tmp_path):
        rng = np.random.default_rng(0)
        split = LabeledSet(rng.normal(size=(20000, 16)), rng.integers(0, 10, 20000), 10)
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            save_features_csv(split, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * path.stat().st_size

    def test_header_only_gives_an_empty_split(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,label,f0,f1,f2\n")
        loaded = load_features_csv(path, n_classes=2)
        assert loaded.inputs.shape == (0, 3) and loaded.labels.shape == (0,)
        assert loaded.class_counts.tolist() == [0, 0]

    def test_label_beyond_int64_is_out_of_range(self, tmp_path):
        # used to escape as an OverflowError when stored into an int64 array
        path = tmp_path / "big.csv"
        path.write_text("id,label,f0\n0,0,0.5\n1,99999999999999999999,0.5\n")
        with pytest.raises(ValueError, match="line 3: label 99999999999999999999 out of range"):
            load_features_csv(path, n_classes=2)


SPLITS = ("train.csv", "val_id.csv", "test_id.csv", "train_ood.csv", "test_ood.csv")
# magic, CSV byte length, CRC-32, n, d
SIDECAR_HEAD = struct.Struct("<8s4Q")


def bits_equal(a, b):
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.inputs.view(np.uint64), b.inputs.view(np.uint64))
    np.testing.assert_array_equal(a.class_counts, b.class_counts)


def parsed(path, n_classes):
    # the split as a parse reads it: a copy of the CSV with no sidecar
    alone = path.parent / "alone"
    alone.mkdir(exist_ok=True)
    shutil.copyfile(path, alone / path.name)
    return load_features_csv(alone / path.name, n_classes)


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    # the data of the golden ``small`` config
    from test_golden import CONFIGS
    root = tmp_path_factory.mktemp("sidecar")
    config = root / "run.cfg"
    config.write_text(CONFIGS["small"])
    assert cli.main(["gen-data", "--config", str(config), "--out", str(root / "out")]) == 0
    return config, root / "out"


class TestSidecar:
    """gen-data writes ``<split>.csv.bin`` next to each CSV. The loader
    returns its arrays only when its key matches the CSV's bytes and its
    arrays pass the loader's checks, and parses the CSV otherwise."""

    @pytest.mark.parametrize("name", SPLITS)
    def test_hit_has_the_bits_of_a_parse(self, small_data, monkeypatch, name):
        _, out = small_data
        # a hit parses nothing: the parse's array module is gone
        monkeypatch.setattr(data, "array", None)
        hit = load_features_csv(out / name, 10)
        monkeypatch.undo()
        bits_equal(hit, parsed(out / name, 10))
        assert hit.inputs.flags.writeable and hit.labels.flags.writeable
        assert hit.inputs.shape[0] > 0

    def test_a_hit_reads_the_sidecar(self, tmp_path):
        # an input changed in the sidecar alone, key kept: the loader
        # returns the sidecar's value, so a matching key is trusted
        split = LabeledSet([[0.5, 0.25], [1.5, -2.0]], [0, -1], 2)
        path = tmp_path / "two.csv"
        save_features_csv(split, path)
        side = tmp_path / "two.csv.bin"
        blob = bytearray(side.read_bytes())
        struct.pack_into("<d", blob, SIDECAR_HEAD.size + 2 * 8, 7.0)
        side.write_bytes(bytes(blob))
        assert load_features_csv(path, 2).inputs.tolist() == [[7.0, 0.25], [1.5, -2.0]]

    def test_layout(self, tmp_path):
        split = LabeledSet([[0.5, 0.25, 1.0], [1.5, -2.0, 3.0]], [1, -1], 2)
        path = tmp_path / "split.csv"
        save_features_csv(split, path)
        csv = path.read_bytes()
        blob = (tmp_path / "split.csv.bin").read_bytes()
        assert SIDECAR_HEAD.unpack_from(blob) == (b"PATTCSV1", len(csv), zlib.crc32(csv), 2, 3)
        body = blob[SIDECAR_HEAD.size:]
        assert body == struct.pack("<2q6d", 1, -1, 0.5, 0.25, 1.0, 1.5, -2.0, 3.0)

    def test_edited_csv_is_parsed(self, small_data, tmp_path):
        _, out = small_data
        work = tmp_path / "out"
        shutil.copytree(out, work)
        path = work / "train.csv"
        text = path.read_text()
        row = text.split("\n")[5]
        cells = row.split(",")
        old = cells[2]
        digit = next(i for i, c in enumerate(old) if c in "123456789")
        cells[2] = old[:digit] + ("1" if old[digit] != "1" else "2") + old[digit + 1:]
        path.write_text(text.replace(row, ",".join(cells), 1))
        loaded = load_features_csv(path, 10)
        assert loaded.inputs[4, 0] == float(cells[2]) != float(old)
        bits_equal(loaded, parsed(path, 10))

    @pytest.mark.parametrize("kind", ["truncated", "other split", "directory", "crc flipped",
                                      "trailing byte", "non-finite input",
                                      "label out of range"])
    def test_bad_sidecar_is_a_miss(self, small_data, tmp_path, kind):
        _, out = small_data
        work = tmp_path / "out"
        shutil.copytree(out, work)
        path, side = work / "train.csv", work / "train.csv.bin"
        blob = bytearray(side.read_bytes())
        n, d = SIDECAR_HEAD.unpack_from(blob)[3:]
        if kind == "truncated":
            side.write_bytes(blob[:-8])
        elif kind == "other split":
            shutil.copyfile(work / "val_id.csv.bin", side)
        elif kind == "directory":
            side.unlink()
            side.mkdir()
        elif kind == "crc flipped":
            blob[16] ^= 0x01
            side.write_bytes(blob)
        elif kind == "trailing byte":
            side.write_bytes(blob + b"\0")
        elif kind == "non-finite input":
            struct.pack_into("<d", blob, SIDECAR_HEAD.size + 8 * n + 8 * d, float("nan"))
            side.write_bytes(blob)
        else:
            struct.pack_into("<q", blob, SIDECAR_HEAD.size, 10)
            side.write_bytes(blob)
        bits_equal(load_features_csv(path, 10), parsed(path, 10))

    def test_fewer_classes_than_the_data_is_todays_error(self, small_data, tmp_path, capsys):
        # train.csv holds labels 0..9: n_classes = 9 makes the sidecar a
        # miss, and the parse names the first row of class 9
        config, out = small_data
        work = tmp_path / "out"
        shutil.copytree(out, work)
        fewer = tmp_path / "run.cfg"
        fewer.write_text(config.read_text().replace("n_classes = 10\n", "n_classes = 9\n"))
        lines = (work / "train.csv").read_text().splitlines()
        ln = next(i for i, line in enumerate(lines, start=1) if line.split(",")[1] == "9")
        rc = cli.main(["train", "--config", str(fewer), "--out", str(work)])
        path = work / "train.csv"
        assert rc == 1
        assert capsys.readouterr().err == (f"error: bad dataset file {path}: {path}: "
                                           f"line {ln}: label 9 out of range\n")

    def test_sidecars_repeat_across_runs(self, small_data, tmp_path):
        config, out = small_data
        again = tmp_path / "again"
        assert cli.main(["gen-data", "--config", str(config), "--out", str(again)]) == 0
        for name in SPLITS:
            assert (again / f"{name}.bin").read_bytes() == (out / f"{name}.bin").read_bytes()


class TestClassBalancedSubset:
    def make_train(self):
        train, *_ = gen_longtail(small_config(seed=7))
        return train

    def test_generous_budget_returns_everything(self):
        train = self.make_train()
        subset = class_balanced_subset(train, per_class=10 ** 6, seed=0)
        assert subset.inputs.shape == train.inputs.shape
        assert np.array_equal(subset.class_counts, train.class_counts)

    def test_one_per_class(self):
        train, *_ = gen_longtail(SynthConfig(seed=1))
        subset = class_balanced_subset(train, per_class=1, seed=0)
        assert subset.inputs.shape[0] == 10
        assert subset.class_counts.tolist() == [1] * 10

    def test_five_per_class_on_reference_profile(self):
        train, *_ = gen_longtail(SynthConfig(seed=1))
        subset = class_balanced_subset(train, per_class=5, seed=3)
        assert subset.class_counts.tolist() == [5] * 10

    def test_seeded_draw_is_deterministic(self):
        train = self.make_train()
        a = class_balanced_subset(train, per_class=4, seed=9)
        b = class_balanced_subset(train, per_class=4, seed=9)
        c = class_balanced_subset(train, per_class=4, seed=10)
        assert sets_equal(a, b)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_rows_come_from_parent(self):
        train = self.make_train()
        subset = class_balanced_subset(train, per_class=3, seed=2)
        # every drawn row must exist verbatim in the parent split
        for row, label in zip(subset.inputs, subset.labels):
            matches = np.all(train.inputs == row, axis=1)
            assert np.any(matches & (train.labels == label))

    def test_empty_class_rejected(self):
        bad = LabeledSet(inputs=np.zeros((2, 3)), labels=np.array([0, 0]), n_classes=2)
        with pytest.raises(ValueError, match="class 1"):
            class_balanced_subset(bad, per_class=1, seed=0)

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError, match="per_class"):
            class_balanced_subset(self.make_train(), per_class=0, seed=0)


class TestManifest:
    def test_records_config_and_sizes(self, tmp_path):
        config = small_config(seed=21)
        path = tmp_path / "manifest.txt"
        save_manifest(path, config, {"train": 123, "test_ood": 30})
        text = path.read_text()
        assert "seed = 21\n" in text
        assert "n_classes = 5\n" in text
        assert "imbalance_ratio = 10.0\n" in text
        assert "rows.train = 123\n" in text
        assert text.endswith("rows.test_ood = 30\n")
