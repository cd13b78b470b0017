"""The plain-Python report numbers against their numpy forms, the checked
reader of ``report.csv``, and ``scores.csv`` from its writer to its reader."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patt_lab.report import (HIST_BINS, REPORT_COLUMNS, SCORES_HEADER, classification_report,
                             histogram, read_report, read_scores, report_csv, write_scores)

import oracles

BINS = 30


class TestClassificationReportMatchesNumpy:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), k=st.integers(1, 8), n=st.integers(1, 40),
           tail_fraction=st.sampled_from([0.1, 1.0 / 3.0, 0.5, 0.9]))
    def test_random_labels_with_tied_weights(self, data, k, n, tail_fraction):
        # few distinct weights, so ties decide part of the head/tail order
        weights = data.draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, 0.125]),
                                     min_size=k, max_size=k))
        labels = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
        true, pred = np.array(data.draw(labels)), np.array(data.draw(labels))
        want = oracles.classification_report_ref(true, pred, weights, tail_fraction)
        assert classification_report(true, pred, weights, tail_fraction) == want
        assert classification_report(true.tolist(), pred.tolist(), tuple(weights),
                                     tail_fraction) == want

    @pytest.mark.parametrize("args", [
        ([], [], [3, 2], 0.5),
        ([0, 1], [0], [3, 2], 0.5),
        ([0, 1], [0, 1], [], 0.5),
        ([0, 1], [0, 1], [3, 0], 0.5),
        ([0, 1], [0, 1], [3, float("nan")], 0.5),
        ([0, 2], [0, 1], [3, 2], 0.5),
        ([-1, 1], [0, 1], [3, 2], 0.5),
        ([0, 1], [0, 1], [3, 2], 1.0),
        ([0, 1], [0, 1], [3, 2], float("nan")),
    ])
    def test_rejects_what_numpy_rejects(self, args):
        with pytest.raises(ValueError) as want:
            oracles.classification_report_ref(*args)
        with pytest.raises(ValueError) as got:
            classification_report(*args)
        assert str(got.value) == str(want.value)


HEADER = ",".join(REPORT_COLUMNS)


class TestReadReport:
    def test_empty_group_accuracies_are_none(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text(f"{HEADER}\n0.5,0.25,1.0,0.0,1.0,,\n")
        assert read_report(path) == dict(zip(REPORT_COLUMNS, (0.5, 0.25, 1.0, 0.0, 1.0,
                                                              None, None)))

    @pytest.mark.parametrize("text, message", [
        ("", "unexpected header"),
        (f"{HEADER},x\n0,0,0,0,0,0,0,0\n", "unexpected header"),
        (f"{HEADER}\n", "expected one row of 7 cells"),
        (f"{HEADER}\n0,0,0,0,0,0,0\n0,0,0,0,0,0,0\n", "expected one row of 7 cells"),
        (f"{HEADER}\n0,0,0,0,0,0\n", "expected one row of 7 cells"),
        (f"{HEADER}\n0,0,0,0,,0,0\n", "acc = '' is not a finite value in [0, 1]"),
        (f"{HEADER}\n0,0,0,0,0,1.5,0\n", "acc_head = '1.5' is not a finite value in [0, 1]"),
        (f"{HEADER}\n0,0,0,0,0,0,-0.1\n", "acc_tail = '-0.1' is not a finite value"),
        (f"{HEADER}\n0,0,0,0,nan,0,0\n", "acc = 'nan' is not a finite value"),
        (f"{HEADER}\n0,0,0,0,0,inf,0\n", "acc_head = 'inf' is not a finite value"),
        (f"{HEADER}\n0,0,0,0,0,0,half\n", "acc_tail = 'half' is not a finite value"),
        (f"{HEADER}\n,0,0,0,0,0,0\n", "auroc = '' is not a finite value"),
    ])
    def test_rejects_a_bad_file(self, tmp_path, text, message):
        path = tmp_path / "report.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as got:
            read_report(path)
        assert str(got.value).startswith(message), str(got.value)


class TestScoresFile:
    def test_extreme_scores_read_back_bit_for_bit(self, tmp_path):
        # a subnormal, -0.0 and scores near the largest float of one sign:
        # each row keeps its bits, and the report stage bins what eval scored
        id_scores = [5e-324, -0.0, 1.5, 1.7976931348623157e308]
        ood_scores = [-0.0, 2.2250738585072014e-308, 1e308, 0.1]
        path = tmp_path / "scores.csv"
        write_scores(path, (("id", np.array([0, 3, 1, 2]), np.array([0, 1, 1, 2]),
                             np.array(id_scores)),
                            ("ood", np.full(4, -1), np.array([2, 0, 1, 1]), np.array(ood_scores))))
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[0] == SCORES_HEADER
        assert lines[1:] == ["id,0,0,0,5e-324", "id,1,3,1,-0.0", "id,2,1,1,1.5",
                             "id,3,2,2,1.7976931348623157e+308", "ood,0,-1,2,-0.0",
                             "ood,1,-1,0,2.2250738585072014e-308", "ood,2,-1,1,1e+308",
                             "ood,3,-1,1,0.1"]
        got_id, got_ood = read_scores(path)
        assert [s.hex() for s in got_id] == [s.hex() for s in id_scores]
        assert [s.hex() for s in got_ood] == [s.hex() for s in ood_scores]
        edges, id_counts, ood_counts = histogram(got_id, got_ood, HIST_BINS)
        want_edges, want_id, want_ood = histogram(id_scores, ood_scores, HIST_BINS)
        assert [e.hex() for e in edges] == [e.hex() for e in want_edges]
        assert (id_counts, ood_counts) == (want_id, want_ood)
        assert sum(id_counts) == sum(ood_counts) == 4


def assert_matches_numpy(id_scores, ood_scores):
    edges, id_counts, ood_counts = histogram(id_scores, ood_scores, BINS)
    want_edges, want_id, want_ood = oracles.histogram_ref(id_scores, ood_scores, BINS)
    # repr compares the bits, -0.0 included
    assert [repr(e) for e in edges] == [repr(float(e)) for e in want_edges]
    assert id_counts == want_id.tolist()
    assert ood_counts == want_ood.tolist()
    return edges, id_counts, ood_counts


class TestHistogramMatchesNumpy:
    def test_all_scores_equal(self):
        edges, id_counts, ood_counts = assert_matches_numpy([2.5, 2.5, 2.5], [2.5, 2.5])
        assert edges[0] == 2.5 and edges[-1] == 3.5
        assert id_counts[0] == 3 and ood_counts[0] == 2

    def test_all_scores_equal_where_one_is_below_an_ulp(self):
        # lo + 1 == lo: every edge is lo and the closed last bin holds all
        _, id_counts, ood_counts = assert_matches_numpy([1e300], [1e300, 1e300])
        assert id_counts[-1] == 1 and ood_counts[-1] == 2

    def test_scores_on_every_edge(self):
        # edges 0, 1, ..., 30 exactly; each score opens its bin, 30 closes the last
        _, id_counts, ood_counts = assert_matches_numpy(
            [float(i) for i in range(31)], [0.0, 15.0, 30.0])
        assert id_counts == [1] * 29 + [2]
        assert ood_counts[0] == ood_counts[15] == ood_counts[29] == 1

    def test_score_on_the_last_edge(self):
        _, id_counts, _ = assert_matches_numpy([-3.0, 7.25], [7.25, 7.25, 0.1])
        assert id_counts[-1] == 1

    @pytest.mark.parametrize("lo, hi", [
        (1e-300, 3e-300), (0.0, 1e-300), (-1e-300, 1e-300),
        (0.0, 5e-323),  # the step underflows to 0
        (1e300, 1.5e300), (-1e300, 1e300), (-8e307, 8e307),
    ])
    def test_extreme_spans(self, lo, hi):
        rng = np.random.default_rng(7)
        inner = (lo + (hi - lo) * rng.random(20)).tolist()
        assert_matches_numpy([lo] + inner[:10], inner[10:] + [hi])

    @pytest.mark.parametrize("seed", range(5))
    def test_random_scores(self, seed):
        rng = np.random.default_rng(seed)
        # quantized values put many scores on the same points
        assert_matches_numpy(np.round(rng.normal(size=300), 2).tolist(),
                             np.round(rng.normal(-1.0, size=200), 2).tolist())

    def test_span_beyond_the_float_range_is_refused(self):
        with pytest.raises(ValueError, match="float range"):
            histogram([-1.7e308], [1.7e308], BINS)
