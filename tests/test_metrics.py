"""Unit tests for the detection and accuracy metrics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from patt_lab.metrics import (EvalReport, aupr, auroc, build_report,
                              classification_report, fpr_at_95_tpr)

import oracles


def random_scores(rng, n_id, n_ood, ties=False):
    if ties:
        # quantized values force duplicated scores on both sides
        a = np.round(rng.normal(size=n_id), 1)
        b = np.round(rng.normal(size=n_ood), 1)
    else:
        a = rng.normal(size=n_id)
        b = rng.normal(size=n_ood)
    return a, b


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([2.0, 3.0], [1.0]) == 1.0

    def test_full_ties(self):
        assert auroc([1.0, 1.0], [1.0, 1.0]) == 0.5

    def test_interleaved_pair(self):
        assert auroc([1.0, 3.0], [2.0]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            a, b = random_scores(rng, 30, 25, ties=trial % 2 == 0)
            assert auroc(a, b) == pytest.approx(oracles.auroc_pairs(a, b),
                                                abs=1e-12)

    def test_complement_identity(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=40), rng.normal(size=30)
        assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_empty_side(self):
        with pytest.raises(ValueError, match="non-empty"):
            auroc([], [1.0])
        with pytest.raises(ValueError, match="non-empty"):
            auroc([1.0], [])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            auroc([1.0, np.nan], [0.0])


class TestAupr:
    def test_perfect_separation(self):
        assert aupr([2.0, 3.0], [1.0], positive="id") == 1.0
        assert aupr([2.0, 3.0], [1.0], positive="ood") == 1.0

    def test_all_identical_gives_base_rate(self):
        scores = np.full(4, 1.0)
        assert aupr(scores[:3], scores[3:], positive="id") == pytest.approx(0.75)
        assert aupr(scores[:3], scores[3:], positive="ood") == pytest.approx(0.25)

    def test_three_point_case_matches_sweep(self):
        a, b = np.array([3.0, 1.0]), np.array([2.0])
        assert aupr(a, b, positive="id") == pytest.approx(
            oracles.aupr_sweep(a, b, positive="id"), abs=1e-12)

    def test_matches_sweep_oracle_both_orientations(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            a, b = random_scores(rng, 25, 35, ties=trial % 2 == 0)
            for side in ("id", "ood"):
                assert aupr(a, b, positive=side) == pytest.approx(
                    oracles.aupr_sweep(a, b, positive=side), abs=1e-12)

    def test_rejects_unknown_orientation(self):
        with pytest.raises(ValueError, match="positive"):
            aupr([1.0], [0.0], positive="both")


class TestFpr95:
    def test_perfect_separation(self):
        assert fpr_at_95_tpr([2.0, 3.0, 4.0], [0.0, 1.0]) == 0.0

    def test_identical_constant_sets(self):
        # the qualifying threshold equals the one shared value, so every
        # id sample sits at or below it
        scores = np.full(20, 0.3)
        assert fpr_at_95_tpr(scores, scores) == 1.0
        assert oracles.fpr95_sweep(scores, scores) == 1.0

    def test_one_straggler_outlier_is_free(self):
        # 19 of 20 outliers below every id score already reach 95% recall
        ood = np.concatenate([np.linspace(-3.0, -1.0, 19), [10.0]])
        id_scores = np.zeros(50)
        assert fpr_at_95_tpr(id_scores, ood) == 0.0

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            a, b = random_scores(rng, 30, 40, ties=trial % 2 == 0)
            assert fpr_at_95_tpr(a, b) == pytest.approx(
                oracles.fpr95_sweep(a, b), abs=1e-12)

    def test_non_increasing_when_ood_score_drops(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=30), rng.normal(size=20)
        base = fpr_at_95_tpr(a, b)
        for i in range(b.size):
            lowered = b.copy()
            lowered[i] -= 1.5
            assert fpr_at_95_tpr(a, lowered) <= base + 1e-15


class TestMonotoneInvariance:
    """Every rate metric depends on score order only, so pushing all scores
    through a strictly increasing map must not change it."""

    @given(st.integers(0, 2 ** 31 - 1))
    def test_all_metrics_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_scores(rng, 15, 12, ties=seed % 2 == 0)
        transform = lambda s: np.exp(0.5 * s) + 3.0
        ta, tb = transform(a), transform(b)
        assert auroc(ta, tb) == pytest.approx(auroc(a, b), abs=1e-12)
        assert fpr_at_95_tpr(ta, tb) == pytest.approx(fpr_at_95_tpr(a, b), abs=1e-12)
        for side in ("id", "ood"):
            assert aupr(ta, tb, positive=side) == pytest.approx(
                aupr(a, b, positive=side), abs=1e-12)


class TestClassificationReport:
    def test_all_correct(self):
        y = np.array([0, 1, 2, 0])
        assert classification_report(y, y, [10, 5, 2]) == (1.0, 1.0, 1.0)

    def test_all_wrong(self):
        y = np.array([0, 1, 2, 0])
        p = (y + 1) % 3
        assert classification_report(y, p, [10, 5, 2]) == (0.0, 0.0, 0.0)

    def test_four_class_hand_tally(self):
        # tail under fraction 0.5 = two rarest training classes (2, 3);
        # head hits: class 0 -> 2/3, class 1 -> 0/1; tail: 2 -> 1/2, 3 -> 2/2
        true = np.array([0, 0, 0, 1, 2, 2, 3, 3])
        pred = np.array([0, 0, 1, 0, 2, 3, 3, 3])
        acc, head, tail = classification_report(true, pred, [100, 50, 10, 5],
                                                tail_fraction=0.5)
        assert acc == pytest.approx(5.0 / 8.0)
        assert head == pytest.approx(2.0 / 4.0)
        assert tail == pytest.approx(3.0 / 4.0)

    def test_empty_group_reports_absent(self):
        # every test sample is a head sample, so the tail has no data
        true = np.array([0, 0, 1])
        pred = np.array([0, 1, 1])
        acc, head, tail = classification_report(true, pred, [9, 6, 3, 2],
                                                tail_fraction=0.5)
        assert tail is None
        assert head == pytest.approx(2.0 / 3.0)
        assert acc == pytest.approx(2.0 / 3.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            classification_report([], [], [3, 2])
        with pytest.raises(ValueError):
            classification_report([0, 2], [0, 1], [3, 2])
        with pytest.raises(ValueError):
            classification_report([0, 1], [0, 1], [3, 2], tail_fraction=1.0)


class TestEvalReport:
    def make_report(self):
        rng = np.random.default_rng(5)
        id_scores = rng.normal(loc=1.0, size=60)
        ood_scores = rng.normal(loc=-1.0, size=40)
        true = rng.integers(0, 4, size=60)
        pred = np.where(rng.random(60) < 0.7, true, (true + 1) % 4)
        return build_report(id_scores, ood_scores, true, pred, [100, 50, 10, 5])

    def test_build_report_fields(self):
        report = self.make_report()
        for rate in (report.auroc, report.aupr_in, report.aupr_out,
                     report.fpr95, report.acc):
            assert 0.0 <= rate <= 1.0

    def test_csv_round_trip(self):
        report = self.make_report()
        again = oracles.read_report(report.to_csv())
        assert list(again) == list(EvalReport.CSV_COLUMNS)
        for col in EvalReport.CSV_COLUMNS:
            assert again[col] == getattr(report, col)

    def test_absent_group_serializes_to_empty_cell(self):
        report = EvalReport(auroc=0.9, aupr_in=0.8, aupr_out=0.7, fpr95=0.2,
                            acc=0.5, acc_head=0.6, acc_tail=None)
        text = report.to_csv()
        assert text.strip().endswith(",")
        assert oracles.read_report(text)["acc_tail"] is None
