"""Unit tests for feature calibration and scoring, and for the post-hoc
baselines kept in ``oracles``."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from patt_lab.calibration import (attention_weight, calibrate_feature, channel_importance,
                                  energy_score, load_attention, msp_score,
                                  save_attention, scale_weight)
from patt_lab.model import classifier_logits

import oracles
from oracles import posthoc_la_adjust, tau_norm_classifier


def head_only(clf_w, clf_b=None):
    """Model whose encoder is irrelevant: head-level tests never run it."""
    clf_w = np.asarray(clf_w, dtype=np.float64)
    k, d = clf_w.shape
    b = np.zeros(k) if clf_b is None else np.asarray(clf_b, dtype=np.float64)
    return oracles.model_of([np.zeros((d, 1))], [np.zeros(d)], clf_w, b)


finite_vec = st.lists(st.floats(-50, 50), min_size=2, max_size=10)


class TestChannelImportance:
    def test_identity_rows_pick_one_channel(self):
        clf = head_only(np.eye(4))
        z = np.array([0.3, -0.7, 0.5, 0.4])
        got = channel_importance(z[None], [2], clf)[0]
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.5, 0.0])

    def test_zero_feature_zero_importance(self):
        clf = head_only(np.random.default_rng(0).normal(size=(4, 4)))
        np.testing.assert_array_equal(channel_importance(np.zeros((1, 4)), [1], clf),
                                      np.zeros((1, 4)))

    def test_matches_finite_difference_sensitivity(self):
        rng = np.random.default_rng(11)
        clf = head_only(rng.normal(size=(4, 4)), rng.normal(size=4))
        z = rng.normal(size=4)
        y = 2

        def logit_y(v):
            return float(classifier_logits(clf, v)[y])

        want = oracles.central_diff(logit_y, z) * z
        np.testing.assert_allclose(channel_importance(z[None], [y], clf)[0], want,
                                   rtol=1e-6, atol=1e-9)

    def test_channel_sum_equals_logit_minus_bias(self):
        rng = np.random.default_rng(3)
        clf = head_only(rng.normal(size=(5, 8)), rng.normal(size=5))
        z = rng.normal(size=8)
        z /= np.linalg.norm(z)
        for y in range(5):
            total = channel_importance(z[None], [y], clf)[0].sum()
            want = classifier_logits(clf, z)[y] - clf.clf_b[y]
            assert total == pytest.approx(want, abs=1e-12)

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(4)
        clf = head_only(rng.normal(size=(3, 5)))
        z = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)
        got = channel_importance(z, y, clf)
        for i in range(6):
            np.testing.assert_array_equal(got[i],
                                          channel_importance(z[i:i + 1], y[i:i + 1], clf)[0])

    def test_label_out_of_range(self):
        clf = head_only(np.eye(3))
        with pytest.raises(ValueError, match="label"):
            channel_importance(np.ones((1, 3)), [3], clf)


class TestAttentionWeight:
    """Extraction combines inverse-prior-weighted importances: positive for
    labeled samples, negative for outliers under their predicted class."""

    def test_two_sample_hand_case(self):
        clf = head_only(np.eye(2))
        cb = np.eye(2)
        got = attention_weight(cb, [0, 1], np.empty((0, 2)), clf, [0.5, 0.5])
        np.testing.assert_allclose(got, [1.0, 1.0], atol=1e-15)

    def test_identical_sets_cancel(self):
        # identity head predicts argmax z, matching the true labels here
        clf = head_only(np.eye(2))
        cb = np.eye(2)
        got = attention_weight(cb, [0, 1], cb, clf, [0.5, 0.5])
        np.testing.assert_allclose(got, 0.0, atol=1e-15)

    def test_homogeneous_in_inverse_priors(self):
        rng = np.random.default_rng(7)
        clf = head_only(rng.normal(size=(3, 4)))
        cb = rng.normal(size=(9, 4))
        y = rng.integers(0, 3, size=9)
        ood = rng.normal(size=(5, 4))
        pri = np.array([0.5, 0.3, 0.2])
        base = attention_weight(cb, y, ood, clf, pri)
        scaled = attention_weight(cb, y, ood, clf, pri / 3.0)
        np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12)

    def test_sample_order_irrelevant(self):
        rng = np.random.default_rng(8)
        clf = head_only(rng.normal(size=(3, 4)))
        cb = rng.normal(size=(9, 4))
        y = rng.integers(0, 3, size=9)
        ood = rng.normal(size=(5, 4))
        pri = np.array([0.5, 0.3, 0.2])
        base = attention_weight(cb, y, ood, clf, pri)
        perm, operm = rng.permutation(9), rng.permutation(5)
        shuffled = attention_weight(cb[perm], y[perm], ood[operm], clf, pri)
        np.testing.assert_allclose(shuffled, base, atol=1e-12)

    def test_missing_outliers_equal_empty_outliers(self):
        # no outliers (an empty split, as ood_train_size = 0 gives): the
        # weight is the inverse-prior mean of the ID importances alone
        rng = np.random.default_rng(9)
        clf = head_only(rng.normal(size=(3, 4)))
        cb = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, size=6)
        pri = np.full(3, 1 / 3)
        got = attention_weight(cb, y, np.empty((0, 4)), clf, pri)
        want = np.sum(channel_importance(cb, y, clf) / pri[y, None], axis=0) / 6
        np.testing.assert_array_equal(got, want)

    def test_zero_prior_for_occupied_class(self):
        clf = head_only(np.eye(2))
        with pytest.raises(ValueError, match="zero prior"):
            attention_weight(np.eye(2), [0, 1], np.empty((0, 2)), clf, [1.0, 0.0])

    def test_mask_equals_union1d_form(self):
        # random label sets over 6 classes where the ID subset occupies only
        # the first three, so some classes receive outliers alone, and some
        # priors are zero: both forms return the same bits or raise the same
        # message, which names the smallest bad class
        rng = np.random.default_rng(21)
        k, d = 6, 4
        seen = {"equal": 0, "error": 0, "outlier-only error": 0}
        for _ in range(300):
            clf = head_only(rng.normal(size=(k, d)))
            y = rng.integers(0, 3, size=int(rng.integers(1, 10)))
            cb = rng.normal(size=(y.size, d))
            n_ood = int(rng.integers(0, 12))
            ood = rng.normal(size=(n_ood, d))
            pri = rng.uniform(0.1, 1.0, size=k)
            pri[rng.random(k) < 0.25] = 0.0
            outcomes = []
            for fn in (attention_weight, oracles.attention_weight_union1d):
                try:
                    outcomes.append(fn(cb, y, ood, clf, pri).tobytes())
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            if isinstance(outcomes[0], bytes):
                seen["equal"] += 1
            else:
                seen["error"] += 1
                bad = int(outcomes[0].rsplit(" ", 1)[1])
                seen["outlier-only error"] += bad not in y
        assert min(seen.values()) > 10, seen

    def test_empty_subset_rejected(self):
        clf = head_only(np.eye(2))
        with pytest.raises(ValueError, match="non-empty"):
            attention_weight(np.empty((0, 2)), [], np.empty((0, 2)), clf, [0.5, 0.5])

    def test_container_validation(self, tmp_path):
        # raw values then scaled values, as save_attention writes them
        path = tmp_path / "attention.csv"
        for line in ("1.0,1.0,1.0,1.0,1.0,1.0,1.0", "nan,0.0,1.0,1.0", "1.0,1.0,0.0,2.5"):
            path.write_text(line + "\n")
            with pytest.raises(ValueError):
                load_attention(path)

    def test_from_raw_hits_endpoints(self, tmp_path):
        path = tmp_path / "attention.csv"
        save_attention(path, [3.0, -1.0, 0.5])
        scaled = load_attention(path)
        assert scaled.min() == 0.0 and scaled.max() == 2.0


class TestScaleWeight:
    def test_symmetric_endpoints(self):
        np.testing.assert_array_equal(scale_weight([-1.0, 0.0, 1.0]),
                                      [0.0, 1.0, 2.0])

    def test_asymmetric_map(self):
        np.testing.assert_allclose(scale_weight([0.0, 1.0, 3.0]),
                                   [0.0, 2.0 / 3.0, 2.0], atol=1e-15)

    def test_constant_becomes_identity(self):
        np.testing.assert_array_equal(scale_weight(np.full(5, 3.7)), np.ones(5))

    @given(finite_vec)
    def test_range_and_monotonicity(self, vals):
        raw = np.asarray(vals)
        scaled = scale_weight(raw)
        assert np.all(scaled >= 0.0) and np.all(scaled <= 2.0)
        order = np.argsort(raw, kind="stable")
        assert np.all(np.diff(scaled[order]) >= 0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            scale_weight(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            scale_weight(np.empty(0))


class TestCalibrateFeature:
    def test_all_ones_identity(self):
        z = np.random.default_rng(0).normal(size=7)
        np.testing.assert_array_equal(calibrate_feature(z, np.ones(7)), z)

    def test_all_zeros(self):
        np.testing.assert_array_equal(calibrate_feature(np.ones(4), np.zeros(4)),
                                      np.zeros(4))

    def test_elementwise_product(self):
        got = calibrate_feature([1.0, 2.0], [0.5, 2.0])
        np.testing.assert_array_equal(got, [0.5, 4.0])

    def test_batch_broadcast(self):
        z = np.arange(6.0).reshape(2, 3)
        got = calibrate_feature(z, [1.0, 0.0, 2.0])
        np.testing.assert_array_equal(got, [[0.0, 0.0, 4.0], [3.0, 0.0, 10.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            calibrate_feature(np.ones(3), np.ones(4))

    def test_identity_weight_keeps_scores_bit_exact(self):
        rng = np.random.default_rng(5)
        clf = head_only(rng.normal(size=(4, 6)), rng.normal(size=4))
        z = rng.normal(size=(20, 6))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        plain = energy_score(classifier_logits(clf, z))
        routed = energy_score(classifier_logits(clf, calibrate_feature(z, np.ones(6))))
        assert np.array_equal(plain, routed)


class TestEnergyScore:
    def test_uniform_logits(self):
        assert energy_score(np.zeros((1, 10)))[0] == pytest.approx(2.302585092994046,
                                                                   abs=1e-12)

    def test_two_logits(self):
        assert energy_score([[1.0, 0.0]])[0] == pytest.approx(1.3132616875182228,
                                                              abs=1e-13)

    @given(finite_vec, st.floats(-100, 100))
    def test_shift_equivariance(self, vals, c):
        a = np.asarray(vals)[None]
        assert energy_score(a + c)[0] == pytest.approx(energy_score(a)[0] + c,
                                                       abs=1e-9)

    def test_batch_matches_rows(self):
        a = np.random.default_rng(1).normal(size=(8, 5))
        batch = energy_score(a)
        for i in range(8):
            assert batch[i] == pytest.approx(energy_score(a[i:i + 1])[0], abs=1e-12)

    def test_batch_keeps_the_bits_of_two_passes(self):
        a = 10.0 * np.random.default_rng(3).normal(size=(50, 7))
        np.testing.assert_array_equal(energy_score(a), oracles.logsumexp_ref(a))


class TestMspScore:
    def test_uniform_logits(self):
        assert msp_score(np.zeros((1, 4)))[0] == pytest.approx(0.25, abs=1e-15)

    def test_two_logits(self):
        assert msp_score([[1.0, 0.0]])[0] == pytest.approx(0.73105857863000488,
                                                           abs=1e-14)

    def test_dominant_logit_saturates(self):
        assert msp_score([[50.0, 0.0]])[0] == pytest.approx(1.0, abs=1e-9)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="two classes"):
            msp_score(np.array([[1.0]]))

    def test_batch_matches_rows(self):
        a = np.random.default_rng(2).normal(size=(8, 5))
        batch = msp_score(a)
        for i in range(8):
            assert batch[i] == pytest.approx(msp_score(a[i:i + 1])[0], abs=1e-14)

    def test_batch_keeps_the_bits_of_two_passes(self):
        # max(e_i / s) == max(e_i) / s: rounding a division is monotone
        a = 10.0 * np.random.default_rng(4).normal(size=(50, 7))
        e = np.exp(a - a.max(axis=1, keepdims=True))
        np.testing.assert_array_equal(msp_score(a), e.max(axis=1) / e.sum(axis=1))
        np.testing.assert_array_equal(msp_score(a), oracles.softmax_ref(a).max(axis=1))


class TestScoreRanking:
    """Fast scores must order random logit vectors exactly like their
    high-precision definitions."""

    def test_energy_ranking_matches_oracle(self):
        logits = np.random.default_rng(10).normal(scale=3.0, size=(1000, 6))
        fast = energy_score(logits)
        slow = np.array([oracles.energy_mp(row) for row in logits])
        assert np.array_equal(np.argsort(fast), np.argsort(slow))
        np.testing.assert_allclose(fast, slow, rtol=1e-12)

    def test_msp_ranking_matches_oracle(self):
        logits = np.random.default_rng(12).normal(scale=3.0, size=(1000, 6))
        fast = msp_score(logits)
        slow = np.array([oracles.msp_mp(row) for row in logits])
        assert np.array_equal(np.argsort(fast), np.argsort(slow))
        np.testing.assert_allclose(fast, slow, rtol=1e-12)


class TestTauNorm:
    def test_zero_exponent_unchanged(self):
        clf = head_only(np.random.default_rng(0).normal(size=(3, 4)))
        out = tau_norm_classifier(clf, 0.0)
        assert np.array_equal(out.clf_w, clf.clf_w)

    def test_full_exponent_unit_rows(self):
        clf = head_only(np.random.default_rng(1).normal(size=(3, 4)))
        out = tau_norm_classifier(clf, 1.0)
        np.testing.assert_allclose(np.linalg.norm(out.clf_w, axis=1), 1.0,
                                   atol=1e-12)

    def test_half_exponent_on_norm_four_row(self):
        w = np.array([[4.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        out = tau_norm_classifier(head_only(w), 0.5)
        np.testing.assert_allclose(out.clf_w[0], [2.0, 0.0, 0.0], atol=1e-12)

    def test_bias_kept_and_original_untouched(self):
        clf = head_only(np.random.default_rng(2).normal(size=(3, 4)),
                        np.array([1.0, -2.0, 0.5]))
        before = clf.clf_w.copy()
        out = tau_norm_classifier(clf, 1.0)
        assert np.array_equal(out.clf_b, clf.clf_b)
        assert np.array_equal(clf.clf_w, before)

    def test_rejects_zero_row_and_bad_exponent(self):
        clf = head_only(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="zero"):
            tau_norm_classifier(clf, 0.5)
        with pytest.raises(ValueError, match="exponent"):
            tau_norm_classifier(head_only(np.eye(2)), 1.5)


class TestPosthocLaAdjust:
    def test_uniform_priors_shift_only(self):
        logits = np.array([0.4, -1.0, 2.0, 0.0, 1.0])
        got = posthoc_la_adjust(logits, np.full(5, 0.2))
        np.testing.assert_allclose(got, logits + np.log(5.0), atol=1e-12)
        assert np.argmax(got) == np.argmax(logits)

    def test_skewed_priors_favor_tail(self):
        got = posthoc_la_adjust(np.zeros(2), [0.9, 0.1])
        np.testing.assert_allclose(
            got, [0.1053605156578263, 2.3025850929940457], atol=1e-14)
        assert np.argmax(got) == 1

    def test_not_idempotent(self):
        pri = np.array([0.9, 0.1])
        once = posthoc_la_adjust(np.zeros(2), pri)
        twice = posthoc_la_adjust(once, pri)
        assert not np.array_equal(once, twice)

    def test_batch_form(self):
        logits = np.random.default_rng(3).normal(size=(4, 3))
        pri = np.array([0.5, 0.3, 0.2])
        got = posthoc_la_adjust(logits, pri)
        np.testing.assert_array_equal(got, logits - np.log(pri))

    def test_rejects_zero_prior(self):
        with pytest.raises(ValueError, match="positive"):
            posthoc_la_adjust(np.zeros(2), [1.0, 0.0])


class TestAttentionIo:
    def test_round_trip_exact(self, tmp_path):
        raw = np.random.default_rng(6).normal(size=9)
        path = tmp_path / "attention.csv"
        save_attention(path, raw)
        assert np.array_equal(load_attention(path), scale_weight(raw))
        written = [float(v) for v in path.read_text().split(",")]
        assert np.array_equal(written[:9], raw)

    def test_single_line_raw_then_scaled(self, tmp_path):
        path = tmp_path / "attention.csv"
        save_attention(path, [1.0, 3.0])
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        vals = [float(p) for p in lines[0].split(",")]
        assert vals == [1.0, 3.0, 0.0, 2.0]

    def test_rejects_odd_count(self, tmp_path):
        path = tmp_path / "attention.csv"
        path.write_text("1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="2d values"):
            load_attention(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "attention.csv"
        path.write_text("1.0,abc\n")
        with pytest.raises(ValueError, match="bad value"):
            load_attention(path)
