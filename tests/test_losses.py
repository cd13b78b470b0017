"""Unit tests for the training objectives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patt_lab import vmf
from patt_lab.config import TrainConfig
from patt_lab.data import sample_vmf
from patt_lab.losses import isac_loss_batch, oe_uniform_loss_batch, tla_loss_batch
from patt_lab.util import logsumexp_softmax

import oracles
from oracles import (VmfParams, isac_loss, la_loss, oe_uniform_loss, patt_total_loss,
                     scl_batch_loss, tla_loss)

LN10 = 2.302585092994046

finite_logits = st.lists(st.floats(-30, 30), min_size=2, max_size=8)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def vp(mu, kappa):
    mu = np.asarray(mu, dtype=np.float64)
    return VmfParams(mu=mu, kappa=kappa, dim=mu.size)


def e(i, d):
    v = np.zeros(d)
    v[i] = 1.0
    return v


def random_mixture(rng, k, d, kappa_hi=20.0):
    mus = rng.normal(size=(k, d))
    mus /= np.linalg.norm(mus, axis=1, keepdims=True)
    kappas = rng.uniform(0.5, kappa_hi, size=k)
    priors = rng.uniform(0.2, 1.0, size=k)
    priors /= priors.sum()
    comps = [vp(mus[j], kappas[j]) for j in range(k)]
    return oracles.mixture_of(comps, priors)


class TestOeUniformLoss:
    def test_already_uniform(self):
        out = oe_uniform_loss(np.zeros(10))
        assert out.value == pytest.approx(LN10, abs=1e-12)
        np.testing.assert_allclose(out.grad, 0.0, atol=1e-12)

    def test_two_logit_value(self):
        out = oe_uniform_loss([1.0, 0.0])
        assert out.value == pytest.approx(0.81326168751822283, abs=1e-12)

    def test_constant_logits(self):
        for c in (-7.0, 0.0, 3.5):
            out = oe_uniform_loss(np.full(6, c))
            assert out.value == pytest.approx(np.log(6), abs=1e-10)
            np.testing.assert_allclose(out.grad, 0.0, atol=1e-10)

    @given(finite_logits)
    @settings(max_examples=40)
    def test_shift_invariant(self, logits):
        base = oe_uniform_loss(logits).value
        shifted = oe_uniform_loss(np.asarray(logits) + 11.25).value
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.normal(size=rng.integers(2, 9))
            out = oe_uniform_loss(logits)
            fd = oracles.central_diff(lambda v: oe_uniform_loss(v).value, logits)
            np.testing.assert_allclose(out.grad, fd, rtol=1e-6, atol=1e-8)

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 4))
        vals, grads = oe_uniform_loss_batch(logits)
        for i in range(5):
            single = oe_uniform_loss(logits[i])
            assert vals[i] == pytest.approx(single.value, rel=1e-12)
            np.testing.assert_allclose(grads[i], single.grad, atol=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            oe_uniform_loss([1.0])
        with pytest.raises(ValueError):
            oe_uniform_loss([1.0, np.nan])


class TestSclBatchLoss:
    def test_identical_batch_collapses(self):
        z = np.tile(unit([1.0, 1.0, 0.0]), (6, 1))
        y = np.zeros(6, dtype=np.int64)
        assert scl_batch_loss(z, y, 0, tau=0.5) == pytest.approx(np.log(6),
                                                                 abs=1e-12)

    def test_singleton_batch(self):
        z = unit([0.0, 1.0, 0.0])[None, :]
        assert scl_batch_loss(z, np.array([3]), 0, tau=1.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_orthogonal_two_class_direct_sum(self):
        z = np.array([e(0, 2), e(0, 2), e(1, 2), e(1, 2)])
        y = np.array([0, 0, 1, 1])
        # direct evaluation with explicit loops
        sims = np.array([z[j] @ z[0] for j in range(4)])
        pos = [j for j in range(4) if y[j] == y[0]]
        direct = (np.log(len(pos))
                  - np.log(sum(np.exp(sims[j]) for j in pos))
                  + np.log(sum(np.exp(s) for s in sims)))
        assert scl_batch_loss(z, y, 0, tau=1.0) == pytest.approx(direct,
                                                                 rel=1e-12)

    def test_rejects_bad_args(self):
        z = np.eye(3)
        y = np.array([0, 1, 2])
        with pytest.raises(ValueError):
            scl_batch_loss(z, y, 0, tau=0.0)
        with pytest.raises(ValueError):
            scl_batch_loss(z, y, 5, tau=1.0)


class TestLaLoss:
    def test_uniform_symmetric(self):
        out = la_loss(np.zeros(10), 3, np.full(10, 0.1))
        assert out.value == pytest.approx(LN10, abs=1e-12)

    def test_tail_class_pays_its_prior(self):
        out = la_loss(np.zeros(2), 1, np.array([0.9, 0.1]))
        assert out.value == pytest.approx(2.3025850929940457, abs=1e-12)

    @given(finite_logits, st.floats(-50, 50))
    @settings(max_examples=40)
    def test_shift_invariant(self, logits, c):
        k = len(logits)
        priors = np.full(k, 1.0 / k)
        base = la_loss(logits, 0, priors).value
        shifted = la_loss(np.asarray(logits) + c, 0, priors).value
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            logits = rng.normal(size=k)
            priors = rng.uniform(0.1, 1.0, size=k)
            priors /= priors.sum()
            y = int(rng.integers(0, k))
            out = la_loss(logits, y, priors)
            fd = oracles.central_diff(lambda v: la_loss(v, y, priors).value,
                                      logits)
            np.testing.assert_allclose(out.grad, fd, rtol=1e-6, atol=1e-8)

    def test_gradient_sums_to_zero(self):
        out = la_loss([2.0, -1.0, 0.5], 2, [0.5, 0.3, 0.2])
        assert out.grad.sum() == pytest.approx(0.0, abs=1e-12)

    def test_zero_prior_target_rejected(self):
        with pytest.raises(ValueError):
            la_loss([0.0, 0.0], 1, [1.0, 0.0])


class TestTlaLoss:
    def test_uniform_symmetric_any_epsilon(self):
        for eps in (0.25, 0.7, 1.0, 3.0):
            out = tla_loss(np.zeros(5), 2, np.full(5, 0.2), eps)
            assert out.value == pytest.approx(np.log(5), abs=1e-12)

    def test_joint_rescaling_invariance(self):
        logits = np.array([1.5, -0.5, 0.25])
        priors = np.array([0.6, 0.3, 0.1])
        for c in (2.0, 5.0, 0.3):
            a = tla_loss(logits, 1, priors, 0.7).value
            b = tla_loss(logits / c, 1, priors, 0.7 / c).value
            assert b == pytest.approx(a, rel=1e-12)

    def test_sharpened_tail_value(self):
        out = tla_loss([1.0, 0.0], 1, [0.9, 0.1], epsilon=0.5)
        assert out.value == pytest.approx(4.2121498923021965, abs=1e-12)

    def test_epsilon_one_is_plain_adjustment(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            logits = rng.normal(size=k)
            priors = rng.uniform(0.05, 1.0, size=k)
            priors /= priors.sum()
            y = int(rng.integers(0, k))
            a = tla_loss(logits, y, priors, epsilon=1.0)
            b = la_loss(logits, y, priors)
            assert a.value == pytest.approx(b.value, rel=1e-12)
            np.testing.assert_allclose(a.grad, b.grad, atol=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(2, 7))
            logits = rng.normal(size=k)
            priors = rng.uniform(0.1, 1.0, size=k)
            priors /= priors.sum()
            y = int(rng.integers(0, k))
            eps = float(rng.uniform(0.2, 2.0))
            out = tla_loss(logits, y, priors, eps)
            fd = oracles.central_diff(
                lambda v: tla_loss(v, y, priors, eps).value, logits)
            np.testing.assert_allclose(out.grad, fd, rtol=1e-6, atol=1e-8)

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 4))
        y = rng.integers(0, 4, size=6)
        priors = np.full(4, 0.25)
        vals, grads = tla_loss_batch(logits, y, priors, 0.7)
        for i in range(6):
            single = tla_loss(logits[i], int(y[i]), priors, 0.7)
            assert vals[i] == pytest.approx(single.value, rel=1e-12)
            np.testing.assert_allclose(grads[i], single.grad, atol=1e-12)


class TestIsacLoss:
    def test_identical_classes_symmetric(self):
        p = vp(e(0, 3), 5.0)
        mix = oracles.mixture_of([p] * 4, np.full(4, 0.25))
        out = isac_loss(mix, unit([1.0, 2.0, -1.0]), 2, tau=0.5)
        assert out.value == pytest.approx(np.log(4), abs=1e-10)
        np.testing.assert_allclose(out.grad, 0.0, atol=1e-10)

    def test_two_class_closed_form_chain(self):
        mix = oracles.mixture_of(
            [vp(e(0, 3), 2.0), vp(-e(0, 3), 2.0)],
            np.array([0.5, 0.5]))
        out = isac_loss(mix, e(0, 3), 0, tau=1.0)
        assert out.value == pytest.approx(0.30153415049965461, rel=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        mix = random_mixture(rng, 4, 5)
        z = unit(rng.normal(size=5))
        base = isac_loss(mix, z, 1, tau=0.3)
        perm = np.array([2, 0, 3, 1])
        comps = oracles.components_of(mix)
        mix_p = oracles.mixture_of([comps[j] for j in perm], mix.priors[perm])
        y_p = int(np.flatnonzero(perm == 1)[0])
        out = isac_loss(mix_p, z, y_p, tau=0.3)
        assert out.value == pytest.approx(base.value, rel=1e-12)
        np.testing.assert_allclose(out.grad, base.grad, atol=1e-10)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            d = int(rng.integers(3, 9))
            k = int(rng.integers(2, 6))
            mix = random_mixture(rng, k, d)
            z = unit(rng.normal(size=d))
            y = int(rng.integers(0, k))
            out = isac_loss(mix, z, y, tau=0.4)
            fd = oracles.central_diff(
                lambda v: isac_loss(mix, v, y, tau=0.4).value, z)
            np.testing.assert_allclose(out.grad, fd, rtol=1e-5, atol=1e-7)

    def test_batch_matches_rows(self):
        rng = np.random.default_rng(8)
        mix = random_mixture(rng, 3, 4)
        z = rng.normal(size=(5, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        y = rng.integers(0, 3, size=5)
        vals, grads = isac_loss_batch(mix, z, y, tau=0.5)
        for i in range(5):
            single = isac_loss(mix, z[i], int(y[i]), tau=0.5)
            assert vals[i] == pytest.approx(single.value, rel=1e-12)
            np.testing.assert_allclose(grads[i], single.grad, atol=1e-12)

    def test_finite_batch_limit(self):
        # mean absolute gap between the batch loss (less its ln|B_y| offset)
        # and the closed form shrinks with batch size; single draws are too
        # noisy to compare, so average over anchors and redraws. The full
        # three-size sweep lives in the acceptance suite.
        rng = np.random.default_rng(9)
        mix = random_mixture(rng, 3, 5, kappa_hi=8.0)
        mean_gaps = []
        for size in (2 ** 8, 2 ** 11):
            gaps = []
            for rep in range(3):
                feats, labels = _mixture_batch(mix, size, seed=40 + rep)
                for a in range(6):
                    y = int(rng.integers(0, 3))
                    z = sample_vmf(mix.mus[y], mix.kappas[y], 1, seed=900 + a)[0]
                    target = isac_loss(mix, z, y, tau=1.0).value
                    f = np.vstack([z[None, :], feats])
                    l = np.concatenate([[y], labels])
                    scl = scl_batch_loss(f, l, 0, tau=1.0)
                    gaps.append(abs(scl - np.log(np.sum(l == y)) - target))
            mean_gaps.append(np.mean(gaps))
        assert mean_gaps[1] < mean_gaps[0]

    def test_rejects_bad_labels(self):
        rng = np.random.default_rng(10)
        mix = random_mixture(rng, 3, 4)
        with pytest.raises(ValueError):
            isac_loss(mix, unit(rng.normal(size=4)), 3, tau=0.5)


class TestIsacGramForm:
    """The Gram-product kernel against the (n, K, d) tensor form it
    replaced: gradients within 1e-10 of the largest entry, values within
    1e-9 relative with a 1e-12 absolute floor (the losses near 0 are where
    the two roundings part)."""

    @staticmethod
    def assert_matches_tensor(mix, z, y, tau):
        vals, grads = isac_loss_batch(mix, z, y, tau)
        want_vals, want_grads = oracles.isac_loss_batch_tensor(mix, z, y, tau)
        assert np.isfinite(vals).all() and np.isfinite(grads).all()
        np.testing.assert_allclose(vals, want_vals, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(grads, want_grads, rtol=0.0,
                                   atol=1e-10 * np.abs(want_grads).max())

    @pytest.mark.parametrize("k", [10, 100])
    @pytest.mark.parametrize("d", [8, 32])
    def test_matches_tensor_form(self, k, d):
        # kappas from the plain-series range up to the cap, and one batch of
        # features that each mixture's Bessel pass sees in every branch
        rng = np.random.default_rng(k + d)
        mus = rng.normal(size=(k, d))
        mus /= np.linalg.norm(mus, axis=1, keepdims=True)
        kappas = np.geomspace(0.5, vmf.KAPPA_MAX, k)
        priors = rng.uniform(0.2, 1.0, size=k)
        mix = vmf.VmfMixture(mus=mus, kappas=rng.permutation(kappas), priors=priors / priors.sum())
        z = rng.normal(size=(64, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        y = rng.integers(0, k, size=64)
        for tau in (0.1, 0.5):
            self.assert_matches_tensor(mix, z, y, tau)
        # classes tight enough that every concentration is asymptotic
        mix = vmf.VmfMixture(mus=mus, kappas=np.full(k, 2000.0), priors=mix.priors)
        self.assert_matches_tensor(mix, z, y, 0.1)

    @pytest.mark.parametrize("d", [3, 8, 32])
    def test_cancellation_point(self, d):
        # kappa_j mu_j = -z / tau for row j and class j: the tensor form's
        # tilted vector is exactly 0 (2 z and -2 z are exact at tau = 0.5),
        # and the Gram form's squared norm rounds to about +-1e-15, clamped
        # at 0, so the lane takes the uniform law or its limit
        rng = np.random.default_rng(d)
        k = 6
        z = rng.normal(size=(k, d))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        z[0] = e(0, d)  # the squared form is exactly 4 - 8 + 4 = 0 here
        mix = vmf.VmfMixture(mus=-z, kappas=np.full(k, 2.0), priors=np.full(k, 1.0 / k))
        for y in (np.arange(k), (np.arange(k) + 1) % k):
            self.assert_matches_tensor(mix, z, y, 0.5)


def _mixture_batch(mix, n, seed):
    """Nested sampler: labels by prior, features from each class component."""
    rng = np.random.default_rng(seed)
    labels = rng.choice(mix.n_classes, size=n, p=mix.priors)
    feats = np.empty((n, mix.dim))
    for j in range(mix.n_classes):
        rows = np.flatnonzero(labels == j)
        if rows.size:
            feats[rows] = sample_vmf(mix.mus[j], mix.kappas[j], rows.size, seed=seed + j)
    return feats, labels


class TestPattTotalLoss:
    def _inputs(self, seed=11):
        rng = np.random.default_rng(seed)
        mix = random_mixture(rng, 4, 6)
        z = unit(rng.normal(size=6))
        logits = rng.normal(size=4)
        ood = rng.normal(size=(3, 4))
        priors = mix.priors
        return mix, z, logits, ood, priors

    def test_alpha_beta_zero_reduces_to_contrastive(self):
        mix, z, logits, ood, priors = self._inputs()
        hyper = TrainConfig(tau=0.4, epsilon=0.7, alpha=0.0, beta=0.0)
        out = patt_total_loss(mix, z, 1, logits, ood, hyper, priors)
        ref = isac_loss(mix, z, 1, tau=0.4)
        assert out.value == pytest.approx(ref.value, rel=1e-12)
        np.testing.assert_allclose(out.grad_z, ref.grad, atol=1e-12)
        np.testing.assert_allclose(out.grad_logits, 0.0, atol=1e-12)

    def test_symmetric_degenerate_composition(self):
        p = vp(e(0, 3), 2.0)
        mix = oracles.mixture_of([p] * 5, np.full(5, 0.2))
        hyper = TrainConfig(tau=0.5, epsilon=0.7, alpha=0.5, beta=0.1)
        out = patt_total_loss(mix, e(1, 3), 0, np.zeros(5), np.zeros((2, 5)),
                              hyper, np.full(5, 0.2))
        lnk = np.log(5)
        assert out.value == pytest.approx(lnk + 0.5 * lnk + 0.1 * lnk,
                                          rel=1e-10)

    def test_empty_outlier_batch(self):
        mix, z, logits, _, priors = self._inputs()
        hyper = TrainConfig()
        for ood in (None, np.zeros((0, 4))):
            out = patt_total_loss(mix, z, 0, logits, ood, hyper, priors)
            assert out.oe == 0.0
            assert out.grad_ood_logits is None

    def test_term_composition(self):
        mix, z, logits, ood, priors = self._inputs(12)
        hyper = TrainConfig(tau=0.3, epsilon=0.6, alpha=0.8, beta=0.25)
        out = patt_total_loss(mix, z, 2, logits, ood, hyper, priors)
        isac = isac_loss(mix, z, 2, tau=0.3)
        tla = tla_loss(logits, 2, priors, 0.6)
        oe_vals, _ = oe_uniform_loss_batch(ood)
        assert out.isac == pytest.approx(isac.value, rel=1e-12)
        assert out.tla == pytest.approx(tla.value, rel=1e-12)
        assert out.oe == pytest.approx(float(oe_vals.mean()), rel=1e-12)
        assert out.value == pytest.approx(
            isac.value + 0.8 * tla.value + 0.25 * out.oe, rel=1e-12)
        np.testing.assert_allclose(out.grad_logits, 0.8 * tla.grad, atol=1e-12)

    def test_combined_gradients_match_fd(self):
        mix, z, logits, ood, priors = self._inputs(13)
        hyper = TrainConfig(tau=0.4, epsilon=0.7, alpha=0.5, beta=0.1)
        out = patt_total_loss(mix, z, 1, logits, ood, hyper, priors)
        fd_z = oracles.central_diff(
            lambda v: patt_total_loss(mix, v, 1, logits, ood, hyper,
                                      priors).value, z)
        fd_logits = oracles.central_diff(
            lambda v: patt_total_loss(mix, z, 1, v, ood, hyper, priors).value,
            logits)
        np.testing.assert_allclose(out.grad_z, fd_z, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(out.grad_logits, fd_logits, rtol=1e-6,
                                   atol=1e-8)
        flat_fd = oracles.central_diff(
            lambda v: patt_total_loss(mix, z, 1, logits, v.reshape(ood.shape),
                                      hyper, priors).value, ood.ravel())
        np.testing.assert_allclose(out.grad_ood_logits.ravel(), flat_fd,
                                   rtol=1e-6, atol=1e-8)


class TestPattHyper:
    """The objective's weights, fields of ``TrainConfig``."""

    def test_defaults(self):
        h = TrainConfig()
        assert (h.tau, h.epsilon, h.alpha, h.beta) == (0.1, 0.7, 0.5, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(tau=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epsilon=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(alpha=-0.1)


class TestLogsumexpSoftmax:
    """The one exp pass gives the bits of the two-pass references."""

    def test_tla_rows_with_a_zero_prior(self):
        rng = np.random.default_rng(8)
        logits = 4.0 * rng.normal(size=(64, 6))
        priors = np.array([0.4, 0.3, 0.0, 0.2, 0.1, 0.0])
        with np.errstate(divide="ignore"):
            a = np.log(priors) + logits / 0.7
        lse, probs = logsumexp_softmax(a)
        np.testing.assert_array_equal(lse, oracles.logsumexp_ref(a))
        np.testing.assert_array_equal(probs, oracles.softmax_ref(a))
        assert np.all(probs[:, [2, 5]] == 0.0)
        y = rng.integers(0, 2, size=64)
        vals, grads = tla_loss_batch(logits, y, priors, 0.7)
        np.testing.assert_array_equal(vals, oracles.logsumexp_ref(a) - a[np.arange(64), y])

    def test_single_row_and_an_all_dropped_row(self):
        v = np.array([-np.inf, 2.0, -1.0, 700.0])
        lse, probs = logsumexp_softmax(v)
        assert lse.shape == () and lse == oracles.logsumexp_ref(v)
        np.testing.assert_array_equal(probs, oracles.softmax_ref(v))
        dropped = np.array([[-np.inf, -np.inf], [0.0, 1.0]])
        with np.errstate(divide="ignore", invalid="ignore"):
            lse, probs = logsumexp_softmax(dropped)
            want_lse, want = oracles.logsumexp_ref(dropped), oracles.softmax_ref(dropped)
        np.testing.assert_array_equal(lse, want_lse)
        assert lse[0] == -np.inf
        np.testing.assert_array_equal(probs, want)
