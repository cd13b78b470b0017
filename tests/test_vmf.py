"""Unit tests for the hypersphere density toolkit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patt_lab import losses, vmf
from patt_lab.config import MU_NORM_TOL
from patt_lab.data import sample_vmf
from patt_lab.model import (EncoderClassifier, TrainConfig, TrainState, check_stats,
                            encoder_forward, load_checkpoint, save_checkpoint, train_step)
from patt_lab.vmf import (KAPPA_MAX, _log_norm_and_ratio, bessel_ratio, estimate_class_stats,
                          log_bessel_i, log_norm_const)

import oracles
from oracles import (VmfParams, full_stats, log_bessel_i_at, log_sum_exp, mixture_log_pdf,
                     vmf_log_pdf, vmf_mgf_log)

LN2 = 0.6931471805599453


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


class TestLogSumExp:
    def test_equal_terms(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(LN2, abs=1e-12)

    def test_no_overflow_at_large_shift(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000 + LN2, abs=1e-9)

    def test_two_terms(self):
        assert log_sum_exp([1.0, 0.0]) == pytest.approx(1.3132616875182228, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            log_sum_exp([0.0, np.inf])
        with pytest.raises(ValueError):
            log_sum_exp([np.nan])
        with pytest.raises(ValueError):
            log_sum_exp([])

    @given(st.lists(st.floats(-500, 500), min_size=1, max_size=30))
    def test_matches_pairwise_reduction(self, vals):
        expect = np.logaddexp.reduce(np.asarray(vals, dtype=np.float64))
        assert log_sum_exp(vals) == pytest.approx(float(expect), rel=1e-12, abs=1e-12)


class TestLogBesselI:
    def test_at_origin(self):
        # the package evaluates positive arguments only: kappa = 0 is the
        # uniform law, which the callers handle without a Bessel pass
        with pytest.raises(ValueError, match="finite and positive"):
            log_bessel_i([0.0], [1.0, 0.0])

    def test_half_integer_value(self):
        assert log_bessel_i_at(0.5, 2.0) == pytest.approx(0.71600242968946804, rel=1e-9)

    def test_series_value(self):
        assert log_bessel_i_at(1.0, 1.0) == pytest.approx(-0.57064798749083128, rel=1e-10)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.5, 8.0])
    def test_series_oracle_small_x(self, nu):
        for x in [1e-3, 0.1, 0.7, 2.0, 5.0, 11.0, 17.0, 20.0]:
            ref = oracles.log_bessel_series(nu, x)
            assert log_bessel_i_at(nu, x) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_half_integer_forms(self, nu):
        for x in [0.05, 0.5, 3.0, 12.0, 40.0, 200.0]:
            ref = oracles.log_bessel_half(nu, x)
            assert log_bessel_i_at(nu, x) == pytest.approx(ref, rel=1e-9)

    def test_large_argument_branch(self):
        # frozen from a 50-digit evaluation; covers the asymptotic regime
        cases = [
            (0.0, 50.0, 47.127575501871805),
            (0.0, 350.0, 346.15245254414009),
            (0.0, 10000.0, 9994.4759037814323),
            (0.5, 1000.0, 995.62718382730426),
            (2.0, 350.0, 346.14673008545923),
            (4.5, 50.0, 46.923150158016488),
            (4.5, 10000.0, 9994.4748912308189),
        ]
        for nu, x, ref in cases:
            assert log_bessel_i_at(nu, x) == pytest.approx(ref, rel=1e-12)

    def test_array_argument(self):
        xs = np.array([0.5, 2.0, 40.0])
        out = log_bessel_i([1.0], xs)
        assert out.shape == (1, 3)
        out = out[0]
        for x, got in zip(xs, out):
            assert got == pytest.approx(oracles.log_bessel_mp(1.0, x), rel=1e-10)

    def test_stacked_orders_match_single_orders(self):
        # every branch, and both sides of the order-dependent cuts
        xs = np.array([[1e-3, 0.3, 12.0, 29.9], [30.0, 310.0, 449.0, 451.0],
                       [511.0, 513.0, 700.0, 9000.0]])
        orders = (0.0, 2.5, 15.0, 16.0)
        out = log_bessel_i(orders, xs)
        assert out.shape == (4,) + xs.shape
        for row, nu in zip(out, orders):
            np.testing.assert_array_equal(row, log_bessel_i([nu], xs)[0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_bessel_i([1.0], [-1.0])
        with pytest.raises(ValueError):
            log_bessel_i([-0.5], [1.0])


class TestLogNormConst:
    def test_uniform_sphere(self):
        assert log_norm_const(3, 0.0) == pytest.approx(-2.5310242469692908, abs=1e-12)

    def test_uniform_circle(self):
        assert log_norm_const(2, 0.0) == pytest.approx(-1.8378770664093455, abs=1e-12)

    def test_three_dim_closed_form(self):
        assert log_norm_const(3, 2.0) == pytest.approx(-3.1262444390235136, rel=1e-10)

    def test_closed_form_grid(self):
        for kappa in np.geomspace(0.01, 50.0, 40):
            assert log_norm_const(3, kappa) == pytest.approx(
                oracles.log_z3(kappa), rel=1e-9)

    def test_continuity_at_zero(self):
        for d in (2, 3, 8, 16):
            assert log_norm_const(d, 1e-8) == pytest.approx(
                log_norm_const(d, 0.0), abs=1e-6)

    def test_strictly_decreasing_in_kappa(self):
        kappas = [0.0, 0.1, 0.5, 1.0, 3.0, 10.0, 30.0, 100.0, 1000.0]
        for d in (2, 3, 5, 8, 16):
            vals = [log_norm_const(d, k) for k in kappas]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            log_norm_const(1, 1.0)
        with pytest.raises(ValueError):
            log_norm_const(3, -0.5)


class TestVmfLogPdf:
    def test_uniform_any_point(self):
        p = vp(e(0, 3), 0.0)
        z = unit([1.0, 2.0, -0.5])
        assert vmf_log_pdf(p, z) == pytest.approx(-2.5310242469692908, abs=1e-12)

    def test_at_mean_direction(self):
        p = vp(e(0, 3), 2.0)
        assert vmf_log_pdf(p, e(0, 3)) == pytest.approx(
            -3.1262444390235136 + 2.0, rel=1e-10)

    def test_antipodal(self):
        p = vp(e(0, 3), 2.0)
        assert vmf_log_pdf(p, -e(0, 3)) == pytest.approx(
            -3.1262444390235136 - 2.0, rel=1e-10)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        p = vp(unit(rng.normal(size=5)), 4.0)
        zs = np.array([unit(rng.normal(size=5)) for _ in range(7)])
        batch = vmf_log_pdf(p, zs)
        for i in range(7):
            assert batch[i] == pytest.approx(vmf_log_pdf(p, zs[i]), rel=1e-12)

    def test_density_integrates_to_one_monte_carlo(self):
        # uniform-proposal MC at 3% tolerance; cells whose estimator spread
        # (3 sigma from the closed-form second moment) exceeds the tolerance
        # cannot be checked this way and are covered by the quadrature test
        rng = np.random.default_rng(11)
        n = 10 ** 6
        tol = 0.03
        for d in (2, 3, 5, 8, 16):
            zs = rng.normal(size=(n, d))
            zs /= np.linalg.norm(zs, axis=1, keepdims=True)
            area = -log_norm_const(d, 0.0)
            mu = unit(np.arange(1, d + 1))
            for kappa in (0.0, 0.1, 1.0, 10.0, 100.0):
                ln_second = area + 2 * log_norm_const(d, kappa) \
                    - log_norm_const(d, 2 * kappa)
                rel_std = np.sqrt(max(np.exp(ln_second) - 1.0, 0.0) / n)
                if 3.0 * rel_std > tol:
                    continue
                mix = oracles.mixture_of([vp(mu, kappa)], np.array([1.0]))
                log_pdf = mixture_log_pdf(mix, zs)
                integral = np.exp(area) * np.mean(np.exp(log_pdf))
                assert integral == pytest.approx(1.0, rel=tol)

    def test_density_integrates_to_one_quadrature(self):
        # every cell, including the MC-infeasible high-concentration ones
        for d in (2, 3, 5, 8, 16):
            for kappa in (0.0, 0.1, 1.0, 10.0, 100.0):
                total = log_norm_const(d, kappa) \
                    + oracles.log_sphere_integral(d, kappa)
                assert total == pytest.approx(0.0, abs=1e-9)


class TestMixtureLogPdf:
    def test_single_class(self):
        p = vp(e(1, 4), 3.0)
        mix = oracles.mixture_of([p], np.array([1.0]))
        z = unit([0.3, -1.0, 0.2, 0.9])
        assert mixture_log_pdf(mix, z) == pytest.approx(vmf_log_pdf(p, z), rel=1e-12)

    def test_identical_classes_collapse(self):
        p = vp(e(0, 3), 5.0)
        mix = oracles.mixture_of([p] * 4, np.full(4, 0.25))
        z = unit([1.0, 1.0, 0.0])
        assert mixture_log_pdf(mix, z) == pytest.approx(vmf_log_pdf(p, z), rel=1e-12)

    def test_two_class_direct_sum(self):
        p1 = vp(e(0, 3), 2.0)
        p2 = vp(unit([0.0, 1.0, 1.0]), 7.0)
        mix = oracles.mixture_of([p1, p2], np.array([0.3, 0.7]))
        z = unit([1.0, -1.0, 0.5])
        direct = np.logaddexp(np.log(0.3) + vmf_log_pdf(p1, z),
                              np.log(0.7) + vmf_log_pdf(p2, z))
        assert mixture_log_pdf(mix, z) == pytest.approx(float(direct), rel=1e-12)


class TestMgfLog:
    def test_zero_argument(self):
        p = vp(e(0, 3), 4.0)
        assert vmf_mgf_log(p, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)

    def test_three_dim_closed_form(self):
        p = vp(e(0, 3), 1.0)
        assert vmf_mgf_log(p, e(0, 3)) == pytest.approx(0.43378083048302719, rel=1e-9)

    def test_monte_carlo_agreement(self):
        p = vp(e(0, 3), 1.0)
        t = 2.0 * e(0, 3)
        zs = sample_vmf(p.mu, p.kappa, 10 ** 5, seed=123)
        mc = np.log(np.mean(np.exp(zs @ t)))
        assert vmf_mgf_log(p, t) == pytest.approx(float(mc), rel=0.02)


class TestEstimateClassStats:
    # a second padding class is always present: priors need >= 2 classes

    def test_antipodal_pairs_give_zero_kappa(self):
        z = np.array([e(0, 3), -e(0, 3), e(1, 3), -e(1, 3), e(2, 3)])
        y = np.array([0, 0, 0, 0, 1])
        mix = full_stats(z, y, [4, 1])[0]
        assert mix.kappas[0] == pytest.approx(0.0, abs=1e-9)

    def test_identical_vectors_hit_clamp(self):
        v = unit([1.0, 2.0, 2.0])
        z = np.array([v, v, v, e(1, 3)])
        y = np.array([0, 0, 0, 1])
        mix = full_stats(z, y, [3, 1])[0]
        np.testing.assert_allclose(mix.mus[0], v, atol=1e-12)
        assert mix.kappas[0] == KAPPA_MAX

    def test_half_resultant_formula(self):
        # two unit vectors at +-60 degrees: mean length exactly 0.5
        s = np.sqrt(3.0) / 2.0
        z = np.array([[0.5, s, 0.0], [0.5, -s, 0.0], [0.0, 0.0, 1.0]])
        y = np.array([0, 0, 1])
        mix = full_stats(z, y, [2, 1])[0]
        assert mix.kappas[0] == pytest.approx(11.0 / 6.0, rel=1e-12)

    def test_idempotent_on_repeated_batch(self):
        # momentum 0 replaces a present class's sums by the batch's
        rng = np.random.default_rng(4)
        z = rng.normal(size=(30, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        y = np.sort(rng.integers(0, 2, size=30))
        counts = np.bincount(y, minlength=2)
        first, sums, n = full_stats(z, y, counts)
        mus, kappas = estimate_class_stats(z, y, sums, n, momentum=0.0)[:2]
        for mu_a, mu_b in zip(first.mus, mus):
            np.testing.assert_allclose(mu_a, mu_b, atol=1e-12)
        for kappa_a, kappa_b in zip(first.kappas, kappas):
            assert kappa_a == pytest.approx(kappa_b, rel=1e-12)

    def test_absent_class_keeps_previous(self):
        z0 = np.array([e(0, 3), e(1, 3), unit([1.0, 1.0, 0.0])])
        first, sums, counts = full_stats(z0, np.array([0, 1, 1]), [5, 5])
        z1 = np.array([e(2, 3)])
        mus, kappas, new_sums, new_counts = estimate_class_stats(z1, np.array([0]), sums, counts,
                                                                 momentum=0.9)
        np.testing.assert_array_equal(mus[1], first.mus[1])
        assert kappas[1] == first.kappas[1]
        np.testing.assert_array_equal(new_sums[1], sums[1])
        assert new_counts[1] == counts[1]

    def test_decay_blends_the_sums(self):
        # class 0: two equal rows, then an antipodal pair. The mixture comes
        # from the decayed sums, S = 0.9 * 2 e0 and N = 0.9 * 2 + 2; a blend
        # of the two estimates would give kappa = 0.9 KAPPA_MAX
        v = e(0, 3)
        prev, sums, counts = full_stats(
            np.array([v, v, e(1, 3), -e(1, 3)]), np.array([0, 0, 1, 1]), [2, 2])
        assert prev.kappas[0] == KAPPA_MAX
        batch = np.array([e(2, 3), -e(2, 3), e(1, 3), e(1, 3)])
        mus, kappas, sums, counts = estimate_class_stats(batch, np.array([0, 0, 1, 1]), sums,
                                                         counts, momentum=0.9)
        np.testing.assert_allclose(sums, [1.8 * v, 2.0 * e(1, 3)], rtol=1e-15)
        np.testing.assert_allclose(counts, [3.8, 3.8], rtol=1e-15)
        np.testing.assert_array_equal(mus, [v, e(1, 3)])
        for kappa, r in zip(kappas, (1.8 / 3.8, 2.0 / 3.8)):
            assert kappa == pytest.approx(r * (3.0 - r * r) / (1.0 - r * r), rel=1e-14)

    def test_priors_fixed_from_counts(self):
        # the priors come from the split's class counts, once, and stay out
        # of the estimator: a step that refreshes the statistics from a
        # batch of one class leaves the state's priors, bit for bit
        z = np.array([e(0, 3)] * 3 + [e(1, 3)])
        y = np.array([0, 0, 0, 1])
        mix = full_stats(z, y, [30, 10])[0]
        np.testing.assert_allclose(mix.priors, [0.75, 0.25], atol=1e-12)
        net = EncoderClassifier.init(2, (4,), 3, 2, seed=0)
        x = np.random.default_rng(0).normal(size=(4, 2))
        state = TrainState(net, TrainConfig(), mix.priors)
        state.mus, state.kappas, state.sums, state.counts = estimate_class_stats(
            encoder_forward(net, x), y, np.zeros((2, 3)), np.zeros(2))
        before = mix.priors.tobytes()
        train_step(state, (x[:2], y[:2]), None)
        assert state.priors is mix.priors and mix.priors.tobytes() == before


def top_cut(dim):
    # the larger of the two orders' asymptotic cuts
    return max(30.0, 2.0 * (0.5 * dim) ** 2)


def assert_rel(got, want, rtol=1e-15):
    # relative error at most rtol, elementwise, with the worst one reported
    got, want = np.asarray(got), np.asarray(want)
    err = np.abs(got - want) / np.abs(want)
    assert (err <= rtol).all(), f"relative error {err.max():.3g} at {np.argmax(err)}"


class TestFusedNormAndRatio:
    """One Bessel pass over both orders gives log C_d and A_d together."""

    @pytest.mark.parametrize("d", [2, 3, 8, 32])
    def test_asymptotic_branch_is_exact(self, d):
        # Every lane is at or above both orders' cuts, so A_d is the quotient
        # of the two asymptotic sums. Taken as exp(log I_{d/2} - log I_{d/2-1})
        # it was off by 6e-13 to 1.2e-12 relative at large kappa.
        cut = top_cut(d)
        x = np.concatenate([[cut, np.nextafter(cut, np.inf)], np.geomspace(cut, KAPPA_MAX, 40)])
        log_norm, ratio = _log_norm_and_ratio(d, x)
        want_norm, want_ratio = oracles.norm_and_ratio_mp(d, x)
        assert_rel(log_norm, want_norm)
        assert_rel(ratio, want_ratio)

    @pytest.mark.parametrize("d", [2, 3, 8, 32])
    @pytest.mark.parametrize("extra", ["zero", "five", "below_cut"])
    def test_asymptotic_lanes_keep_their_ratio_beside_any_lane(self, d, extra):
        # The branch is chosen per lane: a lane at or above the cut takes
        # the quotient of the asymptotic sums whatever else the call holds.
        # Chosen per call, one lane below the cut sent every lane through
        # exp(log I_{d/2} - log I_{d/2-1}), off by up to 6.9e-13 at d = 8.
        cut = top_cut(d)
        x = np.concatenate([[cut, np.nextafter(cut, np.inf)], np.geomspace(cut, KAPPA_MAX, 40)])
        lane = {"zero": 0.0, "five": 5.0, "below_cut": cut - 1.0}[extra]
        log_norm, ratio = _log_norm_and_ratio(d, np.append(x, lane))
        want_norm, want_ratio = oracles.norm_and_ratio_mp(d, x)
        assert_rel(ratio[:-1], want_ratio)
        assert_rel(log_norm[:-1], want_norm)

    def test_mixed_branches_match_separate_calls(self):
        # d = 32: the cuts are 450 (nu = 15) and 512 (nu = 16), so x in
        # [450, 512) takes the asymptotic branch for one order and the log
        # series for the other; kappa = 0 entries are the uniform law
        d = 32
        x = np.concatenate([[0.0, 1e-3, 0.5], np.linspace(5.0, 299.0, 7),
                            np.linspace(300.0, 449.0, 5), np.linspace(450.0, 511.9, 9),
                            [512.0, 700.0, 0.0, 5000.0]]).reshape(4, 7)
        log_norm, ratio = _log_norm_and_ratio(d, x)
        assert log_norm.shape == ratio.shape == x.shape
        # criterion 4's tolerance: relative 1e-10 with an absolute floor 1e-12
        want_norm, want_ratio = oracles.norm_and_ratio_separate(d, x)
        np.testing.assert_allclose(log_norm, want_norm, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(ratio, want_ratio, rtol=1e-10, atol=1e-12)
        assert np.all(ratio[x == 0.0] == 0.0)

    def test_isac_makes_one_bessel_pass(self, monkeypatch):
        # at most one log_bessel_i pass, over both orders, and none when
        # every class and tilted concentration is at or above the cut
        calls = []
        original = vmf.log_bessel_i

        def counting(nu, x):
            calls.append(np.shape(nu))
            return original(nu, x)

        monkeypatch.setattr(vmf, "log_bessel_i", counting)
        rng = np.random.default_rng(2)
        z = rng.normal(size=(40, 8))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        y = np.arange(40) % 5
        mix = full_stats(z, y, [8] * 5)[0]
        losses.isac_loss_batch(*mix, z, y, 0.1)
        assert calls == [(2,)]
        calls.clear()
        # tight classes: every tilted concentration, at least kappa - 1/tau,
        # is at or above the cut
        tight = mix.mus[y] + 0.02 * rng.normal(size=z.shape)
        tight /= np.linalg.norm(tight, axis=1, keepdims=True)
        mix = full_stats(tight, y, [8] * 5)[0]
        assert mix.kappas.min() - 1.0 / 0.1 >= top_cut(8)
        losses.isac_loss_batch(*mix, tight, y, 0.1)
        assert calls == []


class TestBlockBesselKernel:
    """The asymptotic kernel: the sums of several orders as one block,
    Horner's rule in 1/x with a term count fixed by the smallest argument.
    ``_log_norm_and_ratio`` runs it on both orders at its lanes at or above
    the cut, and ``log_bessel_i`` on each order's asymptotic lanes; both
    are held to a 40-digit oracle at 1e-15 relative."""

    @pytest.mark.parametrize("dim", [2, 3, 8, 32])
    def test_random_blocks(self, dim):
        rng = np.random.default_rng(dim)
        cut = top_cut(dim)
        x = cut * np.exp(rng.uniform(0.0, np.log(KAPPA_MAX / cut), size=(6, 5)))
        x.flat[::7] = 0.0  # kappa = 0 lanes take the uniform law
        pos = x > 0.0
        log_norm, ratio = _log_norm_and_ratio(dim, x)
        want_norm, want_ratio = oracles.norm_and_ratio_mp(dim, x[pos])
        assert_rel(log_norm[pos], want_norm)
        assert_rel(ratio[pos], want_ratio)
        assert (log_norm[~pos] == log_norm_const(dim, 0.0)).all() and (ratio[~pos] == 0.0).all()
        # the public wrappers keep the shape and the bits of the fused pass
        np.testing.assert_array_equal(log_norm_const(dim, x), log_norm)
        np.testing.assert_array_equal(bessel_ratio(dim, x), ratio)

    @pytest.mark.parametrize("dim", [2, 3, 8, 32, 64])
    def test_just_above_the_cut(self, dim):
        # log_bessel_i on each order's asymptotic branch, from its cut on
        for nu in (0.5 * dim - 1.0, 0.5 * dim):
            cut = max(30.0, 2.0 * nu * nu)
            x = np.array([cut, np.nextafter(cut, np.inf), cut * (1.0 + 1e-12),
                          cut + 1e-6, cut + 0.5, 2.0 * cut, KAPPA_MAX])
            want = [oracles.log_bessel_mp(nu, v) for v in x]
            assert_rel(log_bessel_i_at(nu, x), want)
            for v, w in zip(x, want):
                assert_rel(log_bessel_i_at(nu, np.array([v])), [w])

    def test_loop_stopping_at_terms_37_to_39(self):
        # Below the branch cut (x ~ 18.6) the series needs 37-39 terms, which
        # no element of the validated range does (those stop by term 17), so
        # the kernel is called directly. Each row mixes one slow element with
        # fast ones, whose sums then run to the same term; the last row never
        # converges and runs to the term cap.
        slow = np.array([[0.0, 18.56], [0.0, 18.55], [4.0, 18.968],
                         [4.0, 18.98], [2.0, 18.67], [0.0, 18.3]])
        stops = [oracles.log_bessel_asymptotic_ref(np.array([nu]), np.array([x]))[1]
                 for nu, x in slow]
        assert stops == [37, 38, 39, 38, 37, 39]
        for nu, x in slow:
            xs = np.array([x, 30.0, 400.0, 9000.0])
            got = vmf._log_bessel_asymptotic(nu, xs)
            assert_rel(got[1:], [oracles.log_bessel_mp(nu, v) for v in xs[1:]])
            assert_rel(got[0], oracles.log_bessel_asymptotic_ref(np.array([nu]), xs[:1])[0])
            # a row of a block has the bits of its order alone: the shorter
            # order's table is padded with zeros, which Horner adds exactly
            block = vmf._asymptotic_sum((nu, nu + 1.0, 0.5), xs)
            np.testing.assert_array_equal(block[0], vmf._asymptotic_sum((nu,), xs)[0])
            np.testing.assert_array_equal(block[2], 1.0)  # I_{1/2}: the sum ends at a_0

    def test_mixed_branches(self):
        # x in both branches for each order, and in different branches for
        # the two orders: the series lanes below 300 keep the bits of the
        # per-element kernels, and the series lanes from 300 on, whose sums
        # are rescaled, and the asymptotic lanes meet the 40-digit oracle
        x = np.concatenate([[1e-3, 0.5], np.linspace(5.0, 299.0, 7), [29.9, 31.99],
                            np.linspace(300.0, 449.0, 5), np.linspace(450.0, 511.9, 9),
                            [512.0, 700.0, 5000.0]])
        for dim in (2, 3, 8, 32, 64):
            if dim == 64:  # the cuts are 1922 (nu = 31) and 2048 (nu = 32)
                x = np.concatenate([x, np.linspace(1000.0, 1921.9, 4),
                                    np.linspace(1922.0, 2047.9, 6), [2048.0]])
            orders = np.array([0.5 * dim - 1.0, 0.5 * dim])
            got = log_bessel_i(orders, x)
            want = oracles.log_bessel_positive_ref(orders, x)
            for row, nu, w in zip(got, orders, want):
                large = x >= max(30.0, 2.0 * nu * nu)
                assert large.any() and not large.all()
                pinned = ~np.isnan(w) & ~large
                np.testing.assert_array_equal(row[pinned], w[pinned])
                assert_rel(row[~pinned], [oracles.log_bessel_mp(nu, v) for v in x[~pinned]])
                # orders above about 12 (d >= 26) have series lanes from 300 on
                assert (~pinned & ~large).any() == (dim >= 32)


class TestPlainSeriesBlock:
    """The series runs once as a block over every order, testing
    convergence every 4th term, and each order keeps its own lanes: below
    x = 300 they have the bits of the per-order loop, which tested after
    every term; from 300 to the cut, where the sums are rescaled, they meet
    the 40-digit oracle."""

    def test_random_blocks_match_the_per_order_loop(self):
        rng = np.random.default_rng(16)
        rescaled = []
        for _ in range(320):
            dim = int(rng.integers(2, 34))
            orders = np.array([0.5 * dim - 1.0, 0.5 * dim])
            x = np.exp(rng.uniform(np.log(1e-3), np.log(2000.0), size=int(rng.integers(1, 40))))
            got = log_bessel_i(orders, x)
            want = oracles.log_bessel_positive_per_order(orders, x)
            pinned = ~np.isnan(want)
            np.testing.assert_array_equal(got[pinned], want[pinned])
            rescaled += [(got[i, j], orders[i], x[j]) for i, j in zip(*np.nonzero(~pinned))]
        assert len(rescaled) > 20
        got, nu, x = zip(*rescaled)
        assert_rel(got, [oracles.log_bessel_mp(n, v) for n, v in zip(nu, x)])

    def test_orders_whose_lanes_differ(self):
        # four orders in one call, each with its series lanes ending at
        # another place: the cut is 30, 30, 128 and 450, and the lanes of
        # nu = 15 from 300 on are rescaled
        orders = np.array([0.0, 2.5, 8.0, 15.0])
        edges = [30.0, 128.0, 300.0, 450.0]
        x = np.concatenate([[1e-3, 0.7, 12.0], [np.nextafter(v, 0.0) for v in edges], edges,
                            [70.0, 200.0, 299.0, 1000.0]])
        got = log_bessel_i(orders, x)
        want = oracles.log_bessel_positive_per_order(orders, x)
        pinned = ~np.isnan(want)
        np.testing.assert_array_equal(got[pinned], want[pinned])
        assert_rel(got[3, ~pinned[3]], [oracles.log_bessel_mp(15.0, v) for v in x[~pinned[3]]])
        assert pinned[:3].all() and (~pinned[3]).sum() == 2


# orders from the lowest whose cut 2 nu^2 passes 300 (12.5, d = 27) to those
# of d = 128, in halves as d/2 - 1 and d/2 come
SERIES_ORDERS = (12.5, 13.0, 15.0, 16.0, 19.0, 24.0, 31.0, 32.0, 63.0, 64.0)


def log_bessel_error(nu, x):
    # |log_bessel_i - log I| / max(1, |log I|) against mpmath; plain relative
    # error blows up where I_nu(x) = 1
    want = np.array([oracles.log_bessel_mp(nu, v) for v in x.tolist()])
    return np.abs(log_bessel_i([nu], x)[0] - want) / np.maximum(1.0, np.abs(want))


class TestSeriesBelowTheCut:
    """One ascending series serves every x below an order's cut. Sums past
    1e150, which only x > 300 reach, are rescaled by powers of two."""

    @pytest.mark.parametrize("nu", SERIES_ORDERS)
    def test_from_300_to_the_cut_meets_mpmath(self, nu):
        # the straddle of 300, then on to just under the cut
        cut = 2.0 * nu * nu
        x = np.concatenate([[299.9, 300.0, 300.1], np.geomspace(300.0, cut, 150)[1:-1],
                            [np.nextafter(cut, 0.0)]])
        err = log_bessel_error(nu, x)
        assert err.max() <= 1e-14, f"{err.max():.3g} at x = {x[np.argmax(err)]!r}"

    @pytest.mark.parametrize("nu", SERIES_ORDERS)
    def test_below_300_meets_mpmath(self, nu):
        # Below 300 the series keeps its bits, and from nu ~ 31 on its
        # prefix nu log(x/2) - lgamma(nu + 1), two terms near 200 that cancel
        # where I_nu(x) ~ 1 (x ~ 0.7 nu), is off by more than 1e-14: up to
        # 1.6e-14 at nu = 31 and 32 and 4.3e-14 at nu = 63 and 64 on a dense
        # scan. Those orders are held to 5e-14 here.
        x = np.geomspace(1e-3, min(300.0, 2.0 * nu * nu), 800, endpoint=False)
        err = log_bessel_error(nu, x)
        bound = 1e-14 if nu < 31.0 else 5e-14
        assert err.max() <= bound, f"{err.max():.3g} at x = {x[np.argmax(err)]!r}"

    @pytest.mark.parametrize("nu", [63.0, 64.0])
    def test_each_lane_has_its_bits_alone(self, nu):
        # one block from the unscaled sums (x < 300) to sums rescaled many
        # times (7900 is just under the cut of nu = 63); nothing overflows
        # on the way, which the CLI turns into an error
        x = np.array([1e-3, 5.0, 299.0, 2000.0, 7900.0])
        with np.errstate(over="raise"):
            block = log_bessel_i([nu], x)[0]
            pair = log_bessel_i([nu, nu + 1.0], x)
            alone = [log_bessel_i([nu], x[i:i + 1])[0, 0] for i in range(x.size)]
        np.testing.assert_array_equal(block, alone)
        np.testing.assert_array_equal(pair[0], block)
        assert (log_bessel_error(nu, x) <= 1e-14).all()

    def test_far_apart_orders_keep_their_lanes(self):
        # each sum is rescaled on its own: divided by the sum of nu = 0 at
        # the same x, that of nu = 200 would underflow (their ratio is about
        # e^-1162), and its log would be -inf
        x = np.array([50000.0])
        with np.errstate(over="raise", under="raise", divide="raise"):
            pair = log_bessel_i([0.0, 200.0], x)
            alone = log_bessel_i([200.0], x)[0]
        np.testing.assert_array_equal(pair[1], alone)
        assert log_bessel_error(200.0, x)[0] <= 1e-14

    @pytest.mark.parametrize("dim", [32, 64, 128])
    def test_ratio_below_the_cut_meets_mpmath(self, dim):
        # A_d below the cut is exp(log I_{d/2} - log I_{d/2-1}); at d = 128
        # that difference of two logs near 8,000, even correctly rounded, is
        # off by up to 9.0e-13 on this grid, so the bound holds only while
        # both logs are within about half an ulp
        cut = 2.0 * (0.5 * dim) ** 2
        kappa = np.linspace(1.0, np.nextafter(cut, 0.0), 200)
        want = oracles.norm_and_ratio_mp(dim, kappa)[1]
        assert_rel(bessel_ratio(dim, kappa), want, rtol=1e-12)


class TestEstimateClassStatsMatchesLoop:
    """The array-wide refresh keeps the bits of the per-class loop."""

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        d, k, n = (2, 3, 8, 32, 8, 3)[seed], 7, 60
        z = rng.normal(size=(n, d))
        z[:10] = z[0]          # a run of identical rows hits the kappa clamp
        z[10:12] = [z[12], -z[12]]
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        y = rng.integers(0, k, size=n)
        y[:10] = 0
        y[10:12] = 1           # an antipodal pair
        y[12:12 + k] = np.arange(k)
        counts = np.bincount(y, minlength=k)
        first = estimate_class_stats(z, y, np.zeros((k, d)), np.zeros(k))
        ref = oracles.class_stats_ref(z, y, np.zeros((k, d)), np.zeros(k), 0.9)
        oracles.assert_stats_equal(first, ref)
        batch = slice(20, 45)  # some classes are absent from this batch
        for momentum in (0.0, 0.9):
            got = estimate_class_stats(z[batch], y[batch], first[2], first[3], momentum)
            oracles.assert_stats_equal(got, oracles.class_stats_ref(z[batch], y[batch], ref[1], ref[2],
                                                            momentum))

    def test_absent_class_without_previous_is_named(self):
        z = np.array([e(0, 3), e(1, 3)])
        with pytest.raises(ValueError, match="class 2 has no samples"):
            full_stats(z, np.array([0, 1]), [1, 1, 1])


class TestBesselRatio:
    def test_zero_kappa(self):
        assert bessel_ratio(3, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle(self):
        for d in (2, 3, 8):
            for kappa in (0.5, 2.0, 10.0, 80.0):
                nu = d / 2 - 1
                ref = np.exp(oracles.log_bessel_mp(nu + 1, kappa)
                             - oracles.log_bessel_mp(nu, kappa))
                assert bessel_ratio(d, kappa) == pytest.approx(ref, rel=1e-9)

    def test_saturates_below_one(self):
        assert bessel_ratio(3, 1e4) < 1.0

    @pytest.mark.parametrize("kappa", [float("nan"), -3.0, float("inf"), [1.0, -0.5]])
    def test_rejects_what_log_norm_const_rejects(self, kappa):
        # bessel_ratio(8, nan) and (8, -3.0) used to return 0.0
        for fn in (bessel_ratio, log_norm_const):
            with pytest.raises(ValueError, match="kappa must be finite and non-negative"):
                fn(8, kappa)

    @pytest.mark.parametrize("dim", [2, 3, 8, 32])
    def test_same_bits_as_separate_calls(self, dim):
        # scalar, vector and matrix kappa with zero lanes, in every branch. A
        # lane below the cut of order d/2 keeps the bits of one log_bessel_i
        # call per order; a lane at or above it takes the fused asymptotic
        # pass, whatever else the call holds, which the 40-digit oracle holds
        # to 1e-15
        x = np.concatenate([[0.0, 1e-3, 0.5, 7.0], np.geomspace(20.0, 2000.0, 20)])
        fused = x >= top_cut(dim)
        want_norm, want_ratio = oracles.norm_and_ratio_separate(dim, x)
        mp_norm, mp_ratio = oracles.norm_and_ratio_mp(dim, x[fused])
        for shape in (x.shape, (4, 6)):
            for fn, want, mp_want in ((log_norm_const, want_norm, mp_norm),
                                      (bessel_ratio, want_ratio, mp_ratio)):
                got = fn(dim, x.reshape(shape))
                assert got.shape == shape
                np.testing.assert_array_equal(got.ravel()[~fused], want[~fused])
                assert_rel(got.ravel()[fused], mp_want)
        for k, want_n, want_r in zip(x[~fused], want_norm[~fused], want_ratio[~fused]):
            assert log_norm_const(dim, float(k)) == want_n
            assert bessel_ratio(dim, float(k)) == want_r
        for k, want_n, want_r in zip(x[fused], mp_norm, mp_ratio):
            assert_rel(log_norm_const(dim, float(k)), want_n)
            assert_rel(bessel_ratio(dim, float(k)), want_r)


class TestSampleVmf:
    def test_uniform_resultant_small(self):
        p = vp(e(0, 3), 0.0)
        zs = sample_vmf(p.mu, p.kappa, 10 ** 5, seed=9)
        assert np.linalg.norm(zs.mean(axis=0)) < 0.02

    def test_concentrated_mean_direction(self):
        mu = unit([1.0, -2.0, 0.5])
        p = vp(mu, 50.0)
        zs = sample_vmf(p.mu, p.kappa, 10 ** 4, seed=10)
        mean_dir = unit(zs.mean(axis=0))
        assert np.arccos(np.clip(mean_dir @ mu, -1, 1)) < 0.05

    def test_unit_norm_output(self):
        p = vp(e(2, 6), 3.0)
        zs = sample_vmf(p.mu, p.kappa, 500, seed=1)
        np.testing.assert_allclose(np.linalg.norm(zs, axis=1), 1.0, atol=1e-9)

    def test_seed_determinism(self):
        p = vp(e(0, 4), 7.0)
        a = sample_vmf(p.mu, p.kappa, 256, seed=77)
        b = sample_vmf(p.mu, p.kappa, 256, seed=77)
        np.testing.assert_array_equal(a, b)
        c = sample_vmf(p.mu, p.kappa, 256, seed=78)
        assert not np.array_equal(a, c)


def sample_one(mu, kappa):
    return sample_vmf(mu, kappa, 1, seed=0)


class TestVmfParamsValidation:
    """The component checks, in the package's sampler and in the oracles'
    ``VmfParams``."""

    def test_rejects_unnormalized_mu(self):
        for build in (vp, sample_one):
            with pytest.raises(ValueError):
                build(np.array([1.0, 1.0]), 1.0)

    def test_rejects_negative_kappa(self):
        for build in (vp, sample_one):
            with pytest.raises(ValueError):
                build(e(0, 3), -1.0)

    def test_rejects_nan_mu(self):
        for build in (vp, sample_one):
            with pytest.raises(ValueError, match="unit norm"):
                build(np.array([np.nan, 0.0]), 1.0)

    def test_unit_row_check_rejects_nan(self):
        z = np.array([[np.nan, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"features must be unit norm, worst \|\|\.\|\| = nan"):
            oracles.check_unit_rows(z, "features")
        with pytest.raises(ValueError, match="z must be unit norm"):
            vmf_log_pdf(vp(e(0, 2), 1.0), np.array([np.nan, 0.0]))

    def test_mixture_prior_checks(self):
        p = vp(e(0, 3), 1.0)
        with pytest.raises(ValueError):
            oracles.mixture_of([p], np.array([0.5]))
        with pytest.raises(ValueError):
            oracles.mixture_of([p, p], np.array([1.2, -0.2]))

    def test_sampler_and_checkpoint_agree_at_the_norm_tolerance(self):
        # sample_vmf used sqrt(mu @ mu), check_stats math.hypot: this mu was
        # sampled, yet a checkpoint holding it was refused (1.000000001)
        mu = np.array([0.5092761438548099, -0.4293549395313475, 0.5162643517624355,
                       0.4589580498078405, 0.26643562280850613, 0.09018222504988145])

        def accepts(check, v):
            try:
                check(v)
            except ValueError as exc:
                assert "unit norm" in str(exc)
                return False
            return True

        def sampled(v):
            sample_one(v, 1.0)

        def stored(v):
            check_stats(1, v.size, v.tolist() + [1.0, 1.0])

        assert not accepts(sampled, mu) and not accepts(stored, mu)
        rng = np.random.default_rng(24)
        for _ in range(2000):
            v = rng.normal(size=int(rng.integers(2, 9)))
            v *= (1.0 + rng.uniform(-1.5, 1.5) * MU_NORM_TOL) / np.linalg.norm(v)
            assert accepts(sampled, v) == accepts(stored, v), v.tolist()


def valid_arrays(k=3, d=4):
    rng = np.random.default_rng(k * d)
    mus = rng.normal(size=(k, d))
    mus /= np.linalg.norm(mus, axis=1, keepdims=True)
    return mus, rng.uniform(0.5, 20.0, size=k), np.full(k, 1.0 / k)


# a model whose head takes the mixtures of valid_arrays()
HEAD = EncoderClassifier.init(2, (3,), 4, 3, seed=0)


def assert_checkpoint_rejects(tmp_path, arrays, match):
    # model.check_stats refuses the class rows; save_checkpoint refuses
    # the arrays with the same words before it writes a byte, and so does
    # load_checkpoint once the rows replace those of a written file
    rows = np.column_stack([np.asarray(a, dtype="<f8") for a in arrays])
    with pytest.raises(ValueError, match=match) as want:
        check_stats(HEAD.n_classes, HEAD.feature_dim, rows.ravel().tolist())
    saved = tmp_path / "saved.ckpt"
    with pytest.raises(ValueError) as got:
        save_checkpoint(saved, HEAD, arrays)
    assert str(got.value) == str(want.value) and not saved.exists()
    save_checkpoint(saved, HEAD, valid_arrays())
    blob = saved.read_bytes()
    saved.write_bytes(blob[: len(blob) - rows.nbytes] + rows.tobytes())
    with pytest.raises(ValueError) as got:
        load_checkpoint(saved)
    assert str(got.value) == str(want.value)


class TestArrayMixture:
    """``model.check_stats``, the one check of the class rows, rejects
    everything the list of validated components rejected. Training carries
    the mixture as plain arrays and checks it where it crosses a file."""

    def test_accepts_valid_arrays(self, tmp_path):
        mus, kappas, priors = valid_arrays()
        check_stats(3, 4, np.column_stack([mus, kappas, priors]).ravel().tolist())
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, HEAD, (mus, kappas, priors))
        loaded = load_checkpoint(path)[1]
        assert all(a.dtype == np.float64 for a in loaded)
        for a, b in zip(loaded, (mus, kappas, priors)):
            assert a.tobytes() == b.tobytes()
        save_checkpoint(path, HEAD, (mus.tolist(), [0.0, 1.0, 2.0], priors))
        mus_back, kappas_back, _ = load_checkpoint(path)[1]
        assert mus_back.shape == (3, 4) and kappas_back[0] == 0.0

    @pytest.mark.parametrize("row", [[1.0, 1.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 1.0],
                                     [0.0, 0.0, 0.0, 0.0], [1.0 + 1e-8, 0.0, 0.0, 0.0]])
    def test_rejects_non_unit_or_nan_mu_rows(self, row, tmp_path):
        mus, kappas, priors = valid_arrays()
        mus[1] = row
        assert_checkpoint_rejects(tmp_path, (mus, kappas, priors), "unit norm")

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
    def test_rejects_bad_kappa(self, bad, tmp_path):
        mus, kappas, priors = valid_arrays()
        kappas[2] = bad
        assert_checkpoint_rejects(tmp_path, (mus, kappas, priors),
                                  "kappa must be finite and non-negative")

    @pytest.mark.parametrize("priors", [[0.0, 0.5, 0.5], [-0.2, 0.6, 0.6],
                                        [np.nan, 0.5, 0.5]])
    def test_rejects_non_positive_priors(self, priors, tmp_path):
        mus, kappas, _ = valid_arrays()
        assert_checkpoint_rejects(tmp_path, (mus, kappas, np.array(priors)), "strictly positive")

    @pytest.mark.parametrize("priors", [[0.3, 0.3, 0.3], [0.5, 0.5, 0.5],
                                        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0 + 1e-8]])
    def test_rejects_priors_not_summing_to_one(self, priors, tmp_path):
        mus, kappas, _ = valid_arrays()
        assert_checkpoint_rejects(tmp_path, (mus, kappas, np.array(priors)), "sum to 1")

    def test_rejects_shape_mismatch(self, tmp_path):
        # a file cannot hold these; save_checkpoint's head check refuses each
        mus, kappas, priors = valid_arrays()
        for bad in (dict(mus=mus[0]), dict(mus=mus[:0], kappas=kappas[:0], priors=priors[:0]),
                    dict(mus=mus[:, :1]), dict(mus=mus[:2]), dict(kappas=kappas[:2]),
                    dict(priors=np.full(4, 0.25)), dict(kappas=kappas[:, None])):
            args = {**dict(mus=mus, kappas=kappas, priors=priors), **bad}
            with pytest.raises(ValueError):
                save_checkpoint(tmp_path / "model.ckpt", HEAD,
                                (args["mus"], args["kappas"], args["priors"]))
        assert not (tmp_path / "model.ckpt").exists()


def class_rows(rng, kind, d):
    # a class's rows in one batch: none, one, a few at random, a few equal
    # rows (r = 1, the kappa cap) or antipodal pairs (a cancelled resultant)
    n = int(rng.integers(2, 5))
    if kind == "absent":
        return np.zeros((0, d))
    if kind == "one":
        return unit(rng.normal(size=d))[None, :]
    if kind == "rows":
        z = rng.normal(size=(n, d))
        return z / np.linalg.norm(z, axis=1, keepdims=True)
    if kind == "same":
        return np.repeat(unit(rng.normal(size=d))[None, :], n, axis=0)
    v = rng.normal(size=(n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.stack([v, -v], axis=1).reshape(2 * n, d)


def assert_mixture_invariants(mus, kappas, k, d):
    # what the mixture record's constructor checked on every training step
    assert mus.shape == (k, d) and kappas.shape == (k,)
    norms = np.linalg.norm(mus, axis=1)
    assert (np.abs(norms - 1.0) <= MU_NORM_TOL).all(), norms
    assert (np.isfinite(kappas) & (kappas >= 0.0) & (kappas <= KAPPA_MAX)).all(), kappas


KINDS = ("absent", "one", "rows", "same", "cancel")


class TestEstimatorInvariants:
    """The invariants that the per-step mixture record used to check, held
    as properties: every refresh gives unit mu rows within MU_NORM_TOL and
    kappas in [0, KAPPA_MAX], with one-row tail classes, classes absent from
    a batch and cancelled resultants; a training step carries the priors
    bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_refresh_gives_unit_mus_and_bounded_kappas(self, data):
        k, d = data.draw(st.integers(2, 6)), data.draw(st.integers(2, 9))
        momentum = data.draw(st.sampled_from([0.0, 0.5, 0.9, 0.999]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        sums, counts = np.zeros((k, d)), np.zeros(k)
        for step in range(data.draw(st.integers(1, 4))):
            # the first refresh is the full pass, in which every class has rows
            kinds = [data.draw(st.sampled_from(KINDS[1:] if step == 0 else KINDS))
                     for _ in range(k)]
            rows = [class_rows(rng, kind, d) for kind in kinds]
            labels = np.repeat(np.arange(k), [r.shape[0] for r in rows])
            if labels.size == 0:
                continue
            shuffled = data.draw(st.booleans())
            order = rng.permutation(labels.size) if shuffled else slice(None)
            feats = np.concatenate(rows)[order]
            mus, kappas, sums, counts = estimate_class_stats(
                feats, labels[order], sums, counts, momentum if step else 0.0)
            assert_mixture_invariants(mus, kappas, k, d)
            if step == 0:
                for j, kind in enumerate(kinds):
                    # a lone row or equal rows have r = 1: the cap
                    assert kind not in ("one", "same") or kappas[j] == KAPPA_MAX
                    # antipodal pairs, each in row order, cancel exactly: kappa 0
                    assert kind != "cancel" or shuffled or kappas[j] == 0.0

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_steps_carry_the_priors_bit_for_bit(self, data):
        k = data.draw(st.integers(2, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        # long-tailed class counts, down to one-row tail classes
        per_class = np.array(data.draw(st.lists(st.integers(1, 12), min_size=k, max_size=k)))
        labels = np.repeat(np.arange(k), per_class)
        x = rng.normal(size=(labels.size, 3))
        net = EncoderClassifier.init(3, (5,), 4, k, seed=int(rng.integers(0, 2 ** 31)))
        priors = per_class / np.add.reduce(per_class.astype(np.float64))
        held = priors.tobytes()
        config = TrainConfig(vmf_momentum=data.draw(st.sampled_from([0.0, 0.9])))
        state = TrainState(net, config, priors)
        state.mus, state.kappas, state.sums, state.counts = estimate_class_stats(
            encoder_forward(net, x), labels, np.zeros((k, 4)), np.zeros(k))
        for _ in range(data.draw(st.integers(1, 4))):
            # a batch of a few rows leaves most classes absent
            rows = data.draw(st.lists(st.integers(0, labels.size - 1), min_size=1, max_size=8))
            train_step(state, (x[rows], labels[rows]), None)
            assert state.priors is priors and priors.tobytes() == held
            assert_mixture_invariants(state.mus, state.kappas, k, 4)


class TestClassStatsReference:
    def test_300_refreshes_match_per_class_reference(self):
        # a long-tailed label stream in small batches, so the tail classes
        # are absent from most refreshes and sometimes present once
        rng = np.random.default_rng(12)
        k, d, n = 10, 8, 32
        centers = rng.normal(size=(k, d))
        priors = np.geomspace(1.0, 0.01, k)
        priors /= priors.sum()
        labels = rng.choice(k, size=n * 300, p=priors)
        labels[:k] = np.arange(k)
        feats = centers[labels] + 0.4 * rng.normal(size=(labels.size, d))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        got = estimate_class_stats(feats[:k], labels[:k], np.zeros((k, d)), np.zeros(k))
        want = oracles.class_stats_ref(feats[:k], labels[:k], np.zeros((k, d)), np.zeros(k), 0.9)
        absent = 0
        for step in range(300):
            rows = slice(k + step * n, k + (step + 1) * n)
            absent += np.unique(labels[rows]).size < k
            got = estimate_class_stats(feats[rows], labels[rows], got[2], got[3], momentum=0.9)
            want = oracles.class_stats_ref(feats[rows], labels[rows], want[1], want[2], 0.9)
            oracles.assert_stats_equal(got, want)
        assert absent > 250

    def test_refresh_leaves_previous_arrays_unchanged(self):
        # with every class present and with some absent, the refresh never
        # writes into the previous mixture's arrays or the running sums
        rng = np.random.default_rng(3)
        z = rng.normal(size=(20, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        y = np.arange(20) % 4
        first = estimate_class_stats(z, y, np.zeros((4, 4)), np.zeros(4))
        before = [a.copy() for a in first]
        for rows in (slice(0, 20), slice(0, 3)):
            estimate_class_stats(z[rows], y[rows], first[2], first[3], momentum=0.5)
            for a, b in zip(first, before):
                np.testing.assert_array_equal(a, b)


class TestNormAndRatioZeroLanes:
    @pytest.mark.parametrize("dim", [2, 8, 32])
    def test_zero_lane_leaves_the_other_lanes(self, dim):
        # appending a kappa = 0 lane, which joins neither branch, or a lane
        # below the cut leaves the bits of every other lane, also when those
        # all take the asymptotic branch: that case needs no path of its own
        mixed = np.concatenate([np.linspace(1e-3, 600.0, 41), [top_cut(dim), 5000.0]])
        for x in (mixed, mixed[mixed >= top_cut(dim)]):
            log_norm, ratio = _log_norm_and_ratio(dim, x)
            for extra in (0.0, top_cut(dim) - 1.0):
                want_norm, want_ratio = _log_norm_and_ratio(dim, np.append(x, extra))
                np.testing.assert_array_equal(log_norm, want_norm[:-1])
                np.testing.assert_array_equal(ratio, want_ratio[:-1])
