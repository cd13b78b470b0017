"""Unit tests for the hypersphere density toolkit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patt_lab import losses, vmf
from patt_lab.data import sample_vmf
from patt_lab.vmf import (KAPPA_MAX, VmfMixture, _log_norm_and_ratio, bessel_ratio,
                          estimate_class_stats, log_bessel_i, log_norm_const)

import oracles
from oracles import (VmfParams, log_bessel_i_at, log_sum_exp, mixture_log_pdf, vmf_log_pdf,
                     vmf_mgf_log)

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
        mix = estimate_class_stats(z, y, class_counts=[4, 1])
        assert mix.kappas[0] == pytest.approx(0.0, abs=1e-9)

    def test_identical_vectors_hit_clamp(self):
        v = unit([1.0, 2.0, 2.0])
        z = np.array([v, v, v, e(1, 3)])
        y = np.array([0, 0, 0, 1])
        mix = estimate_class_stats(z, y, class_counts=[3, 1])
        np.testing.assert_allclose(mix.mus[0], v, atol=1e-12)
        assert mix.kappas[0] == KAPPA_MAX

    def test_half_resultant_formula(self):
        # two unit vectors at +-60 degrees: mean length exactly 0.5
        s = np.sqrt(3.0) / 2.0
        z = np.array([[0.5, s, 0.0], [0.5, -s, 0.0], [0.0, 0.0, 1.0]])
        y = np.array([0, 0, 1])
        mix = estimate_class_stats(z, y, class_counts=[2, 1])
        assert mix.kappas[0] == pytest.approx(11.0 / 6.0, rel=1e-12)

    def test_idempotent_on_repeated_batch(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(30, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        y = np.sort(rng.integers(0, 2, size=30))
        counts = np.bincount(y, minlength=2)
        first = estimate_class_stats(z, y, class_counts=counts)
        second = estimate_class_stats(z, y, previous=first, momentum=0.0)
        for mu_a, mu_b in zip(first.mus, second.mus):
            np.testing.assert_allclose(mu_a, mu_b, atol=1e-12)
        for kappa_a, kappa_b in zip(first.kappas, second.kappas):
            assert kappa_a == pytest.approx(kappa_b, rel=1e-12)

    def test_absent_class_keeps_previous(self):
        z0 = np.array([e(0, 3), e(1, 3), unit([1.0, 1.0, 0.0])])
        first = estimate_class_stats(z0, np.array([0, 1, 1]), class_counts=[5, 5])
        z1 = np.array([e(2, 3)])
        second = estimate_class_stats(z1, np.array([0]), previous=first,
                                      momentum=0.0)
        np.testing.assert_array_equal(second.mus[1], first.mus[1])
        assert second.kappas[1] == first.kappas[1]

    def test_ema_blends_kappa(self):
        v = e(0, 3)
        prev = estimate_class_stats(
            np.array([v, v, e(1, 3), -e(1, 3)]), np.array([0, 0, 1, 1]),
            class_counts=[2, 2])
        batch = np.array([e(2, 3), -e(2, 3), e(1, 3), e(1, 3)])
        out = estimate_class_stats(batch, np.array([0, 0, 1, 1]), previous=prev,
                                   momentum=0.9)
        # class 0: previous clamp KAPPA_MAX, batch estimate 0
        assert out.kappas[0] == pytest.approx(0.9 * KAPPA_MAX, rel=1e-12)

    def test_priors_fixed_from_counts(self):
        z = np.array([e(0, 3)] * 3 + [e(1, 3)])
        y = np.array([0, 0, 0, 1])
        mix = estimate_class_stats(z, y, class_counts=[30, 10])
        np.testing.assert_allclose(mix.priors, [0.75, 0.25], atol=1e-12)

    def test_requires_counts_on_first_call(self):
        z = np.array([e(0, 3), e(1, 3)])
        with pytest.raises(ValueError):
            estimate_class_stats(z, np.array([0, 1]))


class TestFusedNormAndRatio:
    """One Bessel pass over both orders gives log C_d and A_d together."""

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_asymptotic_branch_is_exact(self, d):
        # both orders d/2 - 1 and d/2 take the asymptotic branch here
        cut = max(30.0, 2.0 * (0.5 * d) ** 2)
        x = np.concatenate([[cut], np.geomspace(cut, 1e4, 200)])
        log_norm, ratio = _log_norm_and_ratio(d, x)
        want_norm, want_ratio = oracles.norm_and_ratio_separate(d, x)
        np.testing.assert_array_equal(log_norm, want_norm)
        np.testing.assert_array_equal(ratio, want_ratio)

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
        mix = estimate_class_stats(z, y, class_counts=[8] * 5)
        losses.isac_loss_batch(mix, z, y, 0.1)
        assert calls == [(2,)]


def assert_matches_reference(monkeypatch, dim, x):
    # against log_bessel_i (at the positive x) and _log_norm_and_ratio with
    # the per-element reference kernel swapped in
    orders = (0.5 * dim - 1.0, 0.5 * dim)
    with monkeypatch.context() as patch:
        patch.setattr(vmf, "_log_bessel_positive", oracles.log_bessel_positive_ref)
        want_i = log_bessel_i(orders, x[x > 0.0])
        want_norm, want_ratio = _log_norm_and_ratio(dim, x)
    np.testing.assert_array_equal(log_bessel_i(orders, x[x > 0.0]), want_i)
    log_norm, ratio = _log_norm_and_ratio(dim, x)
    np.testing.assert_array_equal(log_norm, want_norm)
    np.testing.assert_array_equal(ratio, want_ratio)


def top_cut(dim):
    # the larger of the two orders' asymptotic cuts
    return max(30.0, 2.0 * (0.5 * dim) ** 2)


class TestBlockBesselKernel:
    """The block asymptotic kernel, with its convergence test every fourth
    term, keeps the bits of the per-element kernel tested after every term."""

    @pytest.mark.parametrize("dim", [2, 3, 8, 32])
    def test_random_blocks(self, monkeypatch, dim):
        rng = np.random.default_rng(dim)
        x = top_cut(dim) * np.exp(rng.uniform(0.0, 6.0, size=(30, 11)))
        assert_matches_reference(monkeypatch, dim, x)
        x.flat[::7] = 0.0  # kappa = 0 lanes run at a stand-in below the cut
        assert_matches_reference(monkeypatch, dim, x)

    @pytest.mark.parametrize("dim", [2, 3, 8, 32])
    def test_just_above_the_cut(self, monkeypatch, dim):
        cut = top_cut(dim)
        x = np.array([cut, np.nextafter(cut, np.inf), cut * (1.0 + 1e-12),
                      cut + 1e-6, cut + 0.5, 2.0 * cut])
        assert_matches_reference(monkeypatch, dim, x)

    def test_loop_stopping_at_terms_37_to_39(self):
        # Below the branch cut (x ~ 18.6) the series needs 37-39 terms, which
        # no element of the validated range does (those stop by term 17), so
        # the kernel is called directly. Each row mixes one slow element with
        # fast ones; the last row never converges and runs to the term cap.
        slow = np.array([[0.0, 18.56], [0.0, 18.55], [4.0, 18.968],
                         [4.0, 18.98], [2.0, 18.67], [0.0, 18.3]])
        stops = [oracles.log_bessel_asymptotic_ref(np.array([nu]), np.array([x]))[1]
                 for nu, x in slow]
        assert stops == [37, 38, 39, 38, 37, 39]
        for nu, x in slow:
            xs = np.array([x, 30.0, 400.0, 9000.0])
            want, _ = oracles.log_bessel_asymptotic_ref(np.full(4, nu), xs)
            np.testing.assert_array_equal(vmf._log_bessel_asymptotic(np.full(4, nu), xs), want)
            block = vmf._log_bessel_asymptotic(np.array([[nu], [nu + 1.0]]), xs)
            np.testing.assert_array_equal(block[0], want)
        orders = slow[:, 0]
        want, _ = oracles.log_bessel_asymptotic_ref(orders, slow[:, 1])
        np.testing.assert_array_equal(vmf._log_bessel_asymptotic(orders, slow[:, 1]), want)

    def test_mixed_branches(self, monkeypatch):
        # d = 32 puts x in all three branches for each order, and x in
        # [450, 512) in different branches for the two orders
        x = np.concatenate([[0.0, 1e-3, 0.5], np.linspace(5.0, 299.0, 7),
                            np.linspace(300.0, 449.0, 5), np.linspace(450.0, 511.9, 9),
                            [512.0, 700.0, 0.0, 5000.0]])
        assert_matches_reference(monkeypatch, 32, x)
        assert_matches_reference(monkeypatch, 8, np.concatenate([[29.9, 31.99], x]))
        # d = 64: the cuts are 1922 (nu = 31) and 2048 (nu = 32)
        assert_matches_reference(monkeypatch, 64, np.concatenate(
            [x, np.linspace(1000.0, 1921.9, 4), np.linspace(1922.0, 2047.9, 6), [2048.0]]))


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
        first = estimate_class_stats(z, y, class_counts=counts)
        ref = oracles.class_stats_ref(z, y, None, 0.0, class_counts=counts)
        batch = slice(20, 45)  # some classes are absent from this batch
        for momentum in (0.0, 0.9):
            got = estimate_class_stats(z[batch], y[batch], previous=first, momentum=momentum)
            want, want_priors = oracles.class_stats_ref(z[batch], y[batch], ref, momentum)
            for a, b in zip(oracles.components_of(got), want):
                np.testing.assert_array_equal(a.mu, b.mu)
                assert a.kappa == b.kappa
            np.testing.assert_array_equal(got.priors, want_priors)

    def test_absent_class_without_previous_is_named(self):
        z = np.array([e(0, 3), e(1, 3)])
        with pytest.raises(ValueError, match="class 2 has no samples"):
            estimate_class_stats(z, np.array([0, 1]), class_counts=[1, 1, 1])


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
        # scalar, vector and matrix kappa with zero lanes, in every branch
        x = np.concatenate([[0.0, 1e-3, 0.5, 7.0], np.geomspace(20.0, 2000.0, 20)])
        want_norm, want_ratio = oracles.norm_and_ratio_separate(dim, x)
        for shape in (x.shape, (4, 6)):
            np.testing.assert_array_equal(log_norm_const(dim, x.reshape(shape)),
                                          want_norm.reshape(shape))
            np.testing.assert_array_equal(bessel_ratio(dim, x.reshape(shape)),
                                          want_ratio.reshape(shape))
        for k, want_n, want_r in zip(x, want_norm, want_ratio):
            assert log_norm_const(dim, float(k)) == want_n
            assert bessel_ratio(dim, float(k)) == want_r


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
            estimate_class_stats(z, np.array([0, 1]), class_counts=[1, 1])
        with pytest.raises(ValueError, match="z must be unit norm"):
            vmf_log_pdf(vp(e(0, 2), 1.0), np.array([np.nan, 0.0]))

    def test_mixture_prior_checks(self):
        p = vp(e(0, 3), 1.0)
        with pytest.raises(ValueError):
            oracles.mixture_of([p], np.array([0.5]))
        with pytest.raises(ValueError):
            oracles.mixture_of([p, p], np.array([1.2, -0.2]))


def valid_arrays(k=3, d=4):
    rng = np.random.default_rng(k * d)
    mus = rng.normal(size=(k, d))
    mus /= np.linalg.norm(mus, axis=1, keepdims=True)
    return mus, rng.uniform(0.5, 20.0, size=k), np.full(k, 1.0 / k)


class TestArrayMixture:
    """The array mixture rejects everything the list of validated components
    rejected, with every row checked at once."""

    def test_accepts_valid_arrays(self):
        mus, kappas, priors = valid_arrays()
        mix = VmfMixture(mus=mus, kappas=kappas, priors=priors)
        assert mix.n_classes == 3 and mix.dim == 4
        assert mix.mus.dtype == mix.kappas.dtype == mix.priors.dtype == np.float64
        mix = VmfMixture(mus=mus.tolist(), kappas=[0.0, 1.0, 2.0], priors=priors)
        assert mix.mus.shape == (3, 4) and mix.kappas[0] == 0.0

    @pytest.mark.parametrize("row", [[1.0, 1.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 1.0],
                                     [0.0, 0.0, 0.0, 0.0], [1.0 + 1e-8, 0.0, 0.0, 0.0]])
    def test_rejects_non_unit_or_nan_mu_rows(self, row):
        mus, kappas, priors = valid_arrays()
        mus[1] = row
        with pytest.raises(ValueError, match="unit norm"):
            VmfMixture(mus=mus, kappas=kappas, priors=priors)

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
    def test_rejects_bad_kappa(self, bad):
        mus, kappas, priors = valid_arrays()
        kappas[2] = bad
        with pytest.raises(ValueError, match="kappa must be finite and non-negative"):
            VmfMixture(mus=mus, kappas=kappas, priors=priors)

    @pytest.mark.parametrize("priors", [[0.0, 0.5, 0.5], [-0.2, 0.6, 0.6],
                                        [np.nan, 0.5, 0.5]])
    def test_rejects_non_positive_priors(self, priors):
        mus, kappas, _ = valid_arrays()
        with pytest.raises(ValueError, match="strictly positive"):
            VmfMixture(mus=mus, kappas=kappas, priors=np.array(priors))

    @pytest.mark.parametrize("priors", [[0.3, 0.3, 0.3], [0.5, 0.5, 0.5],
                                        [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0 + 1e-8]])
    def test_rejects_priors_not_summing_to_one(self, priors):
        mus, kappas, _ = valid_arrays()
        with pytest.raises(ValueError, match="sum to 1"):
            VmfMixture(mus=mus, kappas=kappas, priors=np.array(priors))

    def test_rejects_shape_mismatch(self):
        mus, kappas, priors = valid_arrays()
        for bad in (dict(mus=mus[0]), dict(mus=mus[:0], kappas=kappas[:0], priors=priors[:0]),
                    dict(mus=mus[:, :1]), dict(mus=mus[:2]), dict(kappas=kappas[:2]),
                    dict(priors=np.full(4, 0.25)), dict(kappas=kappas[:, None])):
            args = {**dict(mus=mus, kappas=kappas, priors=priors), **bad}
            with pytest.raises(ValueError):
                VmfMixture(**args)


class TestClassStatsReference:
    def test_300_refreshes_match_per_class_reference(self):
        # a long-tailed label stream in small batches, so the tail classes
        # are absent from most refreshes and sometimes present once
        rng = np.random.default_rng(12)
        k, d, n = 10, 8, 32
        centers = rng.normal(size=(k, d))
        priors = np.geomspace(1.0, 0.01, k)
        priors /= priors.sum()
        counts = np.maximum(np.round(priors * 2000), 1)
        labels = rng.choice(k, size=n * 300, p=priors)
        labels[:k] = np.arange(k)
        feats = centers[labels] + 0.4 * rng.normal(size=(labels.size, d))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        got = estimate_class_stats(feats[:k], labels[:k], class_counts=counts)
        want = oracles.class_stats_ref(feats[:k], labels[:k], None, 0.0, class_counts=counts)
        absent = 0
        for step in range(300):
            rows = slice(k + step * n, k + (step + 1) * n)
            absent += np.unique(labels[rows]).size < k
            got = estimate_class_stats(feats[rows], labels[rows], previous=got, momentum=0.9)
            want = oracles.class_stats_ref(feats[rows], labels[rows], want, 0.9)
            np.testing.assert_array_equal(got.mus, np.stack([c.mu for c in want[0]]))
            np.testing.assert_array_equal(got.kappas, [c.kappa for c in want[0]])
            np.testing.assert_array_equal(got.priors, want[1])
        assert absent > 250

    def test_refresh_leaves_previous_arrays_unchanged(self):
        # with every class present and with some absent, the refresh never
        # writes into the previous mixture's arrays
        rng = np.random.default_rng(3)
        z = rng.normal(size=(20, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        y = np.arange(20) % 4
        first = estimate_class_stats(z, y, class_counts=[5] * 4)
        mus, kappas = first.mus.copy(), first.kappas.copy()
        for rows in (slice(0, 20), slice(0, 3)):
            estimate_class_stats(z[rows], y[rows], previous=first, momentum=0.5)
            np.testing.assert_array_equal(first.mus, mus)
            np.testing.assert_array_equal(first.kappas, kappas)


class TestNormAndRatioFastPath:
    @pytest.mark.parametrize("dim", [2, 8, 32])
    def test_all_positive_equals_gathered_path(self, dim):
        # appending a kappa = 0 lane sends the same values through the
        # boolean gather and scatter
        x = np.concatenate([np.linspace(1e-3, 600.0, 41), [top_cut(dim), 5000.0]])
        log_norm, ratio = _log_norm_and_ratio(dim, x)
        want_norm, want_ratio = _log_norm_and_ratio(dim, np.append(x, 0.0))
        np.testing.assert_array_equal(log_norm, want_norm[:-1])
        np.testing.assert_array_equal(ratio, want_ratio[:-1])
