"""von Mises-Fisher numerics on the unit hypersphere.

Log-domain Bessel and normalization constants and per-class parameter
estimation from running sums. All functions are pure. The sampler lives in
``data``, its one caller in the package; the densities and the moment
generating function, which only tests call, live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "KAPPA_MAX",
    "log_bessel_i",
    "log_norm_const",
    "bessel_ratio",
    "estimate_class_stats",
]

# Concentration cap. Keeps the estimator away from the degenerate point-mass
# limit and the Bessel evaluation inside its validated range.
KAPPA_MAX = 1e4

# Largest series sum carried into the next 4 terms: above every sum at x < 300
# (I_0(300) ~ 4.5e128), and low enough that 4 terms of growth and term * q,
# each at most q = x^2 / 4, stay finite at every x under the term cap.
_SERIES_BOUND = 1e150
# ln 2 in two parts; the low 21 bits of _LN2_HI are zero, so n * _LN2_HI is
# exact for the about 1.44 x halvings of a sum, under 2^21 at the term cap
_LN2_HI, _LN2_LO = 0.6931471803691238, 1.9082149292705877e-10


def _row_norms(a: np.ndarray) -> np.ndarray:
    # Norm of each row with the bits of np.linalg.norm on that row, which is
    # sqrt(row @ row); an axis-wise reduction sums in another order. A stacked
    # vector-vector matmul takes the same dot product path for every row.
    return np.sqrt(np.matmul(a[:, None, :], a[:, :, None]).ravel())


def _log_bessel_series(orders, x):
    # Ascending series sum_m (x/2)^(2m+nu) / (m! Gamma(m+nu+1)) for each order
    # (rows) at every x (columns). All terms are positive, so direct summation
    # of the ratio-normalized terms is stable. Convergence is tested every 4th
    # term over the whole block: past its peak each term is under 1e-18 of its
    # sum, less than half an ulp, so the extra terms leave every sum's bits.
    # Then each unconverged sum above _SERIES_BOUND and its term are scaled
    # exactly into [0.5, 1) by a power of two, whose log is added last: each
    # element has the bits it has alone, and one never scaled (all x < 300)
    # the bits of the unscaled sum, as adding 0.0 is exact. A block whose
    # largest x is below 300 has no sum to scale, so it skips the test.
    nu = orders[:, None]
    q = 0.25 * x * x
    rescale = float(np.maximum.reduce(x, initial=0.0)) >= 300.0
    term = np.ones((orders.size, x.size))
    total = term.copy()
    shifts = np.zeros(total.shape, dtype=np.int64)
    m = 0
    while True:
        if m % 64 == 0:
            # the divisors m (m + nu) of the next 64 terms, formed in one
            # pass with the bits of forming each in its own step
            ms = np.arange(m + 1, m + 65.0)[:, None, None]
            divisors = ms * (ms + nu)
        m += 1
        term *= q
        term /= divisors[(m - 1) % 64]
        total += term
        if m % 4 == 0:
            live = term >= 1e-18 * total
            if not live.any():
                break
            if rescale:
                big = live & (total > _SERIES_BOUND)
                if big.any():
                    shift = np.where(big, np.frexp(total)[1], 0)
                    term, total = np.ldexp(term, -shift), np.ldexp(total, -shift)
                    shifts += shift
        if m > 500000:  # pragma: no cover - series converges long before this
            raise RuntimeError("Bessel series failed to converge")
    lgamma = np.array([math.lgamma(v + 1.0) for v in orders.tolist()])[:, None]
    return (nu * np.log(0.5 * x) - lgamma + np.log(total) + shifts * _LN2_LO) + shifts * _LN2_HI


def _asymptotic_sum(orders, x):
    # S_nu(x) = sum_k a_k(nu) / x^k with a_0 = 1 and a_k = a_{k-1} ((2k - 1)^2 -
    # 4 nu^2) / (8k), from I_nu(x) ~ e^x S_nu(x) / sqrt(2 pi x), for each order
    # (rows) at every x (any shape), built in plain floats (numpy scalars give
    # the bits, slower) up to the first term at most 1e-17 of the partial sum at
    # the smallest x (at most 39); zero-padded to the longest order and summed
    # by Horner's rule in 1/x. Only used from the asymptotic cut max(30, 2 nu^2).
    inv_x = 1.0 / x
    inv_lo = float(np.maximum.reduce(inv_x, axis=None, initial=0.0))
    table, top = np.zeros((40, len(orders))), 1
    for col, nu in enumerate(map(float, orders)):
        coefs, coef, total = [], 1.0, 1.0
        for k in range(1, 40):
            coef *= ((2 * k - 1) ** 2 - 4.0 * nu * nu) / (8 * k)
            coefs.append(coef)
            term = coef * inv_lo ** k
            total += term
            if abs(term) <= 1e-17 * abs(total):
                break
        table[1:k + 1, col] = coefs
        top = max(top, k)
    out = np.multiply.outer(table[top], inv_x)
    for coef in table[top - 1:0:-1].reshape((top - 1, len(orders)) + (1,) * inv_x.ndim):
        out += coef
        out *= inv_x
    return out + 1.0


def _asymptotic_cut(nu):  # where order nu's asymptotic branch starts
    return np.maximum(30.0, 2.0 * nu * nu)


def _log_bessel_asymptotic(nu, x, series=None):
    # log I_nu(x) from S_nu(x), summed here unless the caller has it
    series = _asymptotic_sum((nu,), x)[0] if series is None else series
    return x - 0.5 * np.log(2.0 * math.pi * x) + np.log(series)


def _log_bessel_positive(orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    # log I_nu(x) for every order (rows) at every positive x (columns): one
    # series pass at the union of the orders' lanes below their cuts, each
    # order keeping its own, then the asymptotic kernel per order on the rest.
    small = x < _asymptotic_cut(orders)[:, None]
    union = small.any(axis=0)
    out = np.empty((orders.size, x.size))
    if union.any():
        out[small] = _log_bessel_series(orders, x[union])[small[:, union]]
    for row, nu, own in zip(out, orders.tolist(), small):
        if not own.all():
            row[~own] = _log_bessel_asymptotic(nu, x[~own])
    return out


def log_bessel_i(nu, x):
    """log I_nu(x), the modified Bessel function of the first kind, for a
    non-empty 1-D sequence of orders >= 0 at positive arguments ``x`` (an
    ndarray), evaluated in one pass; the result has shape
    ``(len(nu),) + x.shape``. Each order has two branches: below
    ``max(30, 2 nu^2)`` the ascending series, whose sums are rescaled to stay
    finite, and from there on the large-argument asymptotic expansion, summed
    by Horner's rule in 1/x.
    """
    orders = np.asarray(nu, dtype=np.float64)
    if orders.ndim != 1 or orders.size == 0:
        raise ValueError("order must be a non-empty 1-D sequence")
    if not (np.isfinite(orders) & (orders >= 0.0)).all():
        raise ValueError(f"order must be finite and non-negative, got {nu}")
    xs = np.asarray(x, dtype=np.float64)
    if not (np.isfinite(xs) & (xs > 0.0)).all():
        raise ValueError("argument must be finite and positive")
    return _log_bessel_positive(orders, xs.ravel()).reshape(orders.shape + xs.shape)


def log_norm_const(dim: int, kappa):
    """log normalization constant of the vMF density in R^dim.

    At kappa = 0 this is minus the log surface area of the unit sphere, so the
    density degrades continuously to the uniform law. ``kappa`` may be a
    scalar or an ndarray.
    """
    return _normalizer(dim, kappa)[0]


def bessel_ratio(dim: int, kappa):
    """Mean resultant length A_d(kappa) = I_{d/2}(kappa) / I_{d/2-1}(kappa).

    Also minus the derivative of ``log_norm_const`` in kappa. A_d(0) = 0 and
    A_d is increasing toward 1 as kappa grows.
    """
    return _normalizer(dim, kappa)[1]


def _normalizer(dim, kappa):
    # the input check of log_norm_const and bessel_ratio, then both from one pass
    dim = int(dim)
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    ks = np.asarray(kappa, dtype=np.float64)
    if not (np.isfinite(ks) & (ks >= 0.0)).all():
        raise ValueError("kappa must be finite and non-negative")
    log_norm, ratio = _log_norm_and_ratio(dim, ks)
    return (float(log_norm), float(ratio)) if ks.ndim == 0 else (log_norm, ratio)


def _log_norm_and_ratio(dim: int, kappa: np.ndarray):
    """``(log_norm_const(dim, kappa), bessel_ratio(dim, kappa))`` for an
    array of finite non-negative ``kappa`` and ``dim`` >= 2, branch per lane. A
    lane at or above the asymptotic cut of order d/2 takes log C_d from
    S_{d/2-1} and A_d = S_{d/2} / S_{d/2-1}, with no difference of logs to
    cancel, whatever else the call holds; the other positive lanes share one
    ``log_bessel_i`` call over both orders d/2 - 1 and d/2."""
    half = 0.5 * dim
    nu = half - 1.0
    large = kappa >= _asymptotic_cut(half)
    # kappa = 0 lanes stand in at 1.0 and join neither branch; they take the
    # uniform law (minus the log sphere area, ratio 0)
    pos = kappa > 0.0
    kp = np.where(pos, kappa, 1.0)
    rest = pos & ~large
    log_i, ratio = np.zeros(kp.shape), np.zeros(kp.shape)
    if large.any():
        x = kp[large]
        s_nu, s_half = _asymptotic_sum((nu, half), x)
        log_i[large], ratio[large] = _log_bessel_asymptotic(nu, x, s_nu), s_half / s_nu
    if rest.any():
        log_i_nu, log_i_half = log_bessel_i((nu, half), kp[rest])
        log_i[rest], ratio[rest] = log_i_nu, np.exp(log_i_half - log_i_nu)
    log_norm = np.where(pos, nu * np.log(kp) - half * math.log(2.0 * math.pi) - log_i,
                        math.lgamma(half) - math.log(2.0) - half * math.log(math.pi))
    return log_norm, ratio


def _banerjee_kappa(r_bar: np.ndarray, dim: int) -> np.ndarray:
    # kappa ~= r (d - r^2) / (1 - r^2), clamped into [0, KAPPA_MAX]
    capped = r_bar >= 1.0 - 1e-12
    r = np.where(capped, 0.0, r_bar)  # keeps 1 - r^2 away from 0 in capped rows
    r2 = r * r
    kappa = np.minimum(np.maximum(r * (dim - r2) / (1.0 - r2), 0.0), KAPPA_MAX)
    return np.where(capped, KAPPA_MAX, kappa)


def estimate_class_stats(features, labels, sums, counts, momentum: float = 0.0):
    """Fold a batch of unit features (n, d) with labels in [0, K) into running
    per-class sums and return ``(mus, kappas, sums, counts)``; the inputs are
    left unchanged and are not checked (``model.train`` checks the labels
    once, and the encoder's features are unit by construction).

    ``sums`` (K, d) holds each class's resultant S and ``counts`` (K,) its row
    count N. A class present in the batch decays both by ``momentum`` and
    adds the batch's sum and count, S <- m S + S_b and N <- m N + n_b; an
    absent class keeps its bits. Each class takes mu = S / |S| and kappa from
    the mean resultant length r = |S| / N by the closed-form approximation
    kappa = r (d - r^2) / (1 - r^2), clamped to [0, KAPPA_MAX]. A full pass
    over a split is one call from zero sums, after which every class must
    have rows.
    """
    n_classes, dim = sums.shape
    n_rows = np.bincount(labels, minlength=n_classes)
    # per-class batch sums: bincount adds each (class, column) bin's weights
    # from 0.0 in row order (the order of a per-class row sum, so the bits match)
    bins = (labels * dim)[:, None] + np.arange(dim)
    batch_sums = np.bincount(bins.ravel(), weights=features.ravel(),
                             minlength=n_classes * dim).reshape(n_classes, dim)
    decay = np.where(n_rows > 0, momentum, 1.0)
    sums = decay[:, None] * sums + batch_sums
    counts = decay * counts + n_rows
    if not (counts > 0.0).all():
        raise ValueError(f"class {int(np.argmin(counts > 0.0))} has no samples")
    r_norm = _row_norms(sums)
    # a fully cancelled resultant leaves the direction unidentifiable; kappa
    # is 0 then, so any fixed unit vector gives the same (uniform) law
    cancelled = r_norm <= 1e-12
    mus = sums / np.where(cancelled, 1.0, r_norm)[:, None]
    if cancelled.any():
        mus[cancelled] = np.eye(1, dim)
    return mus, _banerjee_kappa(r_norm / counts, dim), sums, counts
