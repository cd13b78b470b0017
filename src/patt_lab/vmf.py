"""von Mises-Fisher numerics on the unit hypersphere.

Log-domain Bessel and normalization constants, the array-native mixture and
per-class parameter estimation from running sums. All functions are pure. The
sampler lives in ``data``, its one caller in the package; the densities and
the moment generating function, which only tests call, live in
``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .util import MU_NORM_TOL, norms_along

__all__ = [
    "KAPPA_MAX",
    "VmfMixture",
    "log_bessel_i",
    "log_norm_const",
    "bessel_ratio",
    "estimate_class_stats",
]

# Concentration cap. Keeps the estimator away from the degenerate point-mass
# limit and the Bessel evaluation inside its validated range.
KAPPA_MAX = 1e4

_UNIT_INPUT_TOL = 1e-6

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


class VmfMixture:
    """A finite mixture of same-dimension vMF components with strict priors,
    stored as arrays: ``mus`` (K, dim) unit rows, ``kappas`` (K,) and
    ``priors`` (K,).

    Construction checks every row at once (dim >= 2, finite non-negative
    kappa, unit-norm mu) and requires positive priors that sum to 1.
    """

    def __init__(self, mus, kappas, priors) -> None:
        self.mus = np.asarray(mus, dtype=np.float64)
        self.kappas = np.asarray(kappas, dtype=np.float64)
        self.priors = np.asarray(priors, dtype=np.float64)
        if self.mus.ndim != 2 or self.mus.shape[0] == 0:
            raise ValueError(f"mus must be a non-empty (K, dim) matrix, got shape {self.mus.shape}")
        k, dim = self.mus.shape
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        if self.kappas.shape != (k,) or self.priors.shape != (k,):
            raise ValueError(f"kappas {self.kappas.shape} and priors {self.priors.shape} "
                             f"must both have shape ({k},)")
        # each test is written so that NaN fails it
        if not (np.isfinite(self.kappas) & (self.kappas >= 0.0)).all():
            raise ValueError(f"kappa must be finite and non-negative, got {self.kappas}")
        norms = _row_norms(self.mus)
        bad = ~(np.abs(norms - 1.0) <= MU_NORM_TOL)
        if bad.any():
            raise ValueError(f"mu must be unit norm, got ||mu|| = {norms[bad][0]!r}")
        if not (self.priors > 0.0).all():
            raise ValueError("priors must be strictly positive")
        total = float(np.add.reduce(self.priors))
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"priors must sum to 1, got {total!r}")

    @property
    def n_classes(self) -> int:
        return self.mus.shape[0]

    @property
    def dim(self) -> int:
        return self.mus.shape[1]


def _log_bessel_series(orders, x):
    # Ascending series sum_m (x/2)^(2m+nu) / (m! Gamma(m+nu+1)) for each order
    # (rows) at every x (columns). All terms are positive, so direct summation
    # of the ratio-normalized terms is stable. Convergence is tested every 4th
    # term over the whole block: past its peak each term is under 1e-18 of its
    # sum, less than half an ulp, so the extra terms leave every sum's bits.
    # Then each unconverged sum above _SERIES_BOUND and its term are scaled
    # exactly into [0.5, 1) by a power of two, whose log is added last: each
    # element has the bits it has alone, and one never scaled (all x < 300)
    # the bits of the unscaled sum, as adding 0.0 is exact.
    nu = orders[:, None]
    q = 0.25 * x * x
    term = np.ones((orders.size, x.size))
    total = term.copy()
    shifts = np.zeros(total.shape, dtype=np.int64)
    m = 0
    while True:
        m += 1
        term = term * q / (m * (m + nu))
        total += term
        if m % 4 == 0:
            live = term >= 1e-18 * total
            if not live.any():
                break
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
    # (rows) at every x (any shape). Each order's terms stop at the first one
    # at most 1e-17 of the partial sum at the smallest x (at most 39 terms);
    # the table is zero-padded to the longest order and summed by Horner's
    # rule in 1/x. Only used for x >= max(30, 2 nu^2), the asymptotic cut.
    inv_x = 1.0 / x
    inv_lo = float(np.maximum.reduce(inv_x, axis=None, initial=0.0))
    table = np.zeros((40, len(orders)))
    top = 1
    for col, nu in enumerate(orders):
        coef = total = 1.0
        for k in range(1, 40):
            coef *= ((2 * k - 1) ** 2 - 4.0 * nu * nu) / (8 * k)
            table[k, col] = coef
            term = coef * inv_lo ** k
            total += term
            if abs(term) <= 1e-17 * abs(total):
                break
        top = max(top, k)
    out = np.multiply.outer(table[top], inv_x)
    for coef in table[top - 1:0:-1]:
        out += coef.reshape((-1,) + (1,) * inv_x.ndim)
        out *= inv_x
    return out + 1.0


def _log_bessel_asymptotic(nu, x):
    return x - 0.5 * np.log(2.0 * math.pi * x) + np.log(_asymptotic_sum((nu,), x)[0])


def _log_bessel_positive(orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    # log I_nu(x) for every order (rows) at every positive x (columns). The
    # series runs once over every order at the union of their lanes below the
    # cut max(30, 2 nu^2), and each order keeps its own; then each order runs
    # the asymptotic kernel on its lanes at or above its cut.
    small = x < np.maximum(30.0, 2.0 * orders * orders)[:, None]
    union = small.any(axis=0)
    out = np.empty((orders.size, x.size))
    out[small] = _log_bessel_series(orders, x[union])[small[:, union]]
    for row, nu, own in zip(out, orders.tolist(), small):
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
    # the input check of log_norm_const and bessel_ratio, then both from
    # one Bessel pass
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
    # kappa = 0 lanes stand in at 1.0 and join neither branch; they take the
    # uniform law (minus the log sphere area, ratio 0)
    pos = kappa > 0.0
    kp = np.where(pos, kappa, 1.0)
    large = kp >= max(30.0, 2.0 * half * half)
    rest = pos & ~large
    log_i, ratio = np.zeros(kp.shape), np.zeros(kp.shape)
    if large.any():
        kl = kp[large]
        series = _asymptotic_sum((nu, half), kl)
        log_i[large] = kl - 0.5 * np.log(2.0 * math.pi * kl) + np.log(series[0])
        ratio[large] = series[1] / series[0]
    if rest.any():
        log_i_nu, log_i_half = log_bessel_i((nu, half), kp[rest])
        log_i[rest], ratio[rest] = log_i_nu, np.exp(log_i_half - log_i_nu)
    log_norm = np.where(pos, nu * np.log(kp) - half * math.log(2.0 * math.pi) - log_i,
                        math.lgamma(half) - math.log(2.0) - half * math.log(math.pi))
    return log_norm, ratio


def _check_unit_rows(z: np.ndarray, what: str) -> None:
    norms = norms_along(z)
    deviation = np.abs(norms - 1.0)
    if not (deviation <= _UNIT_INPUT_TOL).all():  # written so that NaN fails
        worst = float(norms.ravel()[np.argmax(deviation.ravel())])
        raise ValueError(f"{what} must be unit norm, worst ||.|| = {worst!r}")


def _banerjee_kappa(r_bar: np.ndarray, dim: int) -> np.ndarray:
    # kappa ~= r (d - r^2) / (1 - r^2), clamped into [0, KAPPA_MAX]
    capped = r_bar >= 1.0 - 1e-12
    r = np.where(capped, 0.0, r_bar)  # keeps 1 - r^2 away from 0 in capped rows
    r2 = r * r
    kappa = np.minimum(np.maximum(r * (dim - r2) / (1.0 - r2), 0.0), KAPPA_MAX)
    return np.where(capped, KAPPA_MAX, kappa)


def estimate_class_stats(features, labels, sums, counts, priors, momentum: float = 0.0):
    """Fold a batch of unit features into running per-class sums and return
    ``(mixture, sums, counts)``; the inputs are left unchanged.

    ``sums`` (K, d) holds each class's resultant S and ``counts`` (K,) its row
    count N. A class present in the batch decays both by ``momentum`` and
    adds the batch's sum and count, S <- m S + S_b and N <- m N + n_b; an
    absent class keeps its bits. The mixture has mu = S / |S| and kappa from
    the mean resultant length r = |S| / N by the closed-form approximation
    kappa = r (d - r^2) / (1 - r^2), clamped to [0, KAPPA_MAX]; the priors
    are carried unchanged. A full pass over a split is one call from zero
    sums, after which every class must have rows.
    """
    feats = np.asarray(features, dtype=np.float64)
    labs = np.asarray(labels)
    if feats.ndim != 2 or labs.shape != (feats.shape[0],):
        raise ValueError("features must be (n, d) with one label per row")
    if feats.shape[0] == 0:
        raise ValueError("need at least one sample")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    _check_unit_rows(feats, "features")
    sums, counts = np.asarray(sums, dtype=np.float64), np.asarray(counts, dtype=np.float64)
    n_classes, dim = counts.size, feats.shape[1]
    if sums.shape != (n_classes, dim) or counts.shape != (n_classes,):
        raise ValueError(f"running sums {sums.shape} and counts {counts.shape} "
                         f"must be (K, {dim}) and (K,)")
    if (labs < 0).any() or (labs >= n_classes).any():
        raise ValueError("labels out of range for the class count")

    n_rows = np.bincount(labs, minlength=n_classes)
    # per-class batch sums: bincount adds each (class, column) bin's weights
    # from 0.0 in row order (the order of a per-class row sum, so the bits match)
    bins = (labs * dim)[:, None] + np.arange(dim)
    batch_sums = np.bincount(bins.ravel(), weights=feats.ravel(),
                             minlength=n_classes * dim).reshape(n_classes, dim)
    decay = np.where(n_rows > 0, momentum, 1.0)
    sums = decay[:, None] * sums + batch_sums
    counts = decay * counts + n_rows
    if not (counts > 0.0).all():
        raise ValueError(f"class {int(np.argmin(counts > 0.0))} has no samples")
    r_norm = _row_norms(sums)
    # a fully cancelled resultant leaves the direction unidentifiable; kappa
    # is 0 then, so any fixed unit vector gives the same (uniform) law
    cancelled = (r_norm <= 1e-12)[:, None]
    mus = np.where(cancelled, np.eye(1, dim), sums / np.where(cancelled, 1.0, r_norm[:, None]))
    mix = VmfMixture(mus=mus, kappas=_banerjee_kappa(r_norm / counts, dim), priors=priors)
    return mix, sums, counts
