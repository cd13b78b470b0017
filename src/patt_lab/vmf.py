"""von Mises-Fisher numerics on the unit hypersphere.

Log-domain Bessel and normalization constants, the array-native mixture and
streaming per-class parameter estimation. All functions are pure. The
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


def _log_bessel_series_plain(nu, x):
    # Ascending series sum_m (x/2)^(2m+nu) / (m! Gamma(m+nu+1)). All terms are
    # positive, so direct summation of the ratio-normalized terms is stable;
    # the plain-float accumulator is safe for x <= 300 (no overflow).
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    m = 0
    while True:
        m += 1
        term = term * q / (m * (m + nu))
        total += term
        if m > 4 and (term < 1e-18 * total).all():
            break
        if m > 10000:  # pragma: no cover - series converges long before this
            raise RuntimeError("Bessel series failed to converge")
    return nu * np.log(0.5 * x) - math.lgamma(nu + 1.0) + np.log(total)


def _log_bessel_series_log(nu, x):
    # Same series accumulated in log space for arguments large enough that the
    # normalized partial sums would overflow (only reachable for nu > ~12).
    log_half_x = np.log(0.5 * x)
    log_term = nu * log_half_x - math.lgamma(nu + 1.0)
    total = log_term.copy()
    m = 0
    while True:
        m += 1
        log_term = log_term + 2.0 * log_half_x - math.log(m) - math.log(m + nu)
        total = np.logaddexp(total, log_term)
        if m > 4 and (log_term < total - 45.0).all():
            break
        if m > 500000:  # pragma: no cover
            raise RuntimeError("Bessel series failed to converge")
    return total


def _log_bessel_asymptotic(nu, x):
    # Large-argument expansion I_nu(x) ~ e^x / sqrt(2 pi x) * sum_k a_k(nu)/x^k.
    # Only used for x >= max(30, 2 nu^2), where the truncated tail is far below
    # 1e-12 relative. ``nu`` and ``x`` broadcast: a column of orders against a
    # row of arguments evaluates the whole block with one scalar order per
    # row. For these x and k <= 39 every term is smaller than the one before,
    # so once |term| <= 1e-17 |sum| (below half an ulp) later terms leave the
    # sum unchanged, and testing that every fourth term keeps the bits of a
    # test after every term.
    mu4 = 4.0 * nu * nu
    inv8x = 1.0 / (8.0 * x)
    term = np.ones(np.broadcast_shapes(np.shape(nu), np.shape(x)))
    total = term.copy()
    for k in range(1, 40):
        term *= (2 * k - 1) ** 2 - mu4
        term *= inv8x
        term /= k
        total += term
        if k % 4 == 0 and (np.abs(term) <= 1e-17 * np.abs(total)).all():
            break
    return x - 0.5 * np.log(2.0 * math.pi * x) + np.log(total)


def _log_bessel_positive(orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    # log I_nu(x) for every order (rows) at every positive x (columns). Each
    # order in turn splits x at its own branch cuts and runs each branch's
    # loop over the elements that fall in it. Terms a loop adds after an
    # element has converged are below half an ulp of its sum, so every element
    # has the bits of its own evaluation.
    cut = np.maximum(30.0, 2.0 * orders * orders)
    if np.minimum.reduce(x, initial=np.inf) >= np.maximum.reduce(cut):
        # every element takes the asymptotic branch: evaluate the block
        return _log_bessel_asymptotic(orders[:, None], x)
    out = np.empty((orders.size, x.size))
    for row, nu, nu_cut in zip(out, orders.tolist(), cut.tolist()):
        small = x < min(nu_cut, 300.0)
        large = x >= nu_cut
        for mask, branch in ((small, _log_bessel_series_plain),
                             (~small & ~large, _log_bessel_series_log),
                             (large, _log_bessel_asymptotic)):
            row[mask] = branch(nu, x[mask])
    return out


def log_bessel_i(nu, x):
    """log I_nu(x), the modified Bessel function of the first kind, for a
    non-empty 1-D sequence of orders >= 0 at positive arguments ``x`` (an
    ndarray), evaluated in one pass; the result has shape
    ``(len(nu),) + x.shape``. Evaluated by the ascending series for small and
    moderate arguments and by the large-argument asymptotic expansion beyond
    ``max(30, 2 nu^2)``.
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
    log_norm, ratio = _log_norm_and_ratio(dim, ks.ravel())
    if ks.ndim == 0:
        return float(log_norm[0]), float(ratio[0])
    return log_norm.reshape(ks.shape), ratio.reshape(ks.shape)


def _log_norm_and_ratio(dim: int, kappa: np.ndarray):
    """``(log_norm_const(dim, kappa), bessel_ratio(dim, kappa))`` from one
    Bessel pass over both orders d/2 - 1 and d/2.

    Both arrays have the bits of the two separate calls. ``kappa`` is an
    array of finite non-negative values; ``dim`` is >= 2.
    """
    half = 0.5 * dim
    nu = half - 1.0
    # kappa = 0 lanes run the pass at a stand-in, then take the uniform law,
    # whose log normalization constant is minus the log sphere area
    pos = kappa > 0.0
    kp = np.where(pos, kappa, 1.0)
    log_i = log_bessel_i((nu, half), kp)
    log_norm = np.where(pos, nu * np.log(kp) - half * math.log(2.0 * math.pi) - log_i[0],
                        math.lgamma(half) - math.log(2.0) - half * math.log(math.pi))
    return log_norm, np.where(pos, np.exp(log_i[1] - log_i[0]), 0.0)


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


def _unit_rows_or(a: np.ndarray, norms: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    # rows of ``a`` scaled to unit length; rows whose norm is ~0 take the
    # matching row of ``fallback``
    cancelled = (norms <= 1e-12)[:, None]
    return np.where(cancelled, fallback, a / np.where(cancelled, 1.0, norms[:, None]))


def estimate_class_stats(
    features,
    labels,
    previous: VmfMixture | None = None,
    momentum: float = 0.0,
    class_counts=None,
) -> VmfMixture:
    """Per-class mean directions and concentrations from unit features.

    Concentration comes from the mean resultant length r via the closed-form
    approximation kappa = r (d - r^2) / (1 - r^2), clamped to [0, KAPPA_MAX].
    With ``previous`` given, direction (renormalized) and concentration are
    blended as an exponential moving average with the given momentum, and
    classes absent from the batch keep their previous statistics. Priors are
    fixed from full training-set counts: pass ``class_counts`` on the first
    call; afterwards they are carried from ``previous``, never re-estimated
    from batch frequencies.
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
    dim = feats.shape[1]

    if previous is not None:
        if previous.dim != dim:
            raise ValueError("previous mixture dimension mismatch")
        n_classes = previous.n_classes
        priors = previous.priors
    else:
        if class_counts is None:
            raise ValueError("class_counts is required when no previous stats exist")
        counts = np.asarray(class_counts, dtype=np.float64)
        if counts.ndim != 1 or counts.size < 2 or not (counts > 0).all():
            raise ValueError("class_counts must be positive with >= 2 classes")
        n_classes = counts.size
        priors = counts / np.add.reduce(counts)

    if (labs < 0).any() or (labs >= n_classes).any():
        raise ValueError("labels out of range for the class count")

    n_rows = np.bincount(labs, minlength=n_classes)
    present = n_rows > 0
    if previous is None and not present.all():
        absent = int(np.argmin(present))
        raise ValueError(f"class {absent} has no samples and no previous stats")
    # per-class resultants, accumulated row by row in batch order (the order
    # of a per-class row sum, so the bits match)
    resultants = np.zeros((n_classes, dim))
    np.add.at(resultants, labs, feats)
    r_norm = _row_norms(resultants)
    kappa = _banerjee_kappa(r_norm / np.maximum(n_rows, 1), dim)
    if previous is None:
        # fully cancelled resultant: direction is unidentifiable, kappa is
        # 0 anyway so any fixed unit vector gives the same (uniform) law
        fallback = np.zeros_like(resultants)
        fallback[:, 0] = 1.0
        return VmfMixture(mus=_unit_rows_or(resultants, r_norm, fallback),
                          kappas=kappa, priors=priors)
    mu = _unit_rows_or(resultants, r_norm, previous.mus)
    if momentum > 0.0:
        blend = momentum * previous.mus + (1.0 - momentum) * mu
        mu = _unit_rows_or(blend, _row_norms(blend), mu)
        kappa = momentum * previous.kappas + (1.0 - momentum) * kappa
    # absent classes keep their previous rows
    return VmfMixture(mus=np.where(present[:, None], mu, previous.mus),
                      kappas=np.where(present, kappa, previous.kappas), priors=priors)
