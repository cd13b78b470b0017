"""Training objectives with exact analytic gradients, row-wise over a batch.

Outlier exposure to the uniform prediction, tail-sharpened logit adjustment,
and the closed-form infinite-batch contrastive loss under a vMF mixture, built
on an (n, K) Gram product. Each returns the per-row values with the gradient
in the argument it differentiates (features or logits); mixture statistics
are constants. The per-sample forms, the combined objective and the earlier
tensor form of the contrastive loss live in ``tests/oracles.py``.
"""

import numpy as np

from .util import logsumexp_softmax
from .vmf import VmfMixture, _log_norm_and_ratio

__all__ = ["oe_uniform_loss_batch", "tla_loss_batch", "isac_loss_batch"]

_TINY = 1e-300


def oe_uniform_loss_batch(logits: np.ndarray):
    """Cross entropy from the uniform target, logsumexp(logits) - mean(logits),
    per row: returns (values (n,), gradients (n, K)). Minimized (at log K,
    with zero gradient) exactly when all logits of a row are equal."""
    k = logits.shape[-1]
    lse, probs = logsumexp_softmax(logits)
    return lse - np.add.reduce(logits, axis=-1) / k, probs - 1.0 / k


def tla_loss_batch(logits: np.ndarray, y: np.ndarray, priors: np.ndarray, epsilon: float):
    """Tail-sharpened logit adjustment per row: cross entropy on
    ``log(priors) + logits / epsilon``, whose gradient in the logits carries
    the factor 1/epsilon. Returns (values (n,), gradients (n, K))."""
    with np.errstate(divide="ignore"):
        a = np.log(priors)[None, :] + logits / epsilon
    rows = np.arange(a.shape[0])
    lse, grads = logsumexp_softmax(a)
    vals = lse - a[rows, y]
    grads[rows, y] -= 1.0
    grads /= epsilon
    return vals, grads


def isac_loss_batch(mix: VmfMixture, z: np.ndarray, y: np.ndarray, tau: float):
    """Infinite-batch limit of the supervised contrastive loss under a vMF
    mixture of class-conditional feature laws, per row: returns (values (n,),
    gradients (n, d)).

    Every class contributes through the tilted concentration
    ||kappa_j mu_j + z / tau||, expanded over the Gram product
    (z / tau) @ (kappa mu).T with the square clamped at 0; the value is a
    logsumexp over classes of log-domain normalization-constant ratios, and
    the gradient in z is exact.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y)
    if z.ndim != 2 or z.shape[1] != mix.dim:
        raise ValueError(f"features must be (n, {mix.dim})")
    if y.shape != (z.shape[0],):
        raise ValueError("one label per feature row required")
    if (y < 0).any() or (y >= mix.n_classes).any():
        raise ValueError("label out of range for the mixture")
    if not np.isfinite(z).all():
        raise ValueError("features must be finite")

    n, k = z.shape[0], mix.n_classes
    rows = np.arange(n)

    # ||c_j + z/tau||^2 = ||c_j||^2 + 2 (z/tau).c_j + ||z/tau||^2, c_j = kappa_j mu_j
    centers = mix.kappas[:, None] * mix.mus
    zt = z / tau
    sq = (np.add.reduce(centers * centers, axis=1)[None, :] + 2.0 * (zt @ centers.T)
          + np.add.reduce(zt * zt, axis=1)[:, None])
    tilted = np.sqrt(np.maximum(sq, 0.0))
    # one Bessel pass for the class and the tilted concentrations together
    log_z, ratio = _log_norm_and_ratio(mix.dim, np.concatenate([mix.kappas, tilted.ravel()]))
    log_z_class = log_z[:k]
    log_z_tilted = log_z[k:].reshape(n, k)
    ratio = ratio[k:].reshape(n, k)

    # s_nj = log(pi_j C(kappa_j) / C(tilted_nj)) - log(pi_y C(kappa_y) / C(tilted_ny))
    own = np.log(mix.priors) + log_z_class
    s = (own[None, :] - log_z_tilted) - (own[y] - log_z_tilted[rows, y])[:, None]
    vals, p = logsumexp_softmax(s)

    # d log Z / d kappa = -A_d(kappa); chain through d tilted / d z, which is
    # (c_j + z/tau) / (tau tilted): W @ centers + (row sums of W) z/tau
    weight = ratio / (tau * np.maximum(tilted, _TINY))
    w = p * weight
    w[rows, y] -= weight[rows, y]
    return vals, w @ centers + np.add.reduce(w, axis=1)[:, None] * zt
