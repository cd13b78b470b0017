"""Training objectives with exact analytic gradients.

Outlier exposure to the uniform prediction, the batch supervised contrastive
loss, logit adjustment (plain and temperature-sharpened), the closed-form
infinite-batch contrastive loss under a vMF mixture, and the combined
objective. Each differentiable loss returns its value together with the
gradient with respect to the argument it differentiates (features or logits);
mixture statistics are always treated as constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PattHyper
from .util import logsumexp_softmax, norms_along
from .vmf import VmfMixture, _log_norm_and_ratio

__all__ = [
    "LossValue",
    "PattHyper",
    "TotalLossValue",
    "oe_uniform_loss",
    "scl_batch_loss",
    "la_loss",
    "tla_loss",
    "isac_loss",
    "patt_total_loss",
]

_TINY = 1e-300


@dataclass
class LossValue:
    """A loss evaluation: scalar value plus gradient in the differentiated
    argument."""

    value: float
    grad: np.ndarray


@dataclass
class TotalLossValue:
    """Combined objective evaluation with per-term values and the gradients
    flowing to each argument."""

    value: float
    isac: float
    tla: float
    oe: float
    grad_z: np.ndarray
    grad_logits: np.ndarray
    grad_ood_logits: np.ndarray | None


def _check_logits(logits, min_k: int = 2) -> np.ndarray:
    v = np.asarray(logits, dtype=np.float64)
    if v.ndim != 1 or v.size < min_k:
        raise ValueError(f"logits must be 1-D with >= {min_k} entries")
    if not np.all(np.isfinite(v)):
        raise ValueError("logits must be finite")
    return v


def _check_priors(priors, k: int) -> np.ndarray:
    p = np.asarray(priors, dtype=np.float64)
    if p.shape != (k,):
        raise ValueError(f"priors shape {p.shape} does not match {k} classes")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise ValueError("priors must be finite and non-negative")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"priors must sum to 1, got {float(p.sum())!r}")
    return p


def oe_uniform_loss(logits) -> LossValue:
    """Cross entropy from the uniform target: logsumexp(logits) - mean(logits).

    Minimized (at log K, with zero gradient) exactly when all logits are
    equal, i.e. the prediction carries no class information.
    """
    v = _check_logits(logits)
    vals, grads = oe_uniform_loss_batch(v[None, :])
    return LossValue(value=float(vals[0]), grad=grads[0])


def oe_uniform_loss_batch(logits: np.ndarray):
    """Row-wise ``oe_uniform_loss``: returns (values (n,), gradients (n, K))."""
    k = logits.shape[-1]
    lse, probs = logsumexp_softmax(logits)
    return lse - np.add.reduce(logits, axis=-1) / k, probs - 1.0 / k


def scl_batch_loss(features: np.ndarray, labels: np.ndarray, anchor_index: int, tau: float) -> float:
    """Supervised contrastive loss of one anchor against a finite batch.

    The positive set is every batch sample sharing the anchor's label, the
    anchor itself included; the denominator runs over the whole batch.
    """
    z = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if tau <= 0.0:
        raise ValueError(f"tau must be > 0, got {tau}")
    if z.ndim != 2 or y.shape != (z.shape[0],):
        raise ValueError("features must be (n, d) with one label per row")
    if not 0 <= anchor_index < z.shape[0]:
        raise ValueError(f"anchor index {anchor_index} out of range")
    anchor = z[anchor_index]
    sims = (z @ anchor) / tau
    pos = y == y[anchor_index]
    n_pos = int(pos.sum())
    lse_pos, _ = logsumexp_softmax(sims[pos])
    lse_all, _ = logsumexp_softmax(sims)
    return float(np.log(n_pos) - lse_pos + lse_all)


def la_loss(logits, y: int, priors) -> LossValue:
    """Prior-weighted softmax cross entropy (logit adjustment).

    Equivalent to cross entropy on logits shifted by log priors, so rare
    classes must win by a larger margin to be predicted.
    """
    v = _check_logits(logits)
    p = _check_priors(priors, v.size)
    y = int(y)
    if not 0 <= y < v.size:
        raise ValueError(f"label {y} out of range")
    if p[y] == 0.0:
        raise ValueError(f"target class {y} has zero prior")
    with np.errstate(divide="ignore"):
        a = np.log(p) + v
    lse, grad = logsumexp_softmax(a)
    value = float(lse - a[y])
    grad[y] -= 1.0
    return LossValue(value=value, grad=grad)


def tla_loss(logits, y: int, priors, epsilon: float) -> LossValue:
    """Tail-sharpened logit adjustment: adjustment at temperature ``epsilon``.

    Logits are divided by epsilon before the prior shift; epsilon < 1 both
    sharpens the decision and scales the gradient by 1/epsilon. epsilon = 1
    recovers plain adjustment.
    """
    v = _check_logits(logits)
    p = _check_priors(priors, v.size)
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    y = int(y)
    if not 0 <= y < v.size:
        raise ValueError(f"label {y} out of range")
    if p[y] == 0.0:
        raise ValueError(f"target class {y} has zero prior")
    vals, grads = tla_loss_batch(v[None, :], np.array([y]), p, epsilon)
    return LossValue(value=float(vals[0]), grad=grads[0])


def tla_loss_batch(logits: np.ndarray, y: np.ndarray, priors: np.ndarray, epsilon: float):
    """Row-wise ``tla_loss``: returns (values (n,), gradients (n, K))."""
    with np.errstate(divide="ignore"):
        a = np.log(priors)[None, :] + logits / epsilon
    rows = np.arange(a.shape[0])
    lse, grads = logsumexp_softmax(a)
    vals = lse - a[rows, y]
    grads[rows, y] -= 1.0
    grads /= epsilon
    return vals, grads


def isac_loss(mix: VmfMixture, z, y: int, tau: float) -> LossValue:
    """Infinite-batch limit of the supervised contrastive loss under a vMF
    mixture of class-conditional feature laws.

    Every class contributes through the tilted concentration
    ||kappa_j mu_j + z / tau||; the value is a logsumexp over classes of
    log-domain normalization-constant ratios, and the gradient in z is exact.
    The mixture statistics are constants (no gradient flows into them).
    """
    zv = np.asarray(z, dtype=np.float64)
    if zv.ndim != 1:
        raise ValueError("z must be a single feature vector")
    vals, grads = isac_loss_batch(mix, zv[None, :], np.array([int(y)]), tau)
    return LossValue(value=float(vals[0]), grad=grads[0])


def isac_loss_batch(mix: VmfMixture, z: np.ndarray, y: np.ndarray, tau: float):
    """Row-wise ``isac_loss``: returns (values (n,), gradients (n, d))."""
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

    n = z.shape[0]
    rows = np.arange(n)
    log_priors = np.log(mix.priors)
    kappas = mix.kappas
    k = kappas.size

    # tilted concentrations per (sample, class)
    centers = kappas[:, None] * mix.mus
    tilted_vec = centers[None, :, :] + z[:, None, :] / tau
    tilted = norms_along(tilted_vec, axis=2)
    # one Bessel pass for the class and the tilted concentrations together
    log_z, ratio = _log_norm_and_ratio(mix.dim, np.concatenate([kappas, tilted.ravel()]))
    log_z_class = log_z[:k]
    log_z_tilted = log_z[k:].reshape(n, k)
    ratio = ratio[k:].reshape(n, k)

    s = (
        log_priors[None, :]
        - log_priors[y][:, None]
        + log_z_tilted[rows, y][:, None]
        + log_z_class[None, :]
        - log_z_class[y][:, None]
        - log_z_tilted
    )
    vals, p = logsumexp_softmax(s)

    # d log Z / d kappa = -A_d(kappa); chain through d tilted / d z
    weight = ratio / (tau * np.maximum(tilted, _TINY))
    grads = np.einsum("nk,nkd->nd", p * weight, tilted_vec)
    grads -= weight[rows, y][:, None] * tilted_vec[rows, y]
    return vals, grads


def patt_total_loss(
    mix: VmfMixture,
    z_id,
    y: int,
    logits_id,
    logits_ood,
    hyper: PattHyper,
    priors,
) -> TotalLossValue:
    """Combined objective for one labeled sample plus a batch of outlier
    logits: contrastive + alpha * adjusted classification + beta * exposure.

    ``logits_ood`` may be None or empty (the exposure term is then 0). Each
    gradient flows to its own argument: features, sample logits, outlier
    logits.
    """
    zv = np.asarray(z_id, dtype=np.float64)
    isac = isac_loss(mix, zv, y, hyper.tau)
    tla = tla_loss(logits_id, y, priors, hyper.epsilon)
    if logits_ood is None or np.size(logits_ood) == 0:
        oe_val = 0.0
        grad_ood = None
    else:
        lo = np.asarray(logits_ood, dtype=np.float64)
        if lo.ndim != 2:
            raise ValueError("outlier logits must be a (m, K) batch")
        oe_vals, oe_grads = oe_uniform_loss_batch(lo)
        oe_val = float(oe_vals.mean())
        grad_ood = hyper.beta * oe_grads / lo.shape[0]
    value = isac.value + hyper.alpha * tla.value + hyper.beta * oe_val
    return TotalLossValue(
        value=value,
        isac=isac.value,
        tla=tla.value,
        oe=oe_val,
        grad_z=isac.grad,
        grad_logits=hyper.alpha * tla.grad,
        grad_ood_logits=grad_ood,
    )
