"""Independent reference implementations the tests compare against.

Everything here trades speed for transparency: literal series summation in
50-digit arithmetic, exhaustive threshold sweeps, O(n^2) pair counting.
Production code must agree with these oracles, never the other way around.
The module also keeps the earlier forms of rewritten hot paths (the
per-element and per-order series Bessel kernels below x = 300, two-pass
log-sum-exp and softmax, the per-parameter optimizer step, the per-class
statistics refresh) and the numpy forms of the plain-Python report (the
head/tail accuracy split, the score histogram); the rewrites must match
them bit for bit. Two earlier forms round differently from their rewrites
and are held to stated tolerances: the forward-summed asymptotic Bessel
kernel (the Horner rewrite also meets the 40-digit ``norm_and_ratio_mp`` and
``log_bessel_mp``) and the (n, K, d) tensor form of the contrastive loss
(the Gram-product rewrite). ``model_of`` builds a model from separate
arrays, which the model, holding one parameter vector, no longer takes. The
package evaluates batches only:
``log_bessel_i_at`` evaluates ``vmf.log_bessel_i`` at one order, and
``read_report`` parses the ``report.csv`` that eval writes.

The last part holds code that left the package because no pipeline stage
runs it: the per-sample losses and the combined objective (thin wrappers of
the package's batch kernels), the single vMF component with its density and
moment generating function, the checked 1-D log-sum-exp, the two post-hoc
baselines (tau-normalised classifier, prior-subtraction logit adjustment),
and the ``np.union1d`` form of the occupied-class check of
``calibration.attention_weight``.
"""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from patt_lab import losses, vmf
from patt_lab.calibration import channel_importance
from patt_lab.model import EncoderClassifier, classifier_logits
from patt_lab.util import MU_NORM_TOL, logsumexp_softmax

mp.mp.dps = 50


def log_bessel_series(nu, x):
    """ln I_nu(x) by the ascending series sum_m (x/2)^(2m+nu) / (m! G(m+nu+1)).

    Arbitrary-precision term-by-term summation; converges for any x but is
    only practical for moderate arguments.
    """
    nu, x = mp.mpf(nu), mp.mpf(x)
    if x == 0:
        if nu == 0:
            return 0.0
        return float("-inf")
    half = x / 2
    total = mp.mpf(0)
    for m in range(2000):
        term = half ** (2 * m + nu) / (mp.factorial(m) * mp.gamma(m + nu + 1))
        total += term
        if m > 2 and term < total * mp.mpf("1e-45"):
            break
    return float(mp.log(total))


def log_bessel_half(nu, x):
    """Half-integer closed forms for nu = 1/2 and nu = 3/2."""
    x = mp.mpf(x)
    pref = mp.sqrt(2 / (mp.pi * x))
    if nu == 0.5:
        return float(mp.log(pref * mp.sinh(x)))
    if nu == 1.5:
        return float(mp.log(pref * (mp.cosh(x) - mp.sinh(x) / x)))
    raise ValueError(f"no closed form for nu={nu}")


def log_bessel_i_at(nu, x):
    """``vmf.log_bessel_i`` at the one order ``nu``: a float for a scalar
    ``x``, else an array shaped like ``x``."""
    out = vmf.log_bessel_i([nu], np.asarray(x, dtype=np.float64))[0]
    return float(out) if out.ndim == 0 else out


def log_bessel_mp(nu, x):
    """mpmath's own I_nu, a second independent route for large arguments."""
    return float(mp.log(mp.besseli(mp.mpf(nu), mp.mpf(x))))


def norm_and_ratio_mp(dim, kappa):
    """``(log C_d(kappa), A_d(kappa))`` in 40-digit arithmetic for each
    positive ``kappa``, as two float arrays. The ratio I_{d/2}/I_{d/2-1} is
    taken inside mpmath: the exp of a float difference of two logs would
    carry the very cancellation the tests look for."""
    log_norm, ratio = [], []
    with mp.workdps(40):
        nu = mp.mpf(dim) / 2 - 1
        for k in np.ravel(kappa).tolist():
            k = mp.mpf(k)
            i_nu = mp.besseli(nu, k)
            log_norm.append(float(nu * mp.log(k) - (nu + 1) * mp.log(2 * mp.pi) - mp.log(i_nu)))
            ratio.append(float(mp.besseli(nu + 1, k) / i_nu))
    return np.array(log_norm), np.array(ratio)


def log_bessel_asymptotic_ref(nu, x):
    """The large-argument kernel before its Horner form: per-element orders,
    forward summation, and a convergence test after every term.

    Returns the values and the number of terms summed.
    """
    mu4 = 4.0 * nu * nu
    inv8x = 1.0 / (8.0 * x)
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(1, 40):
        term = term * ((2 * k - 1) ** 2 - mu4) * inv8x / k
        total += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
            break
    return x - 0.5 * np.log(2.0 * math.pi * x) + np.log(total), k


def _lgamma_plus_one(orders, row):
    # lgamma(nu + 1) for each element's order, from math.lgamma once per order
    return np.array([math.lgamma(v + 1.0) for v in orders])[row]


def _log_bessel_series_plain_ref(orders, row, x):
    """The plain ascending-series kernel before its per-order form: element
    ``i`` has order ``orders[row[i]]``, and one loop runs over the elements
    of all orders."""
    nu = orders[row]
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
    return nu * np.log(0.5 * x) - _lgamma_plus_one(orders, row) + np.log(total)


def _log_bessel_series_plain_order(nu, x):
    # the plain ascending series for one scalar order, testing convergence
    # after every term from the fifth on
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
    return nu * np.log(0.5 * x) - math.lgamma(nu + 1.0) + np.log(total)


def log_bessel_positive_per_order(orders, x):
    """``vmf._log_bessel_positive`` before its series ran as one block over
    all orders: each order in turn splits x at its own branch cuts and runs
    each branch's loop, the series with its own convergence test, over the
    elements that fall in it. Lanes in [300, cut), where the series may
    rescale its sums, are NaN: the tests hold them to mpmath instead."""
    cut = np.maximum(30.0, 2.0 * orders * orders)
    out = np.full((orders.size, x.size), np.nan)
    for row, nu, nu_cut in zip(out, orders.tolist(), cut.tolist()):
        small = x < min(nu_cut, 300.0)
        large = x >= nu_cut
        row[small] = _log_bessel_series_plain_order(nu, x[small])
        row[large] = vmf._log_bessel_asymptotic(nu, x[large])
    return out


def log_bessel_positive_ref(orders, x):
    """``vmf._log_bessel_positive`` from the per-element kernels: every
    (order, x) pair flattened, and each branch evaluated once on its mask
    over all orders. Lanes in [300, cut) are NaN, as in
    ``log_bessel_positive_per_order``."""
    row = np.repeat(np.arange(orders.size), x.size)
    xs = np.tile(x, orders.size)
    cut = np.maximum(30.0, 2.0 * orders * orders)[row]
    small = xs < np.minimum(cut, 300.0)
    large = xs >= cut
    out = np.full(xs.shape, np.nan)
    if small.any():
        out[small] = _log_bessel_series_plain_ref(orders, row[small], xs[small])
    if large.any():
        out[large] = log_bessel_asymptotic_ref(orders[row[large]], xs[large])[0]
    return out.reshape(orders.size, x.size)


def logsumexp_ref(a):
    """Row-wise log-sum-exp as two passes; -inf lanes drop out."""
    m = np.max(a, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.squeeze(m, -1) + np.log(np.sum(np.exp(a - m), axis=-1))


def softmax_ref(a):
    """Row-wise softmax, its own exp pass."""
    m = np.max(a, axis=-1, keepdims=True)
    e = np.exp(a - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def apply_update_ref(params, grads, config, state=None):
    """One Adam or SGD step parameter by parameter, each from its own arrays.

    ``params`` and ``grads`` are lists in ``param_list`` order; ``state``
    holds per-parameter lists (``m``, ``v`` and ``t`` for Adam,
    ``velocity`` for SGD) and is None before the first step. Returns the new
    parameter list and state; the inputs are left untouched.
    """
    params = [p.copy() for p in params]
    if state is None:
        zeros = [np.zeros_like(p) for p in params]
        state = {"m": zeros, "v": zeros, "t": 0, "velocity": zeros}
    lr = config.learning_rate
    if config.optimizer == "adam":
        b1, b2, eps = 0.9, 0.999, 1e-8
        t = state["t"] + 1
        new_m, new_v = [], []
        for i, (p, g) in enumerate(zip(params, grads)):
            m = b1 * state["m"][i] + (1.0 - b1) * g
            v = b2 * state["v"][i] + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
            new_m.append(m)
            new_v.append(v)
        return params, {"m": new_m, "v": new_v, "t": t}
    new_vel = []
    for i, (p, g) in enumerate(zip(params, grads)):
        vel = config.sgd_momentum * state["velocity"][i] + g
        p -= lr * vel
        new_vel.append(vel)
    return params, {"velocity": new_vel}


def forward_ref(model, x):
    """The encoder pass as one expression per layer, keeping every hidden
    layer: returns (input and hidden activations, norms, unit features)."""
    acts = [x]
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.tanh(h @ w.T + b)
        acts.append(h)
    pre = h @ model.weights[-1].T + model.biases[-1]
    norms = np.linalg.norm(pre, axis=1)
    return acts, norms, pre / norms[:, None]


def model_of(weights, biases, clf_w, clf_b):
    """An ``EncoderClassifier`` holding copies of separate arrays: per layer
    W of shape (fan_out, fan_in) and its bias, then the head. The model keeps
    its parameters in one vector, so this is how a test builds one from
    chosen arrays."""
    arrays = [a for pair in zip(weights, biases) for a in pair] + [clf_w, clf_b]
    flat = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
    sizes = [np.shape(weights[0])[1]] + [np.shape(w)[0] for w in weights]
    return EncoderClassifier(flat, sizes, np.shape(clf_w)[0])


def copy_model(model):
    """A model over a copy of ``model.flat``."""
    return EncoderClassifier(model.flat.copy(), model.layer_sizes, model.n_classes)


def mixture_of(components, priors):
    """A ``vmf.VmfMixture`` whose rows are the given ``VmfParams``."""
    return vmf.VmfMixture(mus=np.stack([c.mu for c in components]),
                          kappas=np.array([c.kappa for c in components]),
                          priors=priors)


def components_of(mix):
    """Each row of a mixture as its own validated ``VmfParams``."""
    return [VmfParams(mu=mix.mus[j], kappa=mix.kappas[j], dim=mix.dim)
            for j in range(mix.n_classes)]


def full_stats(feats, labs, class_counts):
    """``vmf.estimate_class_stats`` over a whole split from zero sums, with
    the priors of ``class_counts``, as ``model.train`` runs it; returns
    ``(mixture, sums, counts)``."""
    counts = np.asarray(class_counts, dtype=np.float64)
    k = counts.size
    return vmf.estimate_class_stats(feats, labs, np.zeros((k, feats.shape[1])), np.zeros(k),
                                    counts / np.add.reduce(counts))


def assert_stats_equal(got, want):
    """(mixture, sums, counts) of ``vmf.estimate_class_stats`` against the
    (components, sums, counts) of ``class_stats_ref``, bit for bit."""
    mix, sums, counts = got
    comps, want_sums, want_counts = want
    np.testing.assert_array_equal(mix.mus, np.stack([c.mu for c in comps]))
    np.testing.assert_array_equal(mix.kappas, [c.kappa for c in comps])
    np.testing.assert_array_equal(sums, want_sums)
    np.testing.assert_array_equal(counts, want_counts)


def class_stats_ref(feats, labs, sums, counts, momentum):
    """``vmf.estimate_class_stats`` one class at a time, as a Python loop that
    builds one ``VmfParams`` per class: a class with rows in the batch takes
    S <- m S + (its row sum) and N <- m N + (its row count), an absent class
    keeps both. Returns ``(components, sums, counts)``; the inputs are left
    unchanged.
    """
    dim = feats.shape[1]
    sums = np.array(sums, dtype=np.float64)
    counts = np.array(counts, dtype=np.float64)
    comps = []
    for y in range(counts.size):
        rows = feats[labs == y]
        if rows.shape[0] > 0:
            sums[y] = momentum * sums[y] + rows.sum(axis=0)
            counts[y] = momentum * counts[y] + rows.shape[0]
        r_norm = float(np.linalg.norm(sums[y]))
        r_bar = r_norm / counts[y]
        if r_norm > 1e-12:
            mu_hat = sums[y] / r_norm
        else:
            mu_hat = np.zeros(dim)
            mu_hat[0] = 1.0
        if r_bar >= 1.0 - 1e-12:
            kappa_hat = vmf.KAPPA_MAX
        else:
            kappa_hat = r_bar * (dim - r_bar * r_bar) / (1.0 - r_bar * r_bar)
            kappa_hat = min(max(kappa_hat, 0.0), vmf.KAPPA_MAX)
        comps.append(VmfParams(mu=mu_hat, kappa=kappa_hat, dim=dim))
    return comps, sums, counts


def log_z3(kappa):
    """ln Z_3(kappa) = ln(kappa / (4 pi sinh kappa)), 3-d closed form."""
    k = mp.mpf(kappa)
    if k == 0:
        return float(mp.log(1 / (4 * mp.pi)))
    return float(mp.log(k / (4 * mp.pi * mp.sinh(k))))


def norm_and_ratio_separate(dim, kappa):
    """``(log C_d, A_d)`` elementwise from one ``log_bessel_i`` call per
    order, the way ``log_norm_const`` and ``bessel_ratio`` computed them
    before both went through ``vmf._log_norm_and_ratio``."""
    ks = np.asarray(kappa, dtype=np.float64)
    half = 0.5 * dim
    nu = half - 1.0
    log_norm = np.full(ks.shape, math.lgamma(half) - math.log(2.0) - half * math.log(math.pi))
    ratio = np.zeros(ks.shape)
    pos = ks > 0.0
    kp = ks[pos]
    log_i_nu = log_bessel_i_at(nu, kp)
    log_norm[pos] = nu * np.log(kp) - half * math.log(2.0 * math.pi) - log_i_nu
    ratio[pos] = np.exp(log_bessel_i_at(half, kp) - log_i_nu)
    return log_norm, ratio


def log_sphere_integral(d, kappa, n=400):
    """ln of the surface integral of e^(kappa mu.z) over the unit sphere.

    Reduced to one dimension via u = cos(angle): Gauss-Chebyshev for d = 2
    (whose weight is exactly the surface element) and Gauss-Legendre
    otherwise, summed in the log domain. Adding log_norm_const must give 0.
    """
    from math import lgamma, log, pi
    if d == 2:
        k = np.arange(1, n + 1)
        u = np.cos((2 * k - 1) * pi / (2 * n))
        logw = np.full(n, log(pi / n))
        logf = kappa * u
        area_prefix = log(2.0)
    else:
        u, w = np.polynomial.legendre.leggauss(n)
        logw = np.log(w)
        logf = kappa * u + ((d - 3) / 2.0) * np.log1p(-u * u)
        area_prefix = log(2.0) + ((d - 1) / 2.0) * log(pi) - lgamma((d - 1) / 2.0)
    terms = logw + logf
    m = terms.max()
    return area_prefix + m + np.log(np.exp(terms - m).sum())


def central_diff(f, x, h=1e-6):
    """Central finite differences of scalar f at vector x, one axis at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        lo, hi = x.copy(), x.copy()
        lo.flat[i] -= h
        hi.flat[i] += h
        grad.flat[i] = (f(hi) - f(lo)) / (2 * h)
    return grad


def auroc_pairs(id_scores, ood_scores):
    """Pairwise win count: P(id > ood) + 0.5 P(tie) over all pairs."""
    wins = 0.0
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(id_scores) * len(ood_scores))


def aupr_sweep(id_scores, ood_scores, positive="id"):
    """Average precision by exhaustive threshold enumeration.

    ID positives are detected by score >= t with thresholds descending;
    OOD positives by score <= t with thresholds ascending. Same step-sum
    convention either way: AP = sum (R_k - R_{k-1}) P_k, R_0 = 0.
    """
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    if positive == "id":
        pos, neg = id_scores, ood_scores
        hit = lambda s, t: s >= t
        thresholds = np.unique(np.concatenate([pos, neg]))[::-1]
    else:
        pos, neg = ood_scores, id_scores
        hit = lambda s, t: s <= t
        thresholds = np.unique(np.concatenate([pos, neg]))
    ap, prev_recall = 0.0, 0.0
    for t in thresholds:
        tp = float(np.sum(hit(pos, t)))
        fp = float(np.sum(hit(neg, t)))
        recall = tp / pos.size
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def fpr95_sweep(id_scores, ood_scores):
    """Smallest threshold catching >= 95% of OOD, then the ID false-alarm rate."""
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    for t in np.sort(ood_scores):
        if np.mean(ood_scores <= t) >= 0.95:
            return float(np.mean(id_scores <= t))
    raise AssertionError("95% OOD recall unreachable")


def energy_mp(logits):
    """High-precision ln sum exp of one logit vector."""
    return float(mp.log(mp.fsum(mp.e ** mp.mpf(float(v)) for v in logits)))


def msp_mp(logits):
    """High-precision max softmax probability of one logit vector."""
    exps = [mp.e ** mp.mpf(float(v)) for v in logits]
    return float(max(exps) / mp.fsum(exps))


def classification_report_ref(true_labels, pred_labels, class_weights, tail_fraction):
    """The numpy form of ``report.classification_report``."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(pred_labels, dtype=np.int64)
    weights = np.asarray(class_weights, dtype=np.float64)
    if t.size == 0 or t.shape != p.shape:
        raise ValueError("need matching non-empty label arrays")
    if weights.ndim != 1 or weights.size < 1:
        raise ValueError("class_weights must be a non-empty vector")
    if not (weights > 0.0).all():
        raise ValueError("class_weights must be positive")
    if np.any(t < 0) or np.any(t >= weights.size):
        raise ValueError("true labels out of range for class_weights")
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError("tail_fraction must be in (0, 1)")
    k = weights.size
    order = np.argsort(-weights, kind="mergesort")
    n_tail = math.ceil(k * tail_fraction)
    tail_classes = set(order[k - n_tail :].tolist())
    acc = float(np.mean(t == p))

    def group_acc(members):
        mask = np.isin(t, list(members))
        if not mask.any():
            return None
        return float(np.mean(t[mask] == p[mask]))

    head_classes = set(order[: k - n_tail].tolist())
    return acc, group_acc(head_classes), group_acc(tail_classes)


def read_report(text):
    """The fields of a ``report.csv``: each column of its one value row as a
    float, or None for an empty cell."""
    header, row = text.splitlines()
    return {col: None if v == "" else float(v) for col, v in zip(header.split(","), row.split(","))}


def histogram_ref(id_scores, ood_scores, bins):
    """The numpy form of ``report.histogram``: ``np.linspace`` edges over
    the range of both score lists, ``np.histogram`` counts."""
    id_scores = np.asarray(id_scores, dtype=np.float64)
    ood_scores = np.asarray(ood_scores, dtype=np.float64)
    lo = min(id_scores.min(), ood_scores.min())
    hi = max(id_scores.max(), ood_scores.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    id_counts, _ = np.histogram(id_scores, bins=edges)
    ood_counts, _ = np.histogram(ood_scores, bins=edges)
    return edges, id_counts, ood_counts


# ---- code that left the package: no pipeline stage runs it ----


@dataclass
class _LossValue:
    """A loss evaluation: scalar value plus gradient in the differentiated
    argument."""

    value: float
    grad: np.ndarray


@dataclass
class _TotalLossValue:
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


def oe_uniform_loss(logits) -> _LossValue:
    """Cross entropy from the uniform target: logsumexp(logits) - mean(logits).

    Minimized (at log K, with zero gradient) exactly when all logits are
    equal, i.e. the prediction carries no class information.
    """
    v = _check_logits(logits)
    vals, grads = losses.oe_uniform_loss_batch(v[None, :])
    return _LossValue(value=float(vals[0]), grad=grads[0])


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


def la_loss(logits, y: int, priors) -> _LossValue:
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
    return _LossValue(value=value, grad=grad)


def tla_loss(logits, y: int, priors, epsilon: float) -> _LossValue:
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
    vals, grads = losses.tla_loss_batch(v[None, :], np.array([y]), p, epsilon)
    return _LossValue(value=float(vals[0]), grad=grads[0])


def isac_loss(mix: vmf.VmfMixture, z, y: int, tau: float) -> _LossValue:
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
    vals, grads = losses.isac_loss_batch(mix, zv[None, :], np.array([int(y)]), tau)
    return _LossValue(value=float(vals[0]), grad=grads[0])


def isac_loss_batch_tensor(mix: vmf.VmfMixture, z, y, tau: float):
    """``losses.isac_loss_batch`` in its earlier form, with no input checks:
    the tilted vectors kappa_j mu_j + z / tau as an (n, K, d) tensor, their
    norms, and the gradient contracted against that tensor."""
    n, k = z.shape[0], mix.n_classes
    rows = np.arange(n)
    log_priors = np.log(mix.priors)
    tilted_vec = (mix.kappas[:, None] * mix.mus)[None, :, :] + z[:, None, :] / tau
    tilted = np.sqrt(np.add.reduce(tilted_vec * tilted_vec, axis=2))
    log_z, ratio = vmf._log_norm_and_ratio(mix.dim, np.concatenate([mix.kappas, tilted.ravel()]))
    log_z_class = log_z[:k]
    log_z_tilted = log_z[k:].reshape(n, k)
    ratio = ratio[k:].reshape(n, k)
    s = (log_priors[None, :] - log_priors[y][:, None] + log_z_tilted[rows, y][:, None]
         + log_z_class[None, :] - log_z_class[y][:, None] - log_z_tilted)
    vals, p = logsumexp_softmax(s)
    weight = ratio / (tau * np.maximum(tilted, 1e-300))
    grads = np.einsum("nk,nkd->nd", p * weight, tilted_vec)
    grads -= weight[rows, y][:, None] * tilted_vec[rows, y]
    return vals, grads


def patt_total_loss(
    mix: vmf.VmfMixture,
    z_id,
    y: int,
    logits_id,
    logits_ood,
    hyper,
    priors,
) -> _TotalLossValue:
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
        oe_vals, oe_grads = losses.oe_uniform_loss_batch(lo)
        oe_val = float(oe_vals.mean())
        grad_ood = hyper.beta * oe_grads / lo.shape[0]
    value = isac.value + hyper.alpha * tla.value + hyper.beta * oe_val
    return _TotalLossValue(
        value=value,
        isac=isac.value,
        tla=tla.value,
        oe=oe_val,
        grad_z=isac.grad,
        grad_logits=hyper.alpha * tla.grad,
        grad_ood_logits=grad_ood,
    )


@dataclass
class VmfParams:
    """Mean direction, concentration and ambient dimension of one component."""

    mu: np.ndarray
    kappa: float
    dim: int

    def __post_init__(self) -> None:
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.kappa = float(self.kappa)
        self.dim = int(self.dim)
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.mu.shape != (self.dim,):
            raise ValueError(f"mu has shape {self.mu.shape}, expected ({self.dim},)")
        if not math.isfinite(self.kappa) or self.kappa < 0.0:
            raise ValueError(f"kappa must be finite and non-negative, got {self.kappa}")
        norm = math.sqrt(self.mu @ self.mu)
        if not abs(norm - 1.0) <= MU_NORM_TOL:  # written so that NaN fails
            raise ValueError(f"mu must be unit norm, got ||mu|| = {norm!r}")


def log_sum_exp(values) -> float:
    """Numerically stable log(sum(exp(values))) for a non-empty finite vector."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("log_sum_exp expects a non-empty 1-D array")
    if not np.all(np.isfinite(v)):
        raise ValueError("log_sum_exp expects finite inputs")
    lse, _ = logsumexp_softmax(v)
    return float(lse)


def vmf_log_pdf(params: VmfParams, z) -> float:
    """Log density of a unit vector (or a batch of rows) under one component."""
    zs = np.asarray(z, dtype=np.float64)
    if zs.shape[-1] != params.dim:
        raise ValueError(f"feature dim {zs.shape[-1]} != component dim {params.dim}")
    vmf._check_unit_rows(zs, "z")
    val = vmf.log_norm_const(params.dim, params.kappa) + params.kappa * (zs @ params.mu)
    if zs.ndim == 1:
        return float(val)
    return val


def mixture_log_pdf(mix: vmf.VmfMixture, z) -> float:
    """Log density under the prior-weighted mixture, for one vector or rows."""
    zs = np.asarray(z, dtype=np.float64)
    if zs.shape[-1] != mix.dim:
        raise ValueError(f"feature dim {zs.shape[-1]} != mixture dim {mix.dim}")
    vmf._check_unit_rows(zs, "z")
    log_z = vmf.log_norm_const(mix.dim, mix.kappas)
    a = np.log(mix.priors) + log_z + (zs @ mix.mus.T) * mix.kappas
    val, _ = logsumexp_softmax(a)
    if zs.ndim == 1:
        return float(val)
    return val


def vmf_mgf_log(params: VmfParams, t) -> float:
    """log E[exp(t . z)] for z drawn from the component.

    Closed form: the ratio of normalization constants at the original and the
    tilted concentration ||kappa mu + t||.
    """
    tv = np.asarray(t, dtype=np.float64)
    if tv.shape != (params.dim,):
        raise ValueError(f"t has shape {tv.shape}, expected ({params.dim},)")
    if not np.all(np.isfinite(tv)):
        raise ValueError("t must be finite")
    tilted = float(np.linalg.norm(params.kappa * params.mu + tv))
    return vmf.log_norm_const(params.dim, params.kappa) - vmf.log_norm_const(params.dim, tilted)


def tau_norm_classifier(clf, t: float):
    """Copy of the model with classifier row y divided by ||row y||^t.

    t = 0 leaves the classifier unchanged, t = 1 puts every row on the
    unit sphere; biases are kept. Long-tail training inflates head-class
    row norms, so this flattens the implicit head bias post hoc.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"exponent must be in [0, 1], got {t}")
    norms = np.linalg.norm(clf.clf_w, axis=1)
    if np.any(norms < 1e-300):
        raise ValueError("classifier has a zero weight row")
    return model_of(clf.weights, clf.biases, clf.clf_w / norms[:, None] ** t, clf.clf_b)


def posthoc_la_adjust(logits, priors) -> np.ndarray:
    """Subtract log priors from logits (one vector or a batch). Boosts
    rare classes at prediction time; applying it twice keeps shifting, so
    it is deliberately not idempotent."""
    a = np.asarray(logits, dtype=np.float64)
    pri = np.asarray(priors, dtype=np.float64)
    if pri.ndim != 1 or a.shape[-1] != pri.size:
        raise ValueError("priors must match the class dimension")
    if np.any(pri <= 0.0):
        raise ValueError("priors must be strictly positive")
    return a - np.log(pri)


def attention_weight_union1d(cb_features, cb_labels, ood_features, clf, priors):
    """``calibration.attention_weight`` as it was before the occupied
    classes became one boolean mask: ``np.union1d`` of the ID and outlier
    labels."""
    cb = np.asarray(cb_features, dtype=np.float64)
    cb_y = np.asarray(cb_labels, dtype=np.int64)
    pri = np.asarray(priors, dtype=np.float64)
    if cb.ndim != 2 or cb.shape[0] == 0:
        raise ValueError("class-balanced ID subset must be non-empty")
    if cb_y.shape != (cb.shape[0],):
        raise ValueError("cb label shape mismatch")
    if pri.ndim != 1 or pri.size != clf.clf_w.shape[0]:
        raise ValueError("priors must have one entry per class")
    if np.any(cb_y < 0) or np.any(cb_y >= pri.size):
        raise ValueError("cb label out of range")

    ood = np.asarray(ood_features, dtype=np.float64)
    if ood.ndim != 2 or (ood.size and ood.shape[1] != cb.shape[1]):
        raise ValueError("outlier feature dimension mismatch")
    if ood.shape[0] > 0:
        ood_y = np.argmax(classifier_logits(clf, ood), axis=1)
    else:
        ood_y = np.empty(0, dtype=np.int64)

    occupied = np.union1d(cb_y, ood_y)
    if np.any(pri[occupied] <= 0.0):
        bad = occupied[pri[occupied] <= 0.0]
        raise ValueError(f"zero prior for occupied class {bad[0]}")

    total = np.zeros(cb.shape[1])
    total += np.sum(channel_importance(cb, cb_y, clf) / pri[cb_y, None], axis=0)
    if ood.shape[0] > 0:
        total -= np.sum(channel_importance(ood, ood_y, clf) / pri[ood_y, None], axis=0)
    return total / (cb.shape[0] + ood.shape[0])
