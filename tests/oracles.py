"""Independent reference implementations the tests compare against.

Everything here trades speed for transparency: literal series summation in
50-digit arithmetic, exhaustive threshold sweeps, O(n^2) pair counting.
Production code must agree with these oracles, never the other way around.
The module also keeps the earlier forms of rewritten hot paths (the
per-element asymptotic Bessel kernel, two-pass log-sum-exp and softmax, the
per-parameter optimizer step, the per-class statistics refresh) and the
numpy forms of the plain-Python report (the head/tail accuracy split, the
score histogram); the rewrites must match them bit for bit.
"""

import math

import mpmath as mp
import numpy as np

from patt_lab import vmf

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


def log_bessel_mp(nu, x):
    """mpmath's own I_nu, a second independent route for large arguments."""
    return float(mp.log(mp.besseli(mp.mpf(nu), mp.mpf(x))))


def log_bessel_asymptotic_ref(nu, x):
    """The large-argument kernel before its block form: per-element orders, a
    new array per term and a convergence test after every term.

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


def log_bessel_positive_ref(orders, x):
    """``vmf._log_bessel_positive`` with ``log_bessel_asymptotic_ref``: every
    (order, x) pair flattened, each branch evaluated on its mask with
    per-element orders."""
    row = np.repeat(np.arange(orders.size), x.size)
    xs = np.tile(x, orders.size)
    cut = np.maximum(30.0, 2.0 * orders * orders)[row]
    small = xs < np.minimum(cut, 300.0)
    large = xs >= cut
    middle = ~small & ~large
    out = np.empty_like(xs)
    if small.any():
        out[small] = vmf._log_bessel_series_plain(orders, row[small], xs[small])
    if middle.any():
        out[middle] = vmf._log_bessel_series_log(orders, row[middle], xs[middle])
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


def mixture_of(components, priors):
    """A ``vmf.VmfMixture`` whose rows are the given ``VmfParams``."""
    return vmf.VmfMixture(mus=np.stack([c.mu for c in components]),
                          kappas=np.array([c.kappa for c in components]),
                          priors=priors)


def components_of(mix):
    """Each row of a mixture as its own validated ``VmfParams``."""
    return [vmf.VmfParams(mu=mix.mus[j], kappa=mix.kappas[j], dim=mix.dim)
            for j in range(mix.n_classes)]


def class_stats_ref(feats, labs, previous, momentum, class_counts=None):
    """``vmf.estimate_class_stats`` one class at a time, as a Python loop that
    builds one ``VmfParams`` per class.

    ``previous`` is None or an earlier ``(components, priors)`` result of this
    function; returns ``(components, priors)``.
    """
    dim = feats.shape[1]
    if previous is None:
        counts = np.asarray(class_counts, dtype=np.float64)
        priors = counts / counts.sum()
        prev_comps = [None] * counts.size
    else:
        prev_comps, priors = previous
    comps = []
    for y, prev in enumerate(prev_comps):
        rows = feats[labs == y]
        if rows.shape[0] == 0:
            comps.append(prev)
            continue
        resultant = rows.sum(axis=0)
        r_norm = float(np.linalg.norm(resultant))
        r_bar = r_norm / rows.shape[0]
        if r_norm > 1e-12:
            mu_hat = resultant / r_norm
        elif prev is not None:
            mu_hat = prev.mu
        else:
            mu_hat = np.zeros(dim)
            mu_hat[0] = 1.0
        if r_bar >= 1.0 - 1e-12:
            kappa_hat = vmf.KAPPA_MAX
        else:
            kappa_hat = r_bar * (dim - r_bar * r_bar) / (1.0 - r_bar * r_bar)
            kappa_hat = min(max(kappa_hat, 0.0), vmf.KAPPA_MAX)
        if prev is not None and momentum > 0.0:
            blend = momentum * prev.mu + (1.0 - momentum) * mu_hat
            b_norm = float(np.linalg.norm(blend))
            mu_hat = blend / b_norm if b_norm > 1e-12 else mu_hat
            kappa_hat = momentum * prev.kappa + (1.0 - momentum) * kappa_hat
        comps.append(vmf.VmfParams(mu=mu_hat, kappa=kappa_hat, dim=dim))
    return comps, priors


def log_z3(kappa):
    """ln Z_3(kappa) = ln(kappa / (4 pi sinh kappa)), 3-d closed form."""
    k = mp.mpf(kappa)
    if k == 0:
        return float(mp.log(1 / (4 * mp.pi)))
    return float(mp.log(k / (4 * mp.pi * mp.sinh(k))))


def log_norm_const_ref(dim, kappa):
    """Normalizer via the series oracle instead of the production branches."""
    k = mp.mpf(kappa)
    d = mp.mpf(dim)
    if k == 0:
        return float(mp.log(mp.gamma(d / 2)) - mp.log(2) - (d / 2) * mp.log(mp.pi))
    nu = d / 2 - 1
    return float(nu * mp.log(k) - (d / 2) * mp.log(2 * mp.pi)
                 - mp.mpf(log_bessel_series(nu, k)))


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
    log_i_nu = vmf.log_bessel_i(nu, kp)
    log_norm[pos] = nu * np.log(kp) - half * math.log(2.0 * math.pi) - log_i_nu
    ratio[pos] = np.exp(vmf.log_bessel_i(half, kp) - log_i_nu)
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
