"""The numbers of the ``report`` stage in plain Python, so that it runs
without numpy: the head/tail accuracy split, and a score histogram with the
bits of ``np.linspace`` edges and ``np.histogram`` counts.
"""

import math
from bisect import bisect_left, bisect_right

from .config import TAIL_FRACTION


def classification_report(true_labels, pred_labels, class_weights,
                          tail_fraction: float = TAIL_FRACTION):
    """Overall, head-group and tail-group accuracy.

    Classes are ordered by their positive training weight, a class count or
    prior (descending, index breaking ties); the tail group is the bottom
    ``ceil(K * tail_fraction)`` of that order. A group without test samples
    reports None, not zero.
    """
    t, p = [int(v) for v in true_labels], [int(v) for v in pred_labels]
    weights = [float(w) for w in class_weights]
    k = len(weights)
    if not t or len(t) != len(p):
        raise ValueError("need matching non-empty label arrays")
    if k == 0:
        raise ValueError("class_weights must be a non-empty vector")
    if not all(w > 0.0 for w in weights):
        raise ValueError("class_weights must be positive")
    if min(t) < 0 or max(t) >= k:
        raise ValueError("true labels out of range for class_weights")
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError("tail_fraction must be in (0, 1)")
    # a stable sort, so equal weights keep index order
    order = sorted(range(k), key=lambda c: -weights[c])
    tail = set(order[k - math.ceil(k * tail_fraction) :])

    def group_acc(in_tail):
        hits = [a == b for a, b in zip(t, p) if (a in tail) == in_tail]
        return sum(hits) / len(hits) if hits else None

    return sum(a == b for a, b in zip(t, p)) / len(t), group_acc(False), group_acc(True)


def histogram(id_scores, ood_scores, bins: int):
    """``(edges, id_counts, ood_counts)`` of ``bins`` equal bins over the range
    of both finite score lists, a unit range when every score is equal."""
    lo = min(min(id_scores), min(ood_scores))
    hi = max(max(id_scores), max(ood_scores))
    if hi <= lo:
        hi = lo + 1.0
    delta = hi - lo
    if math.isinf(delta):
        raise ValueError(f"scores from {lo!r} to {hi!r} span more than the float range")
    # np.linspace(lo, hi, bins + 1): i * step + lo, or (i / bins) * delta + lo
    # when the step underflows to 0, and the last edge is hi
    step = delta / bins
    edges = [(i * step if step else i / bins * delta) + lo for i in range(bins)] + [hi]

    def counts(values):
        # np.histogram: the values in [e_j, e_j+1) per bin, the last bin closed
        s = sorted(values)
        below = [bisect_left(s, e) for e in edges[:-1]] + [bisect_right(s, hi)]
        return [b - a for a, b in zip(below, below[1:])]

    return edges, counts(id_scores), counts(ood_scores)
