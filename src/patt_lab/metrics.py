"""Separation and accuracy metrics for scored in/out-of-distribution sets.

Scores follow the convention "larger means more in-distribution". The
detection event for the false-positive-rate metric is therefore "score below
threshold": outliers are the positives being detected, and the reported
number is the fraction of in-distribution samples wrongly flagged at the
threshold that catches 95% of outliers. All four detection numbers are read
off one stable ascending sort of both score lists.
"""

from __future__ import annotations

import math

import numpy as np

from .config import TAIL_FRACTION
from .report import classification_report

__all__ = ["detection_metrics", "build_report"]


def _average_precision(tp, predicted, n_pos) -> float:
    # step sum over the thresholds in walking order, no interpolation
    recall = tp / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * (tp / predicted)))


def detection_metrics(id_scores, ood_scores) -> tuple:
    """``(auroc, aupr_in, aupr_out, fpr95)`` of two non-empty finite score lists.

    AUROC is the probability that a random in-distribution score exceeds a
    random outlier score, ties counting half (rank-statistic form, tie
    groups sharing their average rank). ``aupr_in`` retrieves the ID rows at
    or above each threshold, walking the distinct scores from the highest
    down; ``aupr_out`` retrieves the outliers at or below each threshold,
    walking from the lowest up. FPR95 is the fraction of ID scores at or
    below the lowest threshold that already flags at least 95% of outliers.
    """
    a = np.asarray(id_scores, dtype=np.float64)
    b = np.asarray(ood_scores, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise ValueError("both score lists must be non-empty 1-D arrays")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("scores must be finite")
    na, nb = a.size, b.size
    n = na + nb
    both = np.concatenate([a, b])
    order = np.argsort(both, kind="mergesort")
    sv = both[order]
    # a comparison, not np.diff, so that scores a float range apart cannot overflow
    edges = np.flatnonzero(sv[1:] != sv[:-1]) + 1
    starts = np.concatenate([[0], edges])
    stops = np.concatenate([edges, [n]])
    is_id = order < na
    # ID rows among the first i sorted rows
    id_below = np.concatenate([[0], np.cumsum(is_id)])

    # 1-based ranks, ties sharing their group mean, summed in input order
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + stops + 1) / 2.0, stops - starts)
    u = float(ranks[:na].sum()) - na * (na + 1) / 2.0

    aupr_in = _average_precision((na - id_below[starts])[::-1].astype(np.float64),
                                 (n - starts)[::-1].astype(np.float64), na)
    aupr_out = _average_precision((stops - id_below[stops]).astype(np.float64),
                                  stops.astype(np.float64), nb)

    # the ceil(0.95 nb)-th outlier in sorted order is the threshold
    threshold = sv[np.flatnonzero(~is_id)[math.ceil(0.95 * nb) - 1]]
    fpr95 = int(id_below[np.searchsorted(sv, threshold, side="right")]) / na
    return u / (na * nb), aupr_in, aupr_out, fpr95


def build_report(id_scores, ood_scores, id_true, id_pred, class_weights,
                 tail_fraction: float = TAIL_FRACTION) -> tuple:
    """The evaluation row, one value per ``report.REPORT_COLUMNS`` entry; an
    accuracy of a group without test rows is None."""
    acc = classification_report(id_true, id_pred, class_weights, tail_fraction)
    return detection_metrics(id_scores, ood_scores) + acc

