"""Separation and accuracy metrics for scored in/out-of-distribution sets.

Scores follow the convention "larger means more in-distribution". The
detection event for the false-positive-rate metric is therefore "score below
threshold": outliers are the positives being detected, and the reported
number is the fraction of in-distribution samples wrongly flagged at the
threshold that catches 95% of outliers.
"""

from __future__ import annotations

import math

import numpy as np

from .config import TAIL_FRACTION
from .report import classification_report

__all__ = [
    "auroc",
    "aupr",
    "fpr_at_95_tpr",
    "classification_report",
    "EvalReport",
    "build_report",
    "TAIL_FRACTION",
]


def _check_scores(id_scores, ood_scores):
    a = np.asarray(id_scores, dtype=np.float64)
    b = np.asarray(ood_scores, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise ValueError("both score lists must be non-empty 1-D arrays")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("scores must be finite")
    return a, b


def _average_ranks(values: np.ndarray) -> np.ndarray:
    # 1-based ranks with ties sharing their group mean
    order = np.argsort(values, kind="mergesort")
    sv = values[order]
    edges = np.flatnonzero(np.diff(sv)) + 1
    starts = np.concatenate([[0], edges])
    stops = np.concatenate([edges, [values.size]])
    group_rank = (starts + stops + 1) / 2.0
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(group_rank, stops - starts)
    return ranks


def auroc(id_scores, ood_scores) -> float:
    """Probability that a random in-distribution score exceeds a random
    outlier score, ties counting half; rank-statistic form, O(n log n)."""
    a, b = _check_scores(id_scores, ood_scores)
    ranks = _average_ranks(np.concatenate([a, b]))
    r_id = float(ranks[: a.size].sum())
    u = r_id - a.size * (a.size + 1) / 2.0
    return u / (a.size * b.size)


def aupr(id_scores, ood_scores, positive: str = "id") -> float:
    """Area under precision-recall by step summation over descending score
    thresholds (no interpolation). ``positive`` picks which side is the
    retrieved class; the outlier orientation is evaluated on negated scores
    so that the positive class still sits at the high end.
    """
    a, b = _check_scores(id_scores, ood_scores)
    if positive == "id":
        pos, neg = a, b
    elif positive == "ood":
        pos, neg = -b, -a
    else:
        raise ValueError(f"positive must be 'id' or 'ood', got {positive!r}")
    scores = np.concatenate([pos, neg])
    is_pos = np.concatenate([np.ones(pos.size, bool), np.zeros(neg.size, bool)])
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    tp = np.cumsum(is_pos[order])
    # last index of every tied group = the threshold at that score value
    ends = np.flatnonzero(np.diff(sorted_scores)) if scores.size > 1 else np.empty(0, np.int64)
    ends = np.concatenate([ends, [scores.size - 1]]).astype(np.int64)
    tp_t = tp[ends].astype(np.float64)
    predicted = ends + 1.0
    precision = tp_t / predicted
    recall = tp_t / pos.size
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(np.sum((recall - prev_recall) * precision))


def fpr_at_95_tpr(id_scores, ood_scores) -> float:
    """Fraction of in-distribution samples at or below the lowest threshold
    that already flags at least 95% of outliers as detected."""
    a, b = _check_scores(id_scores, ood_scores)
    k = math.ceil(0.95 * b.size)
    threshold = np.sort(b)[k - 1]
    return float(np.mean(a <= threshold))


class EvalReport:
    """One evaluation row: separation metrics and accuracies."""

    def __init__(self, auroc: float, aupr_in: float, aupr_out: float, fpr95: float, acc: float,
                 acc_head: float | None, acc_tail: float | None):
        self.auroc, self.aupr_in, self.aupr_out, self.fpr95 = auroc, aupr_in, aupr_out, fpr95
        self.acc, self.acc_head, self.acc_tail = acc, acc_head, acc_tail

    CSV_COLUMNS = ("auroc", "aupr_in", "aupr_out", "fpr95", "acc", "acc_head", "acc_tail")

    def to_csv(self) -> str:
        """Two lines: fixed header and one value row; absent group accuracies
        serialize as empty cells."""
        vals = []
        for col in self.CSV_COLUMNS:
            v = getattr(self, col)
            vals.append("" if v is None else repr(float(v)))
        return ",".join(self.CSV_COLUMNS) + "\n" + ",".join(vals) + "\n"


def build_report(id_scores, ood_scores, id_true, id_pred, class_weights,
                 tail_fraction: float = TAIL_FRACTION) -> EvalReport:
    """Assemble the full evaluation row from scores and predictions."""
    acc, acc_head, acc_tail = classification_report(id_true, id_pred, class_weights, tail_fraction)
    a, b = _check_scores(id_scores, ood_scores)
    return EvalReport(
        auroc=auroc(a, b),
        aupr_in=aupr(a, b, positive="id"),
        aupr_out=aupr(a, b, positive="ood"),
        fpr95=fpr_at_95_tpr(a, b),
        acc=acc,
        acc_head=acc_head,
        acc_tail=acc_tail,
    )
