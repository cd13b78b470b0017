"""Separation and accuracy metrics for scored in/out-of-distribution sets.

Scores follow the convention "larger means more in-distribution". The
detection event for the false-positive-rate metric is therefore "score below
threshold": outliers are the positives being detected, and the reported
number is the fraction of in-distribution samples wrongly flagged at the
threshold that catches 95% of outliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "auroc",
    "aupr",
    "fpr_at_95_tpr",
    "classification_report",
    "EvalReport",
    "build_report",
    "TAIL_FRACTION",
]

# default share of classes counted as tail
TAIL_FRACTION = 1.0 / 3.0


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


def classification_report(true_labels, pred_labels, class_weights,
                          tail_fraction: float = TAIL_FRACTION):
    """Overall, head-group and tail-group accuracy.

    Classes are ordered by their positive training weight, a class count or
    prior (descending, index breaking ties); the tail group is the bottom
    ``ceil(K * tail_fraction)`` of that order. A group without test samples
    reports None, not zero.
    """
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


@dataclass
class EvalReport:
    """One evaluation row: separation metrics, accuracies and group sizes."""

    auroc: float
    aupr_in: float
    aupr_out: float
    fpr95: float
    acc: float
    acc_head: float | None
    acc_tail: float | None
    n_id: int = 0
    n_ood: int = 0

    CSV_COLUMNS = ("auroc", "aupr_in", "aupr_out", "fpr95", "acc", "acc_head", "acc_tail")

    def to_csv(self) -> str:
        """Two lines: fixed header and one value row; absent group accuracies
        serialize as empty cells."""
        vals = []
        for col in self.CSV_COLUMNS:
            v = getattr(self, col)
            vals.append("" if v is None else repr(float(v)))
        return ",".join(self.CSV_COLUMNS) + "\n" + ",".join(vals) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "EvalReport":
        lines = text.strip().splitlines()
        if len(lines) != 2 or lines[0] != ",".join(cls.CSV_COLUMNS):
            raise ValueError("malformed report CSV")
        raw = lines[1].split(",")
        if len(raw) != len(cls.CSV_COLUMNS):
            raise ValueError("malformed report CSV row")
        vals = [None if v == "" else float(v) for v in raw]
        return cls(*vals)


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
        n_id=int(a.size),
        n_ood=int(b.size),
    )
