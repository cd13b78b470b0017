"""The ``report`` stage and, in plain Python, the rows of the files that
``eval`` and ``report`` write: ``scores.csv`` and ``report.csv`` with their
writers and checked readers, the head/tail accuracy split of ``report.csv``,
and the score histogram of ``hist.csv``, with the bits of ``np.linspace``
edges and ``np.histogram`` counts."""

import math
import os
from bisect import bisect_left, bisect_right

from .cli import _read
from .config import TAIL_FRACTION

SCORES_HEADER = "split,row,label,pred,score"
REPORT_COLUMNS = ("auroc", "aupr_in", "aupr_out", "fpr95", "acc", "acc_head", "acc_tail")
HIST_BINS = 30


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


def report_csv(row) -> str:
    """``report.csv``: the ``REPORT_COLUMNS`` header and one value row, a None
    as an empty cell."""
    cells = ("" if v is None else repr(float(v)) for v in row)
    return ",".join(REPORT_COLUMNS) + "\n" + ",".join(cells) + "\n"


def read_report(path) -> dict:
    """The value row of a ``report.csv``: each ``REPORT_COLUMNS`` entry a
    finite float in [0, 1], or None for the empty accuracy of a group without
    test rows. ``ValueError`` says what is wrong with the file."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ",".join(REPORT_COLUMNS):
        raise ValueError("unexpected header")
    cells = lines[1].split(",") if len(lines) == 2 else []
    if len(cells) != len(REPORT_COLUMNS):
        raise ValueError(f"expected one row of {len(REPORT_COLUMNS)} cells")
    row = {}
    for col, cell in zip(REPORT_COLUMNS, cells):
        try:
            row[col] = None if cell == "" and col in ("acc_head", "acc_tail") else float(cell)
        except ValueError:
            row[col] = math.nan
        # written so that NaN fails it
        if row[col] is not None and not 0.0 <= row[col] <= 1.0:
            raise ValueError(f"{col} = {cell!r} is not a finite value in [0, 1]")
    return row


def write_scores(path, splits) -> None:
    """Write ``scores.csv``: the ``SCORES_HEADER`` line, then a row for each
    test row of each ``(split, labels, preds, scores)``, arrays in row order."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(SCORES_HEADER + "\n")
        for split, labels, preds, scores in splits:
            rows = zip(labels.tolist(), preds.tolist(), scores.tolist())
            fh.writelines(f"{split},{i},{y},{p},{s!r}\n" for i, (y, p, s) in enumerate(rows))


def read_scores(path):
    """``(id_scores, ood_scores)`` of a ``scores.csv``, each a non-empty list
    of finite floats; ``ValueError`` says what is wrong with the file."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != SCORES_HEADER:
        raise ValueError("unexpected header")
    scores = {"id": [], "ood": []}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            score = float(parts[4]) if len(parts) == 5 and parts[0] in scores else math.nan
        except ValueError:
            score = math.nan
        # eval writes finite scores only; a NaN would drop out of the histogram
        if not math.isfinite(score):
            raise ValueError(f"line {lineno}")
        scores[parts[0]].append(score)
    if not scores["id"] or not scores["ood"]:
        raise ValueError("need both id and ood rows")
    return scores["id"], scores["ood"]


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


def cmd_report(out_dir) -> None:
    """Bin the scores of ``scores.csv`` for plotting and copy the accuracy
    split of ``report.csv`` into ``acc_table.csv``: it reads only what ``eval`` wrote."""
    row = _read(os.path.join(out_dir, "report.csv"), "report file", read_report)
    edges, id_counts, ood_counts = _read(os.path.join(out_dir, "scores.csv"), "scores file",
                                         lambda path: histogram(*read_scores(path), HIST_BINS))
    with open(os.path.join(out_dir, "hist.csv"), "w", encoding="ascii") as fh:
        fh.write("bin_lo,bin_hi,id_count,ood_count\n")
        fh.writelines(f"{lo!r},{hi!r},{a},{b}\n"
                      for lo, hi, a, b in zip(edges, edges[1:], id_counts, ood_counts))
    with open(os.path.join(out_dir, "acc_table.csv"), "w", encoding="ascii") as fh:
        fh.write("group,acc\n")
        for group, col in (("overall", "acc"), ("head", "acc_head"), ("tail", "acc_tail")):
            fh.write(f"{group},{'' if row[col] is None else repr(row[col])}\n")
