"""Post-hoc feature calibration and scoring.

A per-channel attention weight is extracted from a class-balanced
in-distribution subset plus an outlier set, rescaled to [0, 2], and
multiplied elementwise into features at inference time. Channels that
help the in-distribution side get amplified, channels that outliers
lean on get attenuated. Scoring (energy or max-softmax) then runs on
the calibrated features.
"""

from __future__ import annotations

import numpy as np

from .model import EncoderClassifier, classifier_logits
from .util import logsumexp_softmax

__all__ = [
    "AttentionWeight",
    "channel_importance",
    "attention_weight",
    "scale_weight",
    "calibrate_feature",
    "energy_score",
    "msp_score",
    "save_attention",
    "load_attention",
]


class AttentionWeight:
    """Raw channel weight and its [0, 2]-rescaled form."""

    def __init__(self, raw, scaled) -> None:
        raw = np.asarray(raw, dtype=np.float64)
        scaled = np.asarray(scaled, dtype=np.float64)
        if raw.ndim != 1 or raw.shape != scaled.shape:
            raise ValueError("raw and scaled must be matching 1-D vectors")
        if not (np.all(np.isfinite(raw)) and np.all(np.isfinite(scaled))):
            raise ValueError("attention weight must be finite")
        if np.any(scaled < -1e-12) or np.any(scaled > 2 + 1e-12):
            raise ValueError("scaled weight must lie in [0, 2]")
        self.raw, self.scaled = raw, scaled

    @classmethod
    def from_raw(cls, raw) -> "AttentionWeight":
        raw = np.asarray(raw, dtype=np.float64)
        return cls(raw=raw, scaled=scale_weight(raw))


def channel_importance(z, y, clf: EncoderClassifier) -> np.ndarray:
    """Per-channel contribution of each feature row to its class logit.

    The classifier is linear, so the sensitivity of logit y to channel k
    is the classifier weight itself and the importance reduces to
    ``W[y, :] * z``. Takes an (n, d) batch with an (n,) label vector and
    returns (n, d). Summed over channels, a row equals its class logit minus
    the bias.
    """
    z = np.asarray(z, dtype=np.float64)
    w = clf.clf_w
    labels = np.asarray(y, dtype=np.int64)
    if z.ndim != 2 or labels.shape != (z.shape[0],):
        raise ValueError("need (n, d) features and (n,) labels")
    if np.any(labels < 0) or np.any(labels >= w.shape[0]):
        raise ValueError("label out of range")
    return w[labels] * z


def attention_weight(cb_features, cb_labels, ood_features, clf: EncoderClassifier,
                     priors) -> np.ndarray:
    """Raw attention weight from a class-balanced ID subset and outliers.

    Each ID sample contributes its channel importance under its true
    label, weighted by the inverse class prior; each outlier contributes
    negatively under the label the classifier predicts for it. The
    result is averaged over the combined sample count. Outliers whose
    predicted class never occurs elsewhere need no special casing, but a
    zero prior for any class that actually receives samples is an error.
    """
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

    # one mask of the classes that receive samples (np.union1d would load
    # numpy.ma); the error names the smallest bad class
    occupied = np.zeros(pri.size, dtype=bool)
    occupied[cb_y] = occupied[ood_y] = True
    bad = np.flatnonzero(occupied & (pri <= 0.0))
    if bad.size:
        raise ValueError(f"zero prior for occupied class {bad[0]}")

    total = np.zeros(cb.shape[1])
    total += np.sum(channel_importance(cb, cb_y, clf) / pri[cb_y, None], axis=0)
    if ood.shape[0] > 0:
        total -= np.sum(channel_importance(ood, ood_y, clf) / pri[ood_y, None], axis=0)
    return total / (cb.shape[0] + ood.shape[0])


def scale_weight(raw) -> np.ndarray:
    """Min-max rescale a raw weight to [0, 2]; a (near-)constant vector
    maps to all ones so calibration degenerates to the identity."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 1 or raw.size < 1:
        raise ValueError("raw weight must be a non-empty vector")
    if not np.all(np.isfinite(raw)):
        raise ValueError("raw weight must be finite")
    span = raw.max() - raw.min()
    if span < 1e-12:
        return np.ones_like(raw)
    return 2.0 * (raw - raw.min()) / span


def calibrate_feature(z, scaled) -> np.ndarray:
    """Elementwise reweighting of one feature vector or an (n, d) batch.
    No renormalization afterwards: scoring consumes the product as is."""
    z = np.asarray(z, dtype=np.float64)
    s = np.asarray(scaled, dtype=np.float64)
    if s.ndim != 1 or z.shape[-1] != s.size:
        raise ValueError("weight dimension does not match features")
    return z * s


def energy_score(logits) -> np.ndarray:
    """Log-sum-exp of each row of an (n, K) logit batch; larger means more
    in-distribution."""
    a = np.asarray(logits, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("logits must be an (n, K) batch")
    lse, _ = logsumexp_softmax(a)
    return lse


def msp_score(logits) -> np.ndarray:
    """Maximum softmax probability of each row of an (n, K) logit batch."""
    a = np.asarray(logits, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] < 2:
        raise ValueError("need an (n, K) batch of at least two classes for a softmax score")
    _, probs = logsumexp_softmax(a)
    return probs.max(axis=1)


def save_attention(path, weight: AttentionWeight) -> None:
    """One CSV line holding the raw values then the scaled values."""
    vals = list(weight.raw) + list(weight.scaled)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(repr(float(v)) for v in vals) + "\n")


def load_attention(path) -> AttentionWeight:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    parts = text.strip().split(",")
    if len(parts) < 2 or len(parts) % 2 != 0:
        raise ValueError(f"attention file must hold 2d values, got {len(parts)}")
    try:
        vals = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise ValueError(f"bad value in attention file: {exc}") from None
    d = vals.size // 2
    return AttentionWeight(raw=vals[:d], scaled=vals[d:])
