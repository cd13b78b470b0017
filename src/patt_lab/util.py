"""Shared helpers: deterministic derivation of per-role random seeds, and the
one log-sum-exp/softmax of the package."""

import hashlib

import numpy as np


def derive_seed(seed: int, role: str) -> int:
    """Derive a stream-specific 64-bit seed from a master seed and a role tag.

    sha256-based, so the mapping is stable across platforms and sessions and
    every consumer of randomness (shuffling, sampling, init, ...) gets an
    independent, reproducible stream.
    """
    digest = hashlib.sha256(f"{int(seed)}:{role}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def logsumexp_softmax(a: np.ndarray):
    """``(log sum exp, softmax)`` along the last axis from one ``exp(a - max)``
    pass.

    ``-inf`` entries are dropped lanes: they get probability 0, and a row that
    holds only ``-inf`` has log-sum-exp ``-inf`` (its softmax is NaN). The
    log-sum-exp has the shape of ``a`` without its last axis.
    """
    m = np.max(a, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(a - m)
    total = np.sum(e, axis=-1, keepdims=True)
    return np.squeeze(m, -1) + np.log(np.squeeze(total, -1)), e / total
