"""Shared helpers: deterministic derivation of per-role random seeds, the
one log-sum-exp/softmax of the package, norms along an axis, and the
unit-norm tolerance of a vMF mean direction.

The hot paths call numpy's ufunc reductions (``np.add.reduce``,
``np.maximum.reduce``, ``.any()``/``.all()``) directly instead of the
Python-level wrappers ``np.sum``/``np.max``/``np.any``/``np.linalg.norm``:
each wrapper dispatches to the same ufunc loop, so the bits are the same and
only the per-call overhead goes.
"""

import numpy as np

# how far from 1 the norm of a vMF mean direction may be, in the mixture and
# in the sampler
MU_NORM_TOL = 1e-9


def derive_seed(seed: int, role: str) -> int:
    """Derive a stream-specific 64-bit seed from a master seed and a role tag.

    sha256-based, so the mapping is stable across platforms and sessions and
    every consumer of randomness (shuffling, sampling, init, ...) gets an
    independent, reproducible stream. ``hashlib`` is imported here, so a
    stage that derives no seed does not load it.
    """
    import hashlib
    digest = hashlib.sha256(f"{int(seed)}:{role}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def logsumexp_softmax(a: np.ndarray):
    """``(log sum exp, softmax)`` along the last axis from one ``exp(a - max)``
    pass.

    ``-inf`` entries are dropped lanes: they get probability 0, and a row that
    holds only ``-inf`` has log-sum-exp ``-inf`` (its softmax is NaN). The
    log-sum-exp has the shape of ``a`` without its last axis.
    """
    m = np.maximum.reduce(a, axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(a - m)
    total = np.add.reduce(e, axis=-1, keepdims=True)
    return m[..., 0] + np.log(total[..., 0]), e / total


def norms_along(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of real ``x`` along its last axis: ``np.linalg.norm(x,
    axis=-1)`` without its wrapper, which computes this same
    ``sqrt(add.reduce(x * x))``, so the bits are equal. (A per-row dot
    product sums in another order and can differ in the last bit.)"""
    return np.sqrt(np.add.reduce(x * x, axis=-1))

