"""Shared helpers: deterministic derivation of per-role random seeds, the
one log-sum-exp/softmax of the package, norms along an axis, and the one
rule for forking a child that works beside this process.

The hot paths call numpy's ufunc reductions (``np.add.reduce``,
``np.maximum.reduce``, ``.any()``/``.all()``) directly instead of the
Python-level wrappers ``np.sum``/``np.max``/``np.any``/``np.linalg.norm``:
each wrapper dispatches to the same ufunc loop, so the bits are the same and
only the per-call overhead goes.
"""

import os
import warnings

import numpy as np


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


def may_fork() -> bool:
    """Whether a forked child could work beside this process: ``os.fork``
    exists and the process may run on two or more CPUs (on one, the two
    would only take turns), counted as Python 3.13's ``os.process_cpu_count``."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return hasattr(os, "fork") and cpus >= 2


def fork() -> int:
    """``os.fork()`` where ``may_fork``. Otherwise, or when the fork fails or
    warns, raise ``OSError`` and leave no child; a fork's warnings are issued
    again first, so under an error filter the warning is what is raised.
    Python >= 3.12 warns in a parent with threads, once the child exists."""
    if not may_fork():
        raise OSError("no os.fork, or no second CPU, to fork a child beside this process")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pid = os.fork()
    if pid and caught:
        import signal
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        raise OSError("os.fork warned")
    return pid
