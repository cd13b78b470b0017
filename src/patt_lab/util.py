"""Shared helpers: deterministic derivation of per-role random seeds, the
one log-sum-exp/softmax of the package, norms along an axis, and
``Beside``, the one forked child that works beside this process.

The hot paths call numpy's ufunc reductions (``np.add.reduce``,
``np.maximum.reduce``, ``.any()``/``.all()``) directly instead of the
Python-level wrappers ``np.sum``/``np.max``/``np.any``/``np.linalg.norm``:
each wrapper dispatches to the same ufunc loop, so the bits are the same and
only the per-call overhead goes.
"""

import os
import pickle
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


class Beside:
    """A forked child that runs ``work(*args)`` beside this process, once per
    ``start(*args)``: the args go pickled down one pipe, and the pickled
    ``(result, warnings, error)`` of the call comes back on another, for
    ``join`` to issue, raise or return. The child runs on the last CPU of this
    process's mask and this process on the others until ``close`` (each pin
    best effort): a pipe write wakes its reader on the writer's CPU, so
    unpinned, the two take turns. A dead child is ``ChildProcessError(
    "<what> process ended")`` from ``start`` or ``join``. ``close`` ends the
    child, reaps it and restores the mask; the child ends in ``os._exit``, so
    it runs none of this process's ``finally`` or ``atexit`` code. Where the
    fork is refused (not ``may_fork``, or a fork that fails or warns: Python
    >= 3.12 warns in a parent with threads), ``start`` runs ``work`` here
    under the same contract; the fork's warning is issued again, so under an
    error filter it is raised here, with no pipe, child or pin left.
    """

    def __init__(self, work, what: str):
        self._work, self._ended, self.pid = work, f"{what} process ended", None
        fds = []
        try:
            if may_fork():
                self._cpus = sorted(getattr(os, "sched_getaffinity", lambda pid: ())(0))
                fds += os.pipe()
                fds += os.pipe()
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    self.pid = os.fork()
                if self.pid and caught:
                    import signal
                    os.kill(self.pid, signal.SIGKILL)
                    os.waitpid(self.pid, 0)
                    self.pid = None
                    for w in caught:
                        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        except OSError:
            pass  # no pipe or process to spare: work runs here
        finally:
            if self.pid is None:
                for fd in fds:
                    os.close(fd)
        if self.pid is None:
            return
        request_r, self._request, reply_r, reply_w = fds
        if self.pid == 0:
            try:
                _pin(self._cpus[-1:])
                os.close(self._request)
                os.close(reply_r)
                _serve(work, os.fdopen(request_r, "rb"), os.fdopen(reply_w, "wb"))
            finally:
                os._exit(0)
        os.close(request_r)
        os.close(reply_w)
        self._reply = os.fdopen(reply_r, "rb")
        _pin(self._cpus[:-1])

    def start(self, *args):
        """Hand ``args`` to the child, or run ``work(*args)`` here; returns ``join``."""
        if self.pid is None:
            with warnings.catch_warnings(record=True) as caught:
                self._replied = _attempt(self._work, args, caught)
            return self.join
        message = pickle.dumps(args)
        try:
            while message:  # a write to a pipe can be cut short by a signal
                message = message[os.write(self._request, message):]
        except BrokenPipeError:
            raise ChildProcessError(self._ended) from None
        return self.join

    def join(self):
        """Issue the last call's warnings, then raise its error or return its result."""
        if self.pid is None:
            result, warned, error = self._replied
        else:
            try:
                result, warned, error = pickle.load(self._reply)
            except EOFError:
                raise ChildProcessError(self._ended) from None
        for message, category, filename, lineno in warned:
            warnings.warn_explicit(message, category, filename, lineno)
        if error is not None:
            raise error
        return result

    def close(self) -> None:
        """Close both pipes, which ends the child, and reap it."""
        if self.pid is not None:
            self._reply.close()
            os.close(self._request)
            os.waitpid(self.pid, 0)
            _pin(self._cpus)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _pin(cpus) -> None:
    # this process to ``cpus``, best effort: where the call is missing or refused, the mask stays
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        pass


def _attempt(work, args, caught) -> tuple:
    # ``(result, warnings, error)`` of ``work(*args)``, its warnings taken from ``caught``
    result = error = None
    try:
        result = work(*args)
    except Exception as exc:  # raised by join, where the caller expects it
        error = exc
    warned = [(w.message, w.category, w.filename, w.lineno) for w in caught]
    caught.clear()
    return result, warned, error


def _serve(work, requests, replies) -> None:
    # the child's loop, one call per request until the request pipe ends;
    # one record of warnings over it, so a warning shown once is sent once
    with warnings.catch_warnings(record=True) as caught:
        while True:
            try:
                args = pickle.load(requests)
            except EOFError:
                return
            pickle.dump(_attempt(work, args, caught), replies)
            replies.flush()
