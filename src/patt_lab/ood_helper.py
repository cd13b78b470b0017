"""The outlier-stream helper of a training run: a forked process that runs
each step's outlier stream, ``model._ood_stream`` on its inherited copy of
the outlier split, while the parent runs the labeled stream. Only
``model.train`` imports this module, and only where ``util.may_fork``, so the
stages that run a trained model, and a train on one CPU, do not compile it.

Per step the parent writes the parameters and the row indices into a shared
anonymous mmap and one byte on a pipe; the helper adds the stream's gradient
into its zeroed ``grad`` in the mmap and answers on a second pipe with the
pickled OE mean, warnings and error. Its body ends in ``os._exit``, so it
runs none of the parent's ``finally`` or ``atexit`` code; it ends when
``close`` closes the pipes, and ``close`` reaps it.
"""

import mmap
import os
import pickle
import warnings

import numpy as np

from .model import EncoderClassifier, _ood_stream, _views
from .util import fork

__all__ = ["OodHelper"]

_ENDED = "the outlier stream's helper process ended"


class OodHelper:
    """The helper process of one training run, forked at construction from
    the run's model and its outlier rows ``ood_x``; each step takes ``take``
    rows and weighs the OE term by ``w_oe``. Where ``util.fork`` refuses to
    fork, what it raises is raised here, with nothing left open and no
    child."""

    def __init__(self, model: EncoderClassifier, ood_x: np.ndarray, take: int, w_oe: float):
        p = model.flat.size
        shared = np.frombuffer(mmap.mmap(-1, 8 * (2 * p + take)))
        self.flat, self.grad, self.idx = shared[:p], shared[p:2 * p], shared[2 * p:].view(np.int64)
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = fork()
        except BaseException:  # a refused fork, or its warning under an error filter
            for fd in fds:
                os.close(fd)
            raise
        start_r, self._start, done_r, done_w = fds
        if self.pid == 0:
            try:
                os.close(self._start)
                os.close(done_r)
                self._serve(EncoderClassifier(self.flat, model.layer_sizes, model.n_classes),
                            ood_x, w_oe, start_r, os.fdopen(done_w, "wb"))
            finally:
                os._exit(0)
        os.close(start_r)
        os.close(done_w)
        self._done = os.fdopen(done_r, "rb")

    def _serve(self, model, ood_x, w_oe, start_r, done) -> None:
        # the helper's loop: one outlier stream per byte, until the pipe ends
        grads = _views(self.grad, model.shapes)
        with warnings.catch_warnings(record=True) as caught:
            while os.read(start_r, 1):
                self.grad.fill(0.0)
                oe_mean = error = None
                try:
                    oe_mean = _ood_stream(model, ood_x[self.idx], w_oe, grads)
                except Exception as exc:  # raised by the parent, after its own stream
                    error = exc
                warned = [(w.message, w.category, w.filename, w.lineno) for w in caught]
                caught.clear()
                pickle.dump((oe_mean, warned, error), done)
                done.flush()

    def start(self, flat: np.ndarray, rows: np.ndarray):
        """Hand the helper a step's parameters and outlier row indices;
        returns ``join``, which the step calls after its labeled stream."""
        self.flat[...] = flat
        self.idx[...] = rows
        try:
            os.write(self._start, b"\0")
        except BrokenPipeError:
            raise ChildProcessError(_ENDED) from None
        return self.join

    def join(self, flat_grad: np.ndarray) -> float:
        """Add the step's outlier gradient into ``flat_grad`` and return its
        OE mean; the helper's warnings are issued, and its error raised,
        here. A helper that has ended raises ``ChildProcessError``, here or
        in ``start``."""
        try:
            oe_mean, warned, error = pickle.load(self._done)
        except EOFError:
            raise ChildProcessError(_ENDED) from None
        for message, category, filename, lineno in warned:
            warnings.warn_explicit(message, category, filename, lineno)
        if error is not None:
            raise error
        flat_grad += self.grad
        return oe_mean

    def close(self) -> None:
        """Close both pipes, which ends the helper, and reap it."""
        self._done.close()
        os.close(self._start)
        os.waitpid(self.pid, 0)
