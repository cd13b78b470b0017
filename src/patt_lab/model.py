"""Encoder/classifier model, exact manual backprop, the training loop, and
``model.ckpt``, its one format: ``save_checkpoint`` and ``load_checkpoint``.

The encoder is a small tanh MLP whose output is projected onto the unit
sphere; a linear head maps features to class logits. Gradients are computed
in closed form (including the normalization Jacobian, with no stop-gradient)
and were validated against central finite differences. A training run
keeps one ``TrainState`` and each step updates its parameters, optimizer
moments and class statistics in place. Training is fully deterministic for a
fixed seed.

A run with an outlier term runs each step's outlier stream in a forked
helper, a ``util.Beside``, while the parent runs the labeled stream, the two
pinned to different CPUs (the hand-off's pipe write would otherwise wake the
helper on the parent's CPU, and the streams would take turns); without
``os.fork`` or a second CPU the stream runs inline. Every bit stays that of
the inline stream: the helper runs the same code on a copy of the same
parameters and rows, and each gradient element gets one addition per stream,
(0 + a) + b inline and (0 + a) + (0 + b) with the helper. These agree:
0 + b differs from b only for b = -0.0, and 0 + a is never -0.0, so adding
either zero to it gives the same value.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .config import METHODS, MU_NORM_TOL, PRIOR_SUM_TOL, TrainConfig
from .util import Beside, derive_seed, may_fork, norms_along

__all__ = [
    "EncoderClassifier",
    "TrainConfig",
    "TrainState",
    "encoder_forward",
    "classifier_logits",
    "batch_loss_and_grads",
    "train_step",
    "train",
    "param_shapes",
    "check_stats",
    "save_checkpoint",
    "load_checkpoint",
]

MAGIC = b"PATT1"  # the first bytes of a model.ckpt, whose layout save_checkpoint gives


def param_shapes(sizes, n_classes: int) -> list:
    """Shapes of the model's float64 blocks in file order: per layer W
    (fan_out, fan_in) then its bias, then the classifier W and bias."""
    return [s for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
            for s in ((fan_out, fan_in), (fan_out,))] + [(n_classes, sizes[-1]), (n_classes,)]


def _views(flat: np.ndarray, shapes) -> list:
    # consecutive slices of ``flat`` with the given shapes, which cover it
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    if start != flat.size:
        raise ValueError(f"{flat.size} values for {start} parameters")
    return views


class EncoderClassifier:
    """MLP encoder weights plus the linear classification head, held in one
    float64 vector ``flat`` laid out as ``shapes`` (``param_shapes``).

    ``params`` are the views into ``flat`` in that order, and ``weights[i]``
    (shape (fan_out, fan_in)), ``biases[i]``, ``clf_w`` and ``clf_b`` are
    among them: writing into them writes the vector; the attributes cannot
    be rebound. Every layer except the last is followed by tanh, the last is
    linear and its output is normalized to unit length before classification.
    """

    def __init__(self, flat: np.ndarray, layer_sizes, n_classes: int):
        shapes = param_shapes(layer_sizes, n_classes)
        params = tuple(_views(flat, shapes))
        vars(self).update(flat=flat, layer_sizes=list(layer_sizes), n_classes=n_classes,
                          shapes=shapes, params=params, weights=params[0:-2:2],
                          biases=params[1:-2:2], clf_w=params[-2], clf_b=params[-1])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: write into the views of model.flat")

    @classmethod
    def init(cls, input_dim: int, widths, feature_dim: int, n_classes: int, seed: int):
        """Symmetric uniform init scaled by fan-in, seeded, drawn parameter
        by parameter in ``params`` order."""
        if input_dim < 1 or feature_dim < 2 or n_classes < 2:
            raise ValueError("need input_dim >= 1, feature_dim >= 2, n_classes >= 2")
        sizes = [int(input_dim)] + [int(w) for w in widths] + [int(feature_dim)]
        if any(s < 1 for s in sizes):
            raise ValueError(f"invalid layer sizes {sizes}")
        n_classes = int(n_classes)
        shapes = param_shapes(sizes, n_classes)
        model = cls(np.empty(sum(math.prod(s) for s in shapes)), sizes, n_classes)
        rng = np.random.default_rng(int(seed))
        for w, b in zip(model.params[0::2], model.params[1::2]):
            bound = 1.0 / np.sqrt(w.shape[1])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)
        return model

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def feature_dim(self) -> int:
        return self.layer_sizes[-1]


def _forward_batch(model: EncoderClassifier, x: np.ndarray, acts: list | None = None):
    # returns (acts, norms of the pre-norm output, unit-norm features); each
    # hidden layer is formed in one buffer (h @ w.T, += b, tanh in place: the
    # bits of tanh(h @ w.T + b)). Training passes a list ``acts``, which
    # collects the input and every hidden layer for backprop; without it only
    # the layer being computed is kept.
    if acts is not None:
        acts.append(x)
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = h @ w.T
        h += b
        np.tanh(h, out=h)
        if acts is not None:
            acts.append(h)
    z = h @ model.weights[-1].T
    z += model.biases[-1]
    norms = norms_along(z)
    if (norms < 1e-12).any():
        raise ValueError("degenerate embedding: pre-normalization output is ~0")
    z /= norms[:, None]
    return acts, norms, z


def encoder_forward(model: EncoderClassifier, x) -> np.ndarray:
    """Unit-norm features (n, feature_dim) for an (n, input_dim) batch."""
    xb = np.asarray(x, dtype=np.float64)
    if xb.ndim != 2 or xb.shape[1] != model.input_dim:
        raise ValueError(f"input dim: got shape {xb.shape}, the model takes (n, {model.input_dim})")
    _, _, z = _forward_batch(model, xb)
    return z


def classifier_logits(model: EncoderClassifier, z) -> np.ndarray:
    """Linear head logits for a feature vector or rows of features."""
    zv = np.asarray(z, dtype=np.float64)
    if zv.shape[-1] != model.feature_dim:
        raise ValueError(f"feature dim {zv.shape[-1]} != model feature {model.feature_dim}")
    return zv @ model.clf_w.T + model.clf_b


def _backprop_stream(model, acts, norms, z, d_z, d_logits, grads) -> None:
    # head; ``d_z`` is the gradient of a feature-level term, None without one
    grads[-2] += d_logits.T @ z
    grads[-1] += np.add.reduce(d_logits, axis=0)
    d_z = d_logits @ model.clf_w if d_z is None else d_z + d_logits @ model.clf_w
    # unit-norm projection: (I - z z^T) / ||pre||
    g = (d_z - z * np.add.reduce(z * d_z, axis=-1, keepdims=True)) / norms[:, None]
    for layer in range(len(model.weights) - 1, -1, -1):
        grads[2 * layer] += g.T @ acts[layer]
        grads[2 * layer + 1] += np.add.reduce(g, axis=0)
        if layer > 0:
            g = (g @ model.weights[layer]) * (1.0 - acts[layer] ** 2)


def _oe_weight(config: TrainConfig) -> float:
    # the outlier term's weight: beta for patt, oe_gamma for the OE baseline
    return {"patt": config.beta, "oe-baseline": config.oe_gamma}.get(config.method, 0.0)


def _ood_stream(model: EncoderClassifier, ood_x: np.ndarray, w_oe: float, grads) -> float:
    # the outlier stream: the mean OE term of the rows, with its gradient
    # (weighted by w_oe) added into the views ``grads``
    from . import losses
    m = ood_x.shape[0]
    acts, norms, z = _forward_batch(model, ood_x, [])
    oe_vals, oe_grads = losses.oe_uniform_loss_batch(z @ model.clf_w.T + model.clf_b)
    oe_mean = float(np.add.reduce(oe_vals)) / m
    _backprop_stream(model, acts, norms, z, None, w_oe * oe_grads / m, grads)
    return oe_mean


def batch_loss_and_grads(
    model: EncoderClassifier,
    stats,
    id_x: np.ndarray,
    id_y: np.ndarray,
    ood_x,
    config: TrainConfig,
    forward=None,
):
    """Mean batch objective of ``config.method`` and its exact parameter
    gradients, returned as ``((total, isac, tla, oe), flat_grad)``: the mean
    per-term values of the batch (for the baselines ``tla`` holds the plain
    cross-entropy term and ``isac`` is 0) and the gradient vector.

    Every method trains on isac + w_cls * cls + w_oe * oe, with cls the logit
    adjustment at (priors, epsilon) and oe the outlier stream's cross entropy
    from the uniform target. ``patt`` adds the ISAC term under the mixture
    ``stats`` = ``(mus, kappas, priors)`` and takes (its priors, ``epsilon``,
    ``alpha``, ``beta``); the baselines have none and take
    (uniform, 1, 1, ``oe_gamma`` or 0), where the adjustment is cross entropy.

    The mixture statistics are constants here; differentiation covers the
    encoder (through the unit-norm projection) and the head for both
    streams. ``ood_x`` holds the outlier rows, or is the join of the helper
    already running this step's outlier stream (``train``), called with
    ``flat_grad`` after the labeled stream. ``forward`` may carry the labeled
    batch's encoder pass (``_forward_batch(model, id_x, [])``) when the
    caller already ran it.
    Every parameter's gradient is accumulated into a view of one fresh zeroed
    vector, ``flat_grad``, laid out like ``model.flat``.
    """
    # only the training path needs the losses (and vmf): calibrate and eval
    # run the model without loading them
    from . import losses
    method = config.method
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    n = id_x.shape[0]
    if n == 0:
        raise ValueError("empty labeled batch")
    flat_grad = np.zeros(model.flat.size)
    grads = _views(flat_grad, model.shapes)

    acts, norms, z = _forward_batch(model, id_x, []) if forward is None else forward
    logits = z @ model.clf_w.T + model.clf_b

    w_oe = _oe_weight(config)
    if method == "patt":
        if stats is None:
            raise ValueError("patt objective requires mixture statistics")
        mus, kappas, priors = stats
        isac_vals, isac_grads = losses.isac_loss_batch(mus, kappas, priors, z, id_y, config.tau)
        isac_mean, d_z = float(np.add.reduce(isac_vals)) / n, isac_grads / n
        epsilon, w_cls = config.epsilon, config.alpha
    else:
        isac_mean, d_z = 0.0, None
        priors, epsilon, w_cls = np.full(model.n_classes, 1.0 / model.n_classes), 1.0, 1.0
    cls_vals, cls_grads = losses.tla_loss_batch(logits, id_y, priors, epsilon)
    cls_mean = float(np.add.reduce(cls_vals)) / n
    _backprop_stream(model, acts, norms, z, d_z, w_cls * cls_grads / n, grads)

    oe_mean = 0.0
    if callable(ood_x):
        oe_mean = ood_x(flat_grad)
    elif w_oe > 0.0 and ood_x is not None and ood_x.shape[0] > 0:
        oe_mean = _ood_stream(model, ood_x, w_oe, grads)

    total = isac_mean + w_cls * cls_mean + w_oe * oe_mean
    return (total, isac_mean, cls_mean, oe_mean), flat_grad


class TrainState:
    """The one mutable context of a training run: parameters, the class
    statistics as arrays, the optimizer state and the static configuration.

    The statistics are the mixture's ``mus`` (K, d) and ``kappas`` (K,), the
    running class sums they come from (``sums`` (K, d) and ``counts`` (K,),
    see ``vmf.estimate_class_stats``), all None until a full pass sets them,
    and the fixed ``priors`` (K,). The optimizer state is flat in
    ``model.flat`` order: Adam's moments ``m``, ``v`` and step count ``t``;
    SGD keeps its velocity in ``m``. All start at zero."""

    def __init__(self, model: EncoderClassifier, config: TrainConfig, priors: np.ndarray):
        self.model, self.config, self.priors = model, config, priors
        self.mus = self.kappas = self.sums = self.counts = None
        self.m, self.v, self.t = np.zeros(model.flat.size), np.zeros(model.flat.size), 0


def _apply_update(state: TrainState, flat_grad: np.ndarray) -> None:
    """One optimizer step, in place on ``state.model.flat`` and the
    optimizer state; ``flat_grad`` is laid out like ``model.flat``."""
    lr, m, v, flat = state.config.learning_rate, state.m, state.v, state.model.flat
    if state.config.optimizer == "adam":
        b1, b2, eps = 0.9, 0.999, 1e-8
        state.t += 1
        m *= b1
        m += (1 - b1) * flat_grad
        v *= b2
        v += (1 - b2) * flat_grad * flat_grad
        flat -= lr * (m / (1 - b1**state.t)) / (np.sqrt(v / (1 - b2**state.t)) + eps)
    else:
        m *= state.config.sgd_momentum
        m += flat_grad
        flat -= lr * m


def train_step(state: TrainState, id_batch, ood_batch) -> tuple:
    """One optimization step, in place on ``state``; returns the loss
    breakdown ``(total, isac, tla, oe)``. ``ood_batch`` holds the outlier
    rows, or is the join of the helper that ``train`` started on them.

    For the combined objective the batch features are first folded into the
    running class sums, each present class's decayed by ``vmf_momentum``,
    and the mixture is taken from them (priors fixed), unless the config
    asks for per-epoch refresh only. A step that fails leaves the state as
    it was.
    """
    id_x, id_y = id_batch
    id_x = np.asarray(id_x, dtype=np.float64)
    id_y = np.asarray(id_y)
    ood_x = ood_batch
    if ood_x is not None and not callable(ood_x):
        ood_x = np.asarray(ood_x, dtype=np.float64)
    config = state.config

    mus, kappas, sums, counts = state.mus, state.kappas, state.sums, state.counts
    forward = None
    if config.method == "patt" and config.vmf_update == "batch" and mus is not None:
        from .vmf import estimate_class_stats
        # one encoder pass feeds both the stats refresh and the loss
        forward = _forward_batch(state.model, id_x, [])
        mus, kappas, sums, counts = estimate_class_stats(forward[2], id_y, sums, counts,
                                                         config.vmf_momentum)

    stats = None if mus is None else (mus, kappas, state.priors)
    breakdown, flat_grad = batch_loss_and_grads(state.model, stats, id_x, id_y, ood_x, config,
                                                forward=forward)
    for name, val in zip(("isac", "tla", "oe"), breakdown[1:]):
        if not math.isfinite(val):
            raise RuntimeError(f"non-finite loss term: {name} = {val}")
    if not np.isfinite(flat_grad).all():
        raise RuntimeError("non-finite gradient in parameter update")

    state.mus, state.kappas, state.sums, state.counts = mus, kappas, sums, counts
    _apply_update(state, flat_grad)
    return breakdown


def _validation_accuracy(model, val_x, val_y) -> float:
    z = encoder_forward(model, val_x)
    pred = np.argmax(classifier_logits(model, z), axis=-1)
    return float(np.mean(pred == val_y))


def _full_stats(model, train_x, train_y, k: int):
    # (mus, kappas, sums, counts) of one pass over the split from zero sums
    from .vmf import estimate_class_stats
    z = encoder_forward(model, train_x)
    return estimate_class_stats(z, train_y, np.zeros((k, z.shape[1])), np.zeros(k))


def _outlier_helper(model: EncoderClassifier, ood_x: np.ndarray, take: int, w_oe: float):
    # ``(helper, hand_off)``: a ``util.Beside`` running the outlier stream
    # on its own copy of ``model``, and ``hand_off(rows)``, which writes the
    # step's parameters and rows into a shared anonymous mmap, starts the
    # stream and returns the join for ``batch_loss_and_grads``
    import mmap
    p = model.flat.size
    shared = np.frombuffer(mmap.mmap(-1, 8 * (2 * p + take)))
    flat, grad, idx = shared[:p], shared[p:2 * p], shared[2 * p:].view(np.int64)
    grads = _views(grad, model.shapes)

    def stream():
        model.flat[...] = flat  # the helper's copy; run here, the same values
        grad.fill(0.0)
        return _ood_stream(model, ood_x[idx], w_oe, grads)

    def join(flat_grad):
        oe_mean = helper.join()
        flat_grad += grad
        return oe_mean

    def hand_off(rows):
        flat[...] = model.flat
        idx[...] = rows
        helper.start()
        return join

    helper = Beside(stream, "the outlier stream's helper")
    return helper, hand_off


def train(config: TrainConfig, train_id, train_ood, val_id):
    """Full training run; returns ``(model, (mus, kappas, priors), history)``,
    the history holding one ``(epoch, total, isac, tla, oe, val_acc)`` tuple
    per epoch: the mean loss terms and the validation accuracy.

    The labeled splits are checked here, once: at least two classes, each
    with training rows, a validation split with rows, and every training and
    validation label in [0, K) (an outlier row, label -1, is refused).

    For ``patt`` a full pass over the split seeds the mixture at the start
    of the first epoch, and of every epoch under ``vmf_update = epoch``. The
    baselines, and a run of no epochs, return a full pass of the final model.
    Sub-seeds for init, labeled shuffling and the outlier stream are derived
    from the config seed by role, so two runs with the same seed are
    bit-identical. The outlier stream runs in a forked helper, which ends
    before ``train`` returns or raises; it runs inline where ``util.Beside``
    does not fork. A helper that dies during the run ends it with
    ``ChildProcessError``.
    """
    x, y = np.asarray(train_id.inputs, dtype=np.float64), np.asarray(train_id.labels)
    counts = np.asarray(train_id.class_counts, dtype=np.float64)
    if counts.size < 2:
        raise ValueError("training needs at least two classes")
    if np.any(counts <= 0):
        raise ValueError("every class needs at least one training sample")
    if val_id.labels.size == 0:
        raise ValueError("the validation split has no rows")
    for split, labels in (("labels", y), ("validation labels", val_id.labels)):
        lo, hi = int(labels.min()), int(labels.max())
        if lo < 0 or hi >= counts.size:
            raise ValueError(f"{split} out of range for the class count: "
                             f"got {lo if lo < 0 else hi}, want each in [0, {counts.size})")
    priors = counts / np.add.reduce(counts)

    model = EncoderClassifier.init(
        x.shape[1], config.encoder_widths, config.feature_dim,
        counts.size, derive_seed(config.seed, "model-init"),
    )
    history = []
    w_oe, ood_x = _oe_weight(config), None
    if train_ood is not None and train_ood.inputs.shape[0] > 0 and w_oe > 0.0:
        ood_x = np.asarray(train_ood.inputs, dtype=np.float64)
        take = min(config.ood_batch_size, ood_x.shape[0])

    state = TrainState(model, config, priors)
    shuffle_rng = np.random.default_rng(derive_seed(config.seed, "id-shuffle"))
    ood_rng = np.random.default_rng(derive_seed(config.seed, "ood-shuffle"))
    ood_queue = np.empty(0, dtype=np.int64)

    n = x.shape[0]
    helper = None
    try:
        if ood_x is not None and config.epochs > 0 and may_fork():
            helper, hand_off = _outlier_helper(model, ood_x, take, w_oe)
        for epoch in range(config.epochs):
            if config.method == "patt" and (epoch == 0 or config.vmf_update == "epoch"):
                state.mus, state.kappas, state.sums, state.counts = _full_stats(
                    state.model, x, y, counts.size)
            perm = shuffle_rng.permutation(n)
            sums = np.zeros(4)
            steps = 0
            for start in range(0, n, config.batch_size):
                idx = perm[start : start + config.batch_size]
                ood_batch = None
                if ood_x is not None:
                    while ood_queue.size < take:
                        ood_queue = np.concatenate([ood_queue,
                                                    ood_rng.permutation(ood_x.shape[0])])
                    rows, ood_queue = ood_queue[:take], ood_queue[take:]
                    ood_batch = ood_x[rows] if helper is None else hand_off(rows)
                breakdown = train_step(state, (x[idx], y[idx]), ood_batch)
                sums += breakdown
                steps += 1
            total, isac, tla, oe = (sums / steps).tolist()
            history.append((epoch, total, isac, tla, oe,
                            _validation_accuracy(state.model, val_id.inputs, val_id.labels)))
    finally:
        if helper is not None:
            helper.close()

    if state.mus is None:
        state.mus, state.kappas = _full_stats(state.model, x, y, counts.size)[:2]
    return state.model, (state.mus, state.kappas, priors), history


def check_stats(k: int, dim: int, stats) -> None:
    """Check the ``k`` class rows of ``stats``, a flat sequence of ``dim + 2``
    Python floats per class (mu, kappa, prior): dim >= 2, finite
    non-negative kappa, unit-norm mu and positive priors that sum to 1.
    Raises ``ValueError`` naming the first failed check and its class."""
    if dim < 2:
        raise ValueError(f"feature dim must be >= 2, got {dim}")
    # each test is written so that NaN fails it
    for c in range(k):
        row = stats[c * (dim + 2) : (c + 1) * (dim + 2)]
        kappa, prior = row[dim], row[dim + 1]
        if not (math.isfinite(kappa) and kappa >= 0.0):
            raise ValueError(f"kappa must be finite and non-negative, got kappa[{c}] = {kappa!r}")
        norm = math.hypot(*row[:dim])
        if not abs(norm - 1.0) <= MU_NORM_TOL:
            raise ValueError(f"mu must be unit norm, got ||mu[{c}]|| = {norm!r}")
        if not prior > 0.0:
            raise ValueError(f"priors must be strictly positive, got prior[{c}] = {prior!r}")
    total = sum(stats[dim + 1 :: dim + 2])
    if not abs(total - 1.0) <= PRIOR_SUM_TOL:
        raise ValueError(f"priors must sum to 1, got {total!r}")


def save_checkpoint(path, model: EncoderClassifier, stats) -> None:
    """Write ``model`` and the mixture ``stats`` = ``(mus, kappas, priors)``
    once their shapes match the model's head and ``check_stats`` passes the
    rows. Little-endian: ``MAGIC``, uint32 L, the L layer sizes and K as
    uint32, then float64 ``model.flat`` and one (mu, kappa, prior) row per class."""
    mus, kappas, priors = (np.asarray(a, dtype=np.float64) for a in stats)
    k, dim, sizes = model.n_classes, model.feature_dim, model.layer_sizes
    if mus.shape != (k, dim):
        raise ValueError(f"mus must have the head's shape {(k, dim)}, got {mus.shape}")
    if kappas.shape != (k,) or priors.shape != (k,):
        raise ValueError(f"kappas {kappas.shape} and priors {priors.shape} "
                         f"must both have shape ({k},)")
    rows = np.column_stack([mus, kappas, priors])
    check_stats(k, dim, rows.ravel().tolist())
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack(f"<I{len(sizes)}II", len(sizes), *sizes, k)
                 + model.flat.astype("<f8").tobytes() + rows.astype("<f8").tobytes())


def load_checkpoint(path):
    """Inverse of ``save_checkpoint``: ``(model, (mus, kappas, priors))``,
    writable views into one decoded copy of the payload. A bad magic, layer
    count, layer size or length, a failed ``check_stats`` or a non-finite
    parameter raises ``ValueError``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic)")
    if len(blob) < len(MAGIC) + 4:
        raise ValueError(f"{path}: truncated checkpoint")
    (n_sizes,) = struct.unpack_from("<I", blob, len(MAGIC))
    if n_sizes < 2:
        raise ValueError(f"{path}: invalid layer count {n_sizes}")
    off = len(MAGIC) + 4 * (n_sizes + 2)
    if off > len(blob):
        raise ValueError(f"{path}: truncated checkpoint")
    *sizes, k = struct.unpack_from(f"<{n_sizes + 1}I", blob, len(MAGIC) + 4)
    if min(sizes) < 1:
        raise ValueError(f"{path}: invalid layer sizes {sizes}")
    dim = sizes[-1]
    n = sum(math.prod(s) for s in param_shapes(sizes, k))
    end = off + 8 * (n + k * (dim + 2))
    if end > len(blob):
        raise ValueError(f"{path}: truncated checkpoint")
    if end < len(blob):
        raise ValueError(f"{path}: trailing bytes in checkpoint")
    values = np.frombuffer(blob, dtype="<f8", offset=off).astype(np.float64)
    # the class rows as Python floats: the checks and words of the save
    check_stats(k, dim, values[n:].tolist())
    if not np.isfinite(values[:n]).all():
        raise ValueError(f"{path}: non-finite parameter in checkpoint")
    model = EncoderClassifier(values[:n], sizes, k)
    stats = values[n:].reshape(k, dim + 2)
    return model, (stats[:, :dim], stats[:, dim], stats[:, dim + 1])
