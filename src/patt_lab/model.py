"""Encoder/classifier model, exact manual backprop, and the training loop.

The encoder is a small tanh MLP whose output is projected onto the unit
sphere; a linear head maps features to class logits. Gradients are computed
in closed form (including the normalization Jacobian, with no stop-gradient)
and were validated against central finite differences. Training is fully
deterministic for a fixed seed.
"""

from __future__ import annotations

import math

import numpy as np

from . import checkpoint
from .config import METHODS, TrainConfig
from .util import derive_seed, norms_along
from .vmf import VmfMixture, estimate_class_stats

__all__ = [
    "EncoderClassifier",
    "TrainConfig",
    "TrainState",
    "EpochRecord",
    "encoder_forward",
    "classifier_logits",
    "batch_loss_and_grads",
    "train_step",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]


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
    float64 vector ``flat`` in the ``checkpoint.param_shapes`` order.

    ``weights[i]`` (shape (fan_out, fan_in)), ``biases[i]``, ``clf_w`` and
    ``clf_b`` are views into ``flat``, so writing into them writes the
    vector; the attributes themselves cannot be rebound. Every layer except
    the last is followed by tanh, the last is linear and its output is
    normalized to unit length before classification.
    """

    def __init__(self, flat: np.ndarray, layer_sizes, n_classes: int):
        *layers, clf_w, clf_b = _views(flat, checkpoint.param_shapes(layer_sizes, n_classes))
        vars(self).update(flat=flat, layer_sizes=list(layer_sizes), n_classes=n_classes,
                          weights=tuple(layers[0::2]), biases=tuple(layers[1::2]),
                          clf_w=clf_w, clf_b=clf_b)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: write into the views of model.flat")

    @classmethod
    def init(cls, input_dim: int, widths, feature_dim: int, n_classes: int, seed: int):
        """Symmetric uniform init scaled by fan-in, seeded, drawn parameter
        by parameter in ``param_list`` order."""
        if input_dim < 1 or feature_dim < 2 or n_classes < 2:
            raise ValueError("need input_dim >= 1, feature_dim >= 2, n_classes >= 2")
        sizes = [int(input_dim)] + [int(w) for w in widths] + [int(feature_dim)]
        if any(s < 1 for s in sizes):
            raise ValueError(f"invalid layer sizes {sizes}")
        n_classes = int(n_classes)
        shapes = checkpoint.param_shapes(sizes, n_classes)
        model = cls(np.empty(sum(math.prod(s) for s in shapes)), sizes, n_classes)
        rng = np.random.default_rng(int(seed))
        params = model.param_list()
        for w, b in zip(params[0::2], params[1::2]):
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

    def param_list(self) -> list:
        """The parameter arrays in ``flat`` order, a fixed traversal order
        shared with gradients, optimizer state and the checkpoint."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        out.extend([self.clf_w, self.clf_b])
        return out


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
    # head
    if d_logits is not None:
        grads[-2] += d_logits.T @ z
        grads[-1] += np.add.reduce(d_logits, axis=0)
        d_z = d_z + d_logits @ model.clf_w if d_z is not None else d_logits @ model.clf_w
    # unit-norm projection: (I - z z^T) / ||pre||
    d_pre = (d_z - z * np.add.reduce(z * d_z, axis=-1, keepdims=True)) / norms[:, None]
    g = d_pre
    for layer in range(len(model.weights) - 1, -1, -1):
        grads[2 * layer] += g.T @ acts[layer]
        grads[2 * layer + 1] += np.add.reduce(g, axis=0)
        if layer > 0:
            g = (g @ model.weights[layer]) * (1.0 - acts[layer] ** 2)


class LossBreakdown:
    """Mean per-term values of one batch objective. For the baselines the
    ``tla`` slot holds the plain cross-entropy term and ``isac`` is 0."""

    def __init__(self, total: float, isac: float, tla: float, oe: float):
        self.total = total
        self.isac = isac
        self.tla = tla
        self.oe = oe


def batch_loss_and_grads(
    model: EncoderClassifier,
    mix: VmfMixture | None,
    id_x: np.ndarray,
    id_y: np.ndarray,
    ood_x,
    config: TrainConfig,
    flat_grad: np.ndarray,
    forward=None,
):
    """Mean batch objective of ``config.method``, weighted by ``config``,
    and its exact parameter gradients.

    The mixture statistics, the priors of the logit adjustment included, are
    constants here; differentiation covers the encoder (through the unit-norm
    projection) and the classifier head for both the labeled and the outlier
    stream. ``forward`` may carry the
    labeled batch's encoder pass (``_forward_batch(model, id_x, [])``) when
    the caller already ran it. The gradients are accumulated into
    ``flat_grad``, a zero vector laid out like ``model.flat``, and returned
    as one view of it per parameter in ``param_list`` order.
    """
    # the training path is the only one that needs the losses: calibrate
    # and eval run the model without loading them
    from . import losses
    method = config.method
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    n = id_x.shape[0]
    if n == 0:
        raise ValueError("empty labeled batch")
    grads = _views(flat_grad, [p.shape for p in model.param_list()])

    acts, norms, z = _forward_batch(model, id_x, []) if forward is None else forward
    logits = z @ model.clf_w.T + model.clf_b

    if method == "patt":
        if mix is None:
            raise ValueError("patt objective requires mixture statistics")
        isac_vals, isac_grads = losses.isac_loss_batch(mix, z, id_y, config.tau)
        tla_vals, tla_grads = losses.tla_loss_batch(logits, id_y, mix.priors, config.epsilon)
        d_z = isac_grads / n
        d_logits = config.alpha * tla_grads / n
        isac_mean = float(np.add.reduce(isac_vals)) / n
        cls_mean = float(np.add.reduce(tla_vals)) / n
        ood_weight = config.beta
    else:
        # plain cross entropy == adjustment under uniform priors
        uniform = np.full(model.n_classes, 1.0 / model.n_classes)
        ce_vals, ce_grads = losses.tla_loss_batch(logits, id_y, uniform, 1.0)
        d_z = np.zeros_like(z)
        d_logits = ce_grads / n
        isac_mean, cls_mean = 0.0, float(np.add.reduce(ce_vals)) / n
        ood_weight = config.oe_gamma if method == "oe-baseline" else 0.0
    _backprop_stream(model, acts, norms, z, d_z, d_logits, grads)

    oe_mean = 0.0
    if ood_weight > 0.0 and ood_x is not None and ood_x.shape[0] > 0:
        m = ood_x.shape[0]
        acts_o, norms_o, z_o = _forward_batch(model, ood_x, [])
        logits_o = z_o @ model.clf_w.T + model.clf_b
        oe_vals, oe_grads = losses.oe_uniform_loss_batch(logits_o)
        oe_mean = float(np.add.reduce(oe_vals)) / m
        _backprop_stream(model, acts_o, norms_o, z_o, None, ood_weight * oe_grads / m, grads)

    if method == "patt":
        total = isac_mean + config.alpha * cls_mean + config.beta * oe_mean
    else:
        total = cls_mean + ood_weight * oe_mean
    return LossBreakdown(total=total, isac=isac_mean, tla=cls_mean, oe=oe_mean), grads


class _AdamState:
    """First and second moments, flat in ``param_list`` order."""

    def __init__(self, m: np.ndarray, v: np.ndarray, t: int = 0):
        self.m, self.v, self.t = m, v, t


class _SgdState:
    """Momentum buffer, flat in ``param_list`` order."""

    def __init__(self, velocity: np.ndarray):
        self.velocity = velocity


class TrainState:
    """One optimization step's full context: parameters, mixture statistics,
    optimizer state (zero moments without ``opt``) and static configuration."""

    def __init__(self, model: EncoderClassifier, mix: VmfMixture | None, config: TrainConfig,
                 opt=None):
        self.model = model
        self.mix = mix
        self.config = config
        if opt is None:
            size = model.flat.size
            if config.optimizer == "adam":
                opt = _AdamState(m=np.zeros(size), v=np.zeros(size))
            else:
                opt = _SgdState(velocity=np.zeros(size))
        self.opt = opt


def _apply_update(model, flat_grad, config, opt):
    """One optimizer step over the flat parameter vector.

    ``flat_grad`` is laid out like ``model.flat``. Returns the new model, over
    a fresh parameter vector (``model`` is left untouched), and the new
    optimizer state.
    """
    lr = config.learning_rate
    if isinstance(opt, _AdamState):
        b1, b2, eps = 0.9, 0.999, 1e-8
        t = opt.t + 1
        # lr * m_hat / (sqrt(v_hat) + eps) in place, in the same order of operations
        m = b1 * opt.m
        m += (1.0 - b1) * flat_grad
        v = (1.0 - b2) * flat_grad
        v *= flat_grad
        v += b2 * opt.v
        step = m / (1.0 - b1**t)
        step *= lr
        denom = v / (1.0 - b2**t)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        new_opt = _AdamState(m=m, v=v, t=t)
    else:
        vel = config.sgd_momentum * opt.velocity + flat_grad
        step = lr * vel
        new_opt = _SgdState(velocity=vel)
    return EncoderClassifier(model.flat - step, model.layer_sizes, model.n_classes), new_opt


def train_step(state: TrainState, id_batch, ood_batch):
    """One optimization step; returns the new state and the loss breakdown.

    For the combined objective the per-class vMF statistics are refreshed
    from the batch features first (exponential moving average, priors fixed)
    unless the config asks for per-epoch refresh only.
    """
    id_x, id_y = id_batch
    id_x = np.asarray(id_x, dtype=np.float64)
    id_y = np.asarray(id_y)
    ood_x = None if ood_batch is None else np.asarray(ood_batch, dtype=np.float64)
    config = state.config

    if id_x.shape[-1] != state.model.input_dim:
        raise ValueError(f"input dim {id_x.shape[-1]} != model input {state.model.input_dim}")

    mix = state.mix
    forward = None
    if config.method == "patt":
        if config.vmf_update == "batch":
            # one encoder pass feeds both the stats refresh and the loss
            forward = _forward_batch(state.model, id_x, [])
            mix = estimate_class_stats(
                forward[2], id_y, previous=mix, momentum=config.vmf_momentum
            )

    # batch_loss_and_grads accumulates every parameter's gradient into a
    # view of this one vector
    flat_grad = np.zeros(state.model.flat.size)
    breakdown, _ = batch_loss_and_grads(state.model, mix, id_x, id_y, ood_x, config, flat_grad,
                                        forward=forward)
    for name, val in (("isac", breakdown.isac), ("tla", breakdown.tla), ("oe", breakdown.oe)):
        if not math.isfinite(val):
            raise RuntimeError(f"non-finite loss term: {name} = {val}")
    if not np.isfinite(flat_grad).all():
        raise RuntimeError("non-finite gradient in parameter update")

    new_model, new_opt = _apply_update(state.model, flat_grad, config, state.opt)
    new_state = TrainState(new_model, mix, config, new_opt)
    return new_state, breakdown


class EpochRecord:
    """One epoch's mean loss terms and validation accuracy."""

    def __init__(self, epoch: int, total: float, isac: float, tla: float, oe: float,
                 val_acc: float):
        self.epoch, self.total, self.isac = epoch, total, isac
        self.tla, self.oe, self.val_acc = tla, oe, val_acc


def _validation_accuracy(model, val_x, val_y) -> float:
    z = encoder_forward(model, val_x)
    pred = np.argmax(classifier_logits(model, z), axis=-1)
    return float(np.mean(pred == val_y))


def _full_stats(model, train_x, train_y, class_counts) -> VmfMixture:
    z = encoder_forward(model, train_x)
    return estimate_class_stats(z, train_y, momentum=0.0, class_counts=class_counts)


def train(config: TrainConfig, train_id, train_ood, val_id):
    """Full training run; returns (model, mixture statistics, history), the
    history being one ``EpochRecord`` per epoch.

    Sub-seeds for init, labeled shuffling and the outlier stream are derived
    from the config seed by role, so two runs with the same seed are
    bit-identical.
    """
    x, y = np.asarray(train_id.inputs, dtype=np.float64), np.asarray(train_id.labels)
    counts = np.asarray(train_id.class_counts, dtype=np.float64)
    if counts.size < 2:
        raise ValueError("training needs at least two classes")
    if np.any(counts <= 0):
        raise ValueError("every class needs at least one training sample")

    model = EncoderClassifier.init(
        x.shape[1], config.encoder_widths, config.feature_dim,
        counts.size, derive_seed(config.seed, "model-init"),
    )
    history = []
    if config.epochs == 0:
        return model, _full_stats(model, x, y, counts), history

    ood_x = None
    if train_ood is not None and train_ood.inputs.shape[0] > 0:
        ood_x = np.asarray(train_ood.inputs, dtype=np.float64)

    state = TrainState(model=model, mix=None, config=config)
    if config.method == "patt":
        state.mix = _full_stats(model, x, y, counts)

    shuffle_rng = np.random.default_rng(derive_seed(config.seed, "id-shuffle"))
    ood_rng = np.random.default_rng(derive_seed(config.seed, "ood-shuffle"))
    ood_queue = np.empty(0, dtype=np.int64)

    n = x.shape[0]
    for epoch in range(config.epochs):
        if config.method == "patt" and config.vmf_update == "epoch":
            state.mix = _full_stats(state.model, x, y, counts)
        perm = shuffle_rng.permutation(n)
        sums = np.zeros(4)
        steps = 0
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            ood_batch = None
            if ood_x is not None:
                take = min(config.ood_batch_size, ood_x.shape[0])
                while ood_queue.size < take:
                    ood_queue = np.concatenate([ood_queue, ood_rng.permutation(ood_x.shape[0])])
                ood_batch = ood_x[ood_queue[:take]]
                ood_queue = ood_queue[take:]
            state, breakdown = train_step(state, (x[idx], y[idx]), ood_batch)
            sums += (breakdown.total, breakdown.isac, breakdown.tla, breakdown.oe)
            steps += 1
        val_acc = _validation_accuracy(state.model, val_id.inputs, val_id.labels)
        means = sums / steps
        history.append(EpochRecord(
            epoch=epoch, total=float(means[0]), isac=float(means[1]),
            tla=float(means[2]), oe=float(means[3]), val_acc=val_acc,
        ))

    mix = state.mix if state.mix is not None else _full_stats(state.model, x, y, counts)
    return state.model, mix, history


def save_checkpoint(path, model: EncoderClassifier, mix: VmfMixture) -> None:
    """Write ``model`` and ``mix`` in the layout of ``checkpoint``:
    ``model.flat``, then one (mu, kappa, prior) row per class."""
    if mix.n_classes != model.n_classes or mix.dim != model.feature_dim:
        raise ValueError("mixture does not match the model's head")
    stats = np.column_stack([mix.mus, mix.kappas, mix.priors])
    data = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                    for arr in (model.flat, stats))
    checkpoint.write(path, model.layer_sizes, model.n_classes, data)


def load_checkpoint(path):
    """Inverse of ``save_checkpoint``, checked by ``checkpoint.read``;
    returns (model, mixture). The arrays are writable views into one copy of
    the checked payload, whose first values are ``model.flat``."""
    sizes, k, payload, _ = checkpoint.read(path)
    values = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    dim = sizes[-1]
    n = values.size - k * (dim + 2)
    model = EncoderClassifier(values[:n], sizes, k)
    stats = values[n:].reshape(k, dim + 2)
    mix = VmfMixture(mus=stats[:, :dim], kappas=stats[:, dim], priors=stats[:, dim + 1])
    return model, mix
