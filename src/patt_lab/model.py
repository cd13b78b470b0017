"""Encoder/classifier model, exact manual backprop, and the training loop.

The encoder is a small tanh MLP whose output is projected onto the unit
sphere; a linear head maps features to class logits. Gradients are computed
in closed form (including the normalization Jacobian, with no stop-gradient)
and were validated against central finite differences. Training is fully
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import losses
from .data import SynthConfig
from .util import check_fields, derive_seed, norms_along
from .vmf import VmfMixture, estimate_class_stats

__all__ = [
    "EncoderClassifier",
    "TrainConfig",
    "TrainState",
    "EpochRecord",
    "TrainHistory",
    "encoder_forward",
    "classifier_logits",
    "batch_loss_and_grads",
    "train_step",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = b"PATT1"

METHODS = ("patt", "oe-baseline", "ce-baseline")


@dataclass
class EncoderClassifier:
    """MLP encoder weights plus the linear classification head.

    ``weights[i]`` has shape (fan_out, fan_in); every layer except the last
    is followed by tanh, the last is linear and its output is normalized to
    unit length before classification.
    """

    weights: list
    biases: list
    clf_w: np.ndarray
    clf_b: np.ndarray

    @classmethod
    def init(cls, input_dim: int, widths, feature_dim: int, n_classes: int, seed: int):
        """Symmetric uniform init scaled by fan-in, seeded."""
        if input_dim < 1 or feature_dim < 2 or n_classes < 2:
            raise ValueError("need input_dim >= 1, feature_dim >= 2, n_classes >= 2")
        sizes = [int(input_dim)] + [int(w) for w in widths] + [int(feature_dim)]
        if any(s < 1 for s in sizes):
            raise ValueError(f"invalid layer sizes {sizes}")
        rng = np.random.default_rng(int(seed))
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(rng.uniform(-bound, bound, size=fan_out))
        bound = 1.0 / np.sqrt(feature_dim)
        clf_w = rng.uniform(-bound, bound, size=(n_classes, feature_dim))
        clf_b = rng.uniform(-bound, bound, size=n_classes)
        return cls(weights=weights, biases=biases, clf_w=clf_w, clf_b=clf_b)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def feature_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def n_classes(self) -> int:
        return self.clf_w.shape[0]

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    def copy(self) -> "EncoderClassifier":
        return EncoderClassifier(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            clf_w=self.clf_w.copy(),
            clf_b=self.clf_b.copy(),
        )

    def param_list(self) -> list:
        """Flat list of parameter arrays, a fixed traversal order shared with
        gradients and optimizer state."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        out.extend([self.clf_w, self.clf_b])
        return out


def _forward_batch(model: EncoderClassifier, x: np.ndarray):
    # returns (hidden activations incl. input, pre-norm output, norms, features)
    acts = [x]
    h = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        h = np.tanh(h @ w.T + b)
        acts.append(h)
    pre = h @ model.weights[-1].T + model.biases[-1]
    norms = norms_along(pre)
    if (norms < 1e-12).any():
        raise ValueError("degenerate embedding: pre-normalization output is ~0")
    z = pre / norms[:, None]
    return acts, pre, norms, z


def encoder_forward(model: EncoderClassifier, x) -> np.ndarray:
    """Unit-norm feature for one input vector (or rows of a batch)."""
    xv = np.asarray(x, dtype=np.float64)
    single = xv.ndim == 1
    xb = xv[None, :] if single else xv
    if xb.shape[-1] != model.input_dim:
        raise ValueError(f"input dim {xb.shape[-1]} != model input {model.input_dim}")
    _, _, _, z = _forward_batch(model, xb)
    return z[0] if single else z


def classifier_logits(model: EncoderClassifier, z) -> np.ndarray:
    """Linear head logits for a feature vector or rows of features."""
    zv = np.asarray(z, dtype=np.float64)
    if zv.shape[-1] != model.feature_dim:
        raise ValueError(f"feature dim {zv.shape[-1]} != model feature {model.feature_dim}")
    return zv @ model.clf_w.T + model.clf_b


def _views(flat: np.ndarray, like) -> list:
    # consecutive slices of ``flat`` shaped like the arrays in ``like``
    views, start = [], 0
    for a in like:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return views


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


@dataclass
class TrainConfig:
    """Training-loop knobs. ``method`` selects the objective: the combined
    one, outlier-exposed cross entropy, or plain cross entropy."""

    epochs: int = 30
    batch_size: int = 128
    ood_batch_size: int = 128
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    sgd_momentum: float = 0.9
    seed: int = SynthConfig.seed
    hyper: losses.PattHyper = field(default_factory=losses.PattHyper)
    vmf_momentum: float = 0.9
    vmf_update: str = "batch"
    encoder_widths: tuple = (64, 64)
    # the embedding sphere of the model is the sphere of the synthetic data
    feature_dim: int = SynthConfig.feature_dim
    method: str = "patt"
    oe_gamma: float = 0.5
    ood_seed: int | None = None

    def __post_init__(self) -> None:
        widths = self.encoder_widths
        check_fields(vars(self), (
            ("epochs", self.epochs >= 0, ">= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("ood_batch_size", self.ood_batch_size >= 1, ">= 1"),
            ("learning_rate", self.learning_rate >= 0.0, ">= 0"),
            ("optimizer", self.optimizer in ("adam", "sgd"), "adam or sgd"),
            ("seed", self.seed >= 0, ">= 0"),
            ("vmf_momentum", 0.0 <= self.vmf_momentum < 1.0, "in [0, 1)"),
            ("vmf_update", self.vmf_update in ("batch", "epoch"), "batch or epoch"),
            ("encoder_widths", len(widths) > 0 and min(widths) >= 1, "non-empty, each width >= 1"),
            ("feature_dim", self.feature_dim >= 2, ">= 2"),
            ("method", self.method in METHODS, "one of " + ", ".join(METHODS)),
        ))


@dataclass
class LossBreakdown:
    """Mean per-term values of one batch objective. For the baselines the
    ``tla`` slot holds the plain cross-entropy term and ``isac`` is 0."""

    total: float
    isac: float
    tla: float
    oe: float


def batch_loss_and_grads(
    model: EncoderClassifier,
    mix: VmfMixture | None,
    id_x: np.ndarray,
    id_y: np.ndarray,
    ood_x,
    hyper: losses.PattHyper,
    priors: np.ndarray,
    method: str = TrainConfig.method,
    oe_gamma: float = TrainConfig.oe_gamma,
    forward=None,
    flat_grad=None,
):
    """Mean batch objective and its exact parameter gradients.

    The mixture statistics are constants here; differentiation covers the
    encoder (through the unit-norm projection) and the classifier head for
    both the labeled and the outlier stream. ``forward`` may carry the
    labeled batch's encoder pass (``_forward_batch(model, id_x)``) when the
    caller already ran it. The gradients are returned as one array per
    parameter in ``param_list`` order, each a view into one flat vector:
    ``flat_grad`` when the caller passes a zero vector of the parameter
    count, otherwise a new one.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    n = id_x.shape[0]
    if n == 0:
        raise ValueError("empty labeled batch")
    params = model.param_list()
    if flat_grad is None:
        flat_grad = np.zeros(sum(p.size for p in params))
    grads = _views(flat_grad, params)

    acts, _, norms, z = _forward_batch(model, id_x) if forward is None else forward
    logits = z @ model.clf_w.T + model.clf_b

    if method == "patt":
        if mix is None:
            raise ValueError("patt objective requires mixture statistics")
        isac_vals, isac_grads = losses.isac_loss_batch(mix, z, id_y, hyper.tau)
        tla_vals, tla_grads = losses.tla_loss_batch(logits, id_y, priors, hyper.epsilon)
        d_z = isac_grads / n
        d_logits = hyper.alpha * tla_grads / n
        isac_mean = float(np.add.reduce(isac_vals)) / n
        cls_mean = float(np.add.reduce(tla_vals)) / n
        ood_weight = hyper.beta
    else:
        # plain cross entropy == adjustment under uniform priors
        uniform = np.full(model.n_classes, 1.0 / model.n_classes)
        ce_vals, ce_grads = losses.tla_loss_batch(logits, id_y, uniform, 1.0)
        d_z = np.zeros_like(z)
        d_logits = ce_grads / n
        isac_mean, cls_mean = 0.0, float(np.add.reduce(ce_vals)) / n
        ood_weight = oe_gamma if method == "oe-baseline" else 0.0
    _backprop_stream(model, acts, norms, z, d_z, d_logits, grads)

    oe_mean = 0.0
    if ood_weight > 0.0 and ood_x is not None and ood_x.shape[0] > 0:
        m = ood_x.shape[0]
        acts_o, _, norms_o, z_o = _forward_batch(model, ood_x)
        logits_o = z_o @ model.clf_w.T + model.clf_b
        oe_vals, oe_grads = losses.oe_uniform_loss_batch(logits_o)
        oe_mean = float(np.add.reduce(oe_vals)) / m
        _backprop_stream(model, acts_o, norms_o, z_o, None, ood_weight * oe_grads / m, grads)

    if method == "patt":
        total = isac_mean + hyper.alpha * cls_mean + hyper.beta * oe_mean
    else:
        total = cls_mean + ood_weight * oe_mean
    return LossBreakdown(total=total, isac=isac_mean, tla=cls_mean, oe=oe_mean), grads


@dataclass
class _AdamState:
    """First and second moments, flat in ``param_list`` order."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


@dataclass
class _SgdState:
    """Momentum buffer, flat in ``param_list`` order."""

    velocity: np.ndarray


@dataclass
class TrainState:
    """One optimization step's full context: parameters, mixture statistics,
    optimizer state and static configuration."""

    model: EncoderClassifier
    mix: VmfMixture | None
    config: TrainConfig
    priors: np.ndarray
    opt: object = None

    def __post_init__(self) -> None:
        if self.opt is None:
            size = sum(p.size for p in self.model.param_list())
            if self.config.optimizer == "adam":
                self.opt = _AdamState(m=np.zeros(size), v=np.zeros(size))
            else:
                self.opt = _SgdState(velocity=np.zeros(size))


def _flatten(arrays) -> np.ndarray:
    # one vector holding the arrays in order (a copy)
    return np.concatenate([a.ravel() for a in arrays])


def _apply_update(model, flat_grad, config, opt):
    """One optimizer step over the flat parameter vector.

    ``flat_grad`` holds the gradients in ``param_list`` order. Returns the new
    model, whose arrays are views into a fresh parameter vector (``model`` is
    left untouched), and the new optimizer state.
    """
    current = model.param_list()
    params = _flatten(current)
    lr = config.learning_rate
    if isinstance(opt, _AdamState):
        b1, b2, eps = 0.9, 0.999, 1e-8
        t = opt.t + 1
        m = b1 * opt.m + (1.0 - b1) * flat_grad
        v = b2 * opt.v + (1.0 - b2) * flat_grad * flat_grad
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        params -= lr * m_hat / (np.sqrt(v_hat) + eps)
        new_opt = _AdamState(m=m, v=v, t=t)
    else:
        vel = config.sgd_momentum * opt.velocity + flat_grad
        params -= lr * vel
        new_opt = _SgdState(velocity=vel)
    views = _views(params, current)
    n_layers = len(model.weights)
    new_model = EncoderClassifier(
        weights=views[0:2 * n_layers:2],
        biases=views[1:2 * n_layers:2],
        clf_w=views[2 * n_layers],
        clf_b=views[2 * n_layers + 1],
    )
    return new_model, new_opt


def train_step(state: TrainState, id_batch, ood_batch, hyper: losses.PattHyper):
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
            forward = _forward_batch(state.model, id_x)
            mix = estimate_class_stats(
                forward[3], id_y, previous=mix, momentum=config.vmf_momentum
            )
        if mix is None:
            raise ValueError("patt training requires initialized mixture statistics")

    # batch_loss_and_grads accumulates every parameter's gradient into a
    # view of this one vector
    flat_grad = np.zeros(sum(p.size for p in state.model.param_list()))
    breakdown, _ = batch_loss_and_grads(
        state.model, mix, id_x, id_y, ood_x, hyper, state.priors,
        method=config.method, oe_gamma=config.oe_gamma, forward=forward,
        flat_grad=flat_grad,
    )
    for name, val in (("isac", breakdown.isac), ("tla", breakdown.tla), ("oe", breakdown.oe)):
        if not math.isfinite(val):
            raise RuntimeError(f"non-finite loss term: {name} = {val}")
    if not np.isfinite(flat_grad).all():
        raise RuntimeError("non-finite gradient in parameter update")

    new_model, new_opt = _apply_update(state.model, flat_grad, config, state.opt)
    new_state = replace(state, model=new_model, mix=mix, opt=new_opt)
    return new_state, breakdown


@dataclass
class EpochRecord:
    epoch: int
    total: float
    isac: float
    tla: float
    oe: float
    val_acc: float


@dataclass
class TrainHistory:
    """Per-epoch mean loss terms plus validation accuracy."""

    records: list = field(default_factory=list)


def _validation_accuracy(model, val_x, val_y) -> float:
    z = encoder_forward(model, val_x)
    pred = np.argmax(classifier_logits(model, z), axis=-1)
    return float(np.mean(pred == val_y))


def _full_stats(model, train_x, train_y, class_counts) -> VmfMixture:
    z = encoder_forward(model, train_x)
    return estimate_class_stats(z, train_y, momentum=0.0, class_counts=class_counts)


def train(config: TrainConfig, train_id, train_ood, val_id):
    """Full training run; returns (model, mixture statistics, history).

    Sub-seeds for init, labeled shuffling and the outlier stream are derived
    from the config seed by role, so two runs with the same seed are
    bit-identical and the outlier stream can be reseeded independently.
    """
    x, y = np.asarray(train_id.inputs, dtype=np.float64), np.asarray(train_id.labels)
    counts = np.asarray(train_id.class_counts, dtype=np.float64)
    if counts.size < 2:
        raise ValueError("training needs at least two classes")
    if np.any(counts <= 0):
        raise ValueError("every class needs at least one training sample")
    priors = counts / counts.sum()
    hyper = config.hyper

    model = EncoderClassifier.init(
        x.shape[1], config.encoder_widths, config.feature_dim,
        counts.size, derive_seed(config.seed, "model-init"),
    )
    history = TrainHistory()
    if config.epochs == 0:
        return model, _full_stats(model, x, y, counts), history

    ood_x = None
    if train_ood is not None and train_ood.inputs.shape[0] > 0:
        ood_x = np.asarray(train_ood.inputs, dtype=np.float64)

    state = TrainState(model=model, mix=None, config=config, priors=priors)
    if config.method == "patt":
        state.mix = _full_stats(model, x, y, counts)

    shuffle_rng = np.random.default_rng(derive_seed(config.seed, "id-shuffle"))
    ood_seed = config.ood_seed if config.ood_seed is not None else derive_seed(config.seed, "ood-shuffle")
    ood_rng = np.random.default_rng(ood_seed)
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
            state, breakdown = train_step(state, (x[idx], y[idx]), ood_batch, hyper)
            sums += (breakdown.total, breakdown.isac, breakdown.tla, breakdown.oe)
            steps += 1
        val_acc = _validation_accuracy(state.model, val_id.inputs, val_id.labels)
        means = sums / steps
        history.records.append(EpochRecord(
            epoch=epoch, total=float(means[0]), isac=float(means[1]),
            tla=float(means[2]), oe=float(means[3]), val_acc=val_acc,
        ))

    mix = state.mix if state.mix is not None else _full_stats(state.model, x, y, counts)
    return state.model, mix, history


def save_checkpoint(path, model: EncoderClassifier, mix: VmfMixture) -> None:
    """Binary checkpoint: magic, layer sizes, class count, then all parameters
    and per-class statistics as little-endian float64.

    Layout after the 5-byte magic: uint32 L (number of layer sizes), L uint32
    sizes (input, hidden..., feature), uint32 K; float64 blocks: per layer W
    row-major then bias, classifier W then bias, then per class mu, kappa,
    prior.
    """
    if mix.n_classes != model.n_classes or mix.dim != model.feature_dim:
        raise ValueError("mixture does not match the model's head")
    sizes = model.layer_sizes
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", len(sizes))]
    parts.append(struct.pack(f"<{len(sizes)}I", *sizes))
    parts.append(struct.pack("<I", model.n_classes))
    for arr in model.param_list():
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    # one row per class: mu, kappa, prior
    stats = np.column_stack([mix.mus, mix.kappas, mix.priors])
    parts.append(np.ascontiguousarray(stats, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path):
    """Inverse of ``save_checkpoint``; returns (model, mixture)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic)")
    off = len(CHECKPOINT_MAGIC)

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(blob):
            raise ValueError(f"{path}: truncated checkpoint")
        vals = struct.unpack_from(fmt, blob, off)
        off += size
        return vals

    (n_sizes,) = take("<I")
    if n_sizes < 2:
        raise ValueError(f"{path}: invalid layer count {n_sizes}")
    sizes = list(take(f"<{n_sizes}I"))
    (k,) = take("<I")

    def take_f64(count, shape):
        nonlocal off
        size = 8 * count
        if off + size > len(blob):
            raise ValueError(f"{path}: truncated checkpoint")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off).reshape(shape)
        off += size
        return arr.astype(np.float64)

    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(take_f64(fan_out * fan_in, (fan_out, fan_in)))
        biases.append(take_f64(fan_out, (fan_out,)))
    dim = sizes[-1]
    clf_w = take_f64(k * dim, (k, dim))
    clf_b = take_f64(k, (k,))
    stats = take_f64(k * (dim + 2), (k, dim + 2))
    if off != len(blob):
        raise ValueError(f"{path}: trailing bytes in checkpoint")
    model = EncoderClassifier(weights=weights, biases=biases, clf_w=clf_w, clf_b=clf_b)
    mix = VmfMixture(mus=stats[:, :dim], kappas=stats[:, dim], priors=stats[:, dim + 1])
    return model, mix
