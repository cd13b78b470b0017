"""Synthetic long-tailed benchmark data and the CSV interchange format.

Classes live on the unit sphere as vMF clusters with an exponentially
decaying count profile; outlier clusters for training exposure and for the
final evaluation use separated direction sets. Inputs are either the sphere
features themselves or their image under a fixed seeded affine map into a
higher-dimensional raw space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .util import check_fields, derive_seed
from .vmf import VmfParams, sample_vmf

__all__ = [
    "OOD_LABEL",
    "LabeledSet",
    "SynthConfig",
    "class_counts_profile",
    "gen_longtail",
    "save_features_csv",
    "load_features_csv",
    "class_balanced_subset",
    "save_manifest",
]

OOD_LABEL = -1


@dataclass
class LabeledSet:
    """Rows of inputs with integer labels (-1 marks outliers) and the
    per-class count vector of the split."""

    inputs: np.ndarray
    labels: np.ndarray
    class_counts: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.class_counts = np.asarray(self.class_counts, dtype=np.int64)
        self.dim = int(self.dim)
        if self.inputs.ndim != 2 or self.inputs.shape[1] != self.dim:
            raise ValueError(f"inputs must be (n, {self.dim})")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ValueError("one label per row required")
        if np.any(self.labels < OOD_LABEL):
            raise ValueError("labels must be >= -1")

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @classmethod
    def from_rows(cls, inputs, labels, n_classes: int | None = None):
        labels = np.asarray(labels, dtype=np.int64)
        inputs = np.asarray(inputs, dtype=np.float64)
        known = labels[labels >= 0]
        if n_classes is None:
            n_classes = int(known.max()) + 1 if known.size else 0
        counts = np.bincount(known, minlength=n_classes) if n_classes else np.zeros(0, np.int64)
        return cls(inputs=inputs, labels=labels, class_counts=counts, dim=inputs.shape[1])


@dataclass
class SynthConfig:
    """Geometry and sizes of one synthetic benchmark draw."""

    n_classes: int = 10
    feature_dim: int = 8
    imbalance_ratio: float = 100.0
    max_per_class: int = 500
    within_kappa: float = 80.0
    ood_kappa: float = 20.0
    val_per_class: int = 20
    test_per_class: int = 40
    ood_train_clusters: int = 2
    ood_test_clusters: int = 3
    ood_train_size: int = 600
    ood_test_size: int = 400
    max_direction_dot: float = 0.9
    features_direct: bool = False
    input_dim: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(vars(self), (
            ("n_classes", self.n_classes >= 2, ">= 2"),
            ("feature_dim", self.feature_dim >= 2, ">= 2"),
            ("imbalance_ratio", self.imbalance_ratio >= 1.0, ">= 1"),
            ("max_per_class", self.max_per_class >= 1, ">= 1"),
            ("within_kappa", self.within_kappa > 0.0, "> 0"),
            ("ood_kappa", self.ood_kappa > 0.0, "> 0"),
            ("val_per_class", self.val_per_class >= 1, ">= 1"),
            ("test_per_class", self.test_per_class >= 1, ">= 1"),
            ("ood_train_clusters", self.ood_train_clusters >= 1, ">= 1"),
            ("ood_test_clusters", self.ood_test_clusters >= 1, ">= 1"),
            ("ood_train_size", self.ood_train_size >= 0, ">= 0"),
            ("ood_test_size", self.ood_test_size >= 1, ">= 1"),
            ("max_direction_dot", 0.0 < self.max_direction_dot < 1.0, "in (0, 1)"),
            ("input_dim", self.input_dim is None or self.input_dim >= 1, ">= 1 when set"),
            ("seed", self.seed >= 0, ">= 0"),
        ))

    @property
    def raw_dim(self) -> int:
        if self.features_direct:
            return self.feature_dim
        return 2 * self.feature_dim if self.input_dim is None else int(self.input_dim)


def class_counts_profile(n_classes: int, imbalance_ratio: float, max_per_class: int) -> np.ndarray:
    """Exponentially decaying per-class counts, head count down to
    head/ratio, rounded half-up; refuses profiles whose smallest class
    would be empty."""
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if imbalance_ratio < 1.0:
        raise ValueError(f"imbalance ratio must be >= 1, got {imbalance_ratio}")
    counts = np.array([
        int(math.floor(max_per_class * imbalance_ratio ** (-y / (n_classes - 1)) + 0.5))
        for y in range(n_classes)
    ], dtype=np.int64)
    if counts[-1] < 1:
        raise ValueError(
            f"imbalance {imbalance_ratio} with head count {max_per_class} empties the tail"
        )
    return counts


def _spread_directions(rng, dim, existing, count, max_dot, max_tries=20000):
    # sequential rejection: each new direction must keep its dot product with
    # every previously accepted one below the bound
    out = []
    for _ in range(count):
        for _attempt in range(max_tries):
            v = rng.standard_normal(dim)
            norm = np.linalg.norm(v)
            if norm < 1e-12:
                continue
            v /= norm
            if all(float(v @ e) < max_dot for e in existing) and all(
                float(v @ e) < max_dot for e in out
            ):
                out.append(v)
                break
        else:
            raise ValueError(
                f"could not place {count} directions with dot < {max_dot} in dim {dim}"
            )
    return out


def _cluster_split(total: int, n_clusters: int) -> list:
    base, extra = divmod(total, n_clusters)
    return [base + (1 if c < extra else 0) for c in range(n_clusters)]


def _sample_clusters(dirs, kappa, sizes, dim, seed, role):
    parts = [
        sample_vmf(VmfParams(mu=mu, kappa=kappa, dim=dim), size, derive_seed(seed, f"{role}-{c}"))
        for c, (mu, size) in enumerate(zip(dirs, sizes))
        if size > 0
    ]
    return np.concatenate(parts) if parts else np.zeros((0, dim))


def gen_longtail(config: SynthConfig):
    """Generate the five benchmark splits.

    Returns (train, val_id, test_id, train_ood, test_ood). Validation and
    test are exactly class balanced; the outlier splits use disjoint cluster
    direction sets, with the evaluation outliers kept away from both the
    class directions and the exposure outliers.
    """
    d = config.feature_dim
    counts = class_counts_profile(config.n_classes, config.imbalance_ratio, config.max_per_class)
    dir_rng = np.random.default_rng(derive_seed(config.seed, "directions"))
    class_dirs = _spread_directions(dir_rng, d, [], config.n_classes, config.max_direction_dot)
    ood_train_dirs = _spread_directions(
        dir_rng, d, class_dirs, config.ood_train_clusters, config.max_direction_dot
    )
    ood_test_dirs = _spread_directions(
        dir_rng, d, class_dirs + ood_train_dirs, config.ood_test_clusters, config.max_direction_dot
    )

    def id_split(per_class, role):
        sizes = counts if per_class is None else [per_class] * config.n_classes
        features = _sample_clusters(class_dirs, config.within_kappa, sizes, d, config.seed, role)
        labels = np.repeat(np.arange(config.n_classes), sizes)
        return features, labels, np.asarray(sizes, dtype=np.int64)

    train_f, train_y, train_counts = id_split(None, "train")
    val_f, val_y, val_counts = id_split(config.val_per_class, "val")
    test_f, test_y, test_counts = id_split(config.test_per_class, "test")
    ood_train_f = _sample_clusters(
        ood_train_dirs, config.ood_kappa,
        _cluster_split(config.ood_train_size, config.ood_train_clusters), d, config.seed, "ood-train",
    )
    ood_test_f = _sample_clusters(
        ood_test_dirs, config.ood_kappa,
        _cluster_split(config.ood_test_size, config.ood_test_clusters), d, config.seed, "ood-test",
    )

    if config.features_direct:
        to_raw = lambda f: f
    else:
        map_rng = np.random.default_rng(derive_seed(config.seed, "affine"))
        mat = map_rng.standard_normal((config.raw_dim, d)) / math.sqrt(d)
        shift = 0.1 * map_rng.standard_normal(config.raw_dim)
        to_raw = lambda f: f @ mat.T + shift

    def pack(features, labels, split_counts):
        return LabeledSet(
            inputs=to_raw(features), labels=labels,
            class_counts=split_counts, dim=config.raw_dim,
        )

    zeros = np.zeros(config.n_classes, dtype=np.int64)
    return (
        pack(train_f, train_y, train_counts),
        pack(val_f, val_y, val_counts),
        pack(test_f, test_y, test_counts),
        pack(ood_train_f, np.full(ood_train_f.shape[0], OOD_LABEL), zeros),
        pack(ood_test_f, np.full(ood_test_f.shape[0], OOD_LABEL), zeros),
    )


def save_features_csv(dataset: LabeledSet, path) -> None:
    """Write ``id,label,f0..f{d-1}`` rows; floats keep full round-trip
    precision."""
    header = "id,label," + ",".join(f"f{i}" for i in range(dataset.dim))
    lines = [header]
    for i in range(dataset.n):
        row = ",".join(repr(float(v)) for v in dataset.inputs[i])
        lines.append(f"{i},{int(dataset.labels[i])},{row}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def load_features_csv(path, n_classes: int | None = None) -> LabeledSet:
    """Read a split written by ``save_features_csv``; malformed content, and
    with ``n_classes`` given a label outside [-1, n_classes), is rejected with
    the offending line number."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    cols = lines[0].split(",")
    if cols[:2] != ["id", "label"] or len(cols) < 3:
        raise ValueError(f"{path}: line 1: bad header {lines[0]!r}")
    dim = len(cols) - 2
    if cols[2:] != [f"f{i}" for i in range(dim)]:
        raise ValueError(f"{path}: line 1: bad feature columns")
    inputs = np.empty((len(lines) - 1, dim))
    labels = np.empty(len(lines) - 1, dtype=np.int64)
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != dim + 2:
            raise ValueError(f"{path}: line {ln}: expected {dim + 2} fields, got {len(parts)}")
        try:
            labels[ln - 2] = int(parts[1])
            inputs[ln - 2] = [float(v) for v in parts[2:]]
        except ValueError as exc:
            raise ValueError(f"{path}: line {ln}: {exc}") from None
        label = labels[ln - 2]
        if label < OOD_LABEL or (n_classes is not None and label >= n_classes):
            raise ValueError(f"{path}: line {ln}: label {label} out of range")
    if not np.all(np.isfinite(inputs)):
        raise ValueError(f"{path}: non-finite feature values")
    return LabeledSet.from_rows(inputs, labels, n_classes=n_classes)


def class_balanced_subset(dataset: LabeledSet, per_class: int, seed: int) -> LabeledSet:
    """Seeded draw of up to ``per_class`` rows from every class, without
    replacement; outlier rows are never included."""
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    n_classes = dataset.class_counts.size
    if n_classes < 1:
        raise ValueError("dataset has no labeled classes")
    rng = np.random.default_rng(int(seed))
    picks = []
    for y in range(n_classes):
        idx = np.flatnonzero(dataset.labels == y)
        if idx.size == 0:
            raise ValueError(f"class {y} has no samples to draw from")
        take = min(per_class, idx.size)
        picks.append(np.sort(rng.choice(idx, size=take, replace=False)))
    sel = np.concatenate(picks)
    return LabeledSet.from_rows(dataset.inputs[sel], dataset.labels[sel], n_classes=n_classes)


def save_manifest(path, config: SynthConfig, split_sizes: dict) -> None:
    """Plain-text record of the generating config and split row counts."""
    lines = [f"{f.name} = {getattr(config, f.name)}" for f in fields(config)]
    lines += [f"rows.{name} = {size}" for name, size in split_sizes.items()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
