"""Synthetic long-tailed benchmark data and the CSV interchange format.

Classes live on the unit sphere as vMF clusters with an exponentially
decaying count profile, drawn by a seeded rejection sampler (Wood's
algorithm); outlier clusters for training exposure and for the final
evaluation use separated direction sets. Inputs are either the sphere
features themselves or their image under a fixed seeded affine map into a
higher-dimensional raw space.

Each split is written as a CSV, the interchange format, and next to it a
binary sidecar ``<split>.csv.bin`` that holds the parsed arrays, keyed by the
CSV's byte length and CRC-32. The loader returns the sidecar's arrays when
the key matches the CSV's bytes and the arrays pass the loader's checks, and
parses the CSV otherwise; both give the same bits, since ``float(repr(x)) ==
x``.
"""

from __future__ import annotations

import array
import itertools
import math
import os
import stat
import struct
import zlib

import numpy as np

from .config import (MU_NORM_TOL, SynthConfig, class_counts_profile, config_fields,
                     direction_error, wood_envelope)
from .util import derive_seed

__all__ = [
    "OOD_LABEL",
    "LabeledSet",
    "SynthConfig",
    "class_counts_profile",
    "sample_vmf",
    "gen_longtail",
    "save_features_csv",
    "load_features_csv",
    "class_balanced_subset",
    "save_manifest",
]

OOD_LABEL = -1

# sidecar header: magic, then the CSV's byte length and CRC-32, n and d
_SIDECAR_MAGIC = b"PATTCSV1"
_SIDECAR_HEAD = struct.Struct("<8s4Q")
# rows joined per write of a split CSV: the peak stays a few rows' text
_ROWS_PER_WRITE = 64


class LabeledSet:
    """Rows of inputs with integer labels (-1 marks outliers) and the
    per-class row counts of the labels in [0, n_classes)."""

    def __init__(self, inputs, labels, n_classes: int) -> None:
        self.inputs = np.asarray(inputs, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise ValueError(f"inputs must be an (n, dim) matrix, got shape {self.inputs.shape}")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ValueError("one label per row required")
        if np.any(self.labels < OOD_LABEL):
            raise ValueError("labels must be >= -1")
        self.class_counts = np.bincount(self.labels[self.labels >= 0], minlength=n_classes)

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def _orthonormal_to(mu: np.ndarray) -> np.ndarray:
    # deterministic unit vector orthogonal to mu (fallback for the rare case
    # of a Gaussian draw collapsing onto the mean direction)
    basis = np.zeros_like(mu)
    basis[int(np.argmin(np.abs(mu)))] = 1.0
    v = basis - (basis @ mu) * mu
    return v / np.linalg.norm(v)


def sample_vmf(mu, kappa: float, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` unit vectors from the vMF law with unit mean direction
    ``mu`` (a vector of dim >= 2) and concentration ``kappa`` >= 0 by Wood's
    rejection algorithm, bit-deterministic for a fixed seed.

    Tangent-normal decomposition: the component along mu comes from rejection
    sampling of the longitudinal marginal with Beta proposals, the orthogonal
    part is uniform on the subsphere. kappa = 0 degrades to the uniform law
    (every proposal is accepted).
    """
    mu = np.asarray(mu, dtype=np.float64)
    kappa, n = float(kappa), int(n)
    # each test is written so that NaN fails it
    if mu.ndim != 1 or mu.size < 2:
        raise ValueError(f"mu must be a vector of dim >= 2, got shape {mu.shape}")
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise ValueError(f"kappa must be finite and non-negative, got {kappa}")
    norm = math.hypot(*mu.tolist())
    if not abs(norm - 1.0) <= MU_NORM_TOL:
        raise ValueError(f"mu must be unit norm, got ||mu|| = {norm!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(int(seed))
    d = mu.size

    b, x0 = wood_envelope(kappa, d)
    c = kappa * x0 + (d - 1.0) * math.log1p(-x0 * x0)

    ws = np.empty(n)
    filled = 0
    while filled < n:
        m = n - filled
        z = rng.beta(0.5 * (d - 1.0), 0.5 * (d - 1.0), size=m)
        u = rng.random(m)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        with np.errstate(divide="ignore"):
            accept = kappa * w + (d - 1.0) * np.log1p(-x0 * w) - c >= np.log(u)
        got = int(accept.sum())
        ws[filled : filled + got] = w[accept]
        filled += got

    v = rng.standard_normal((n, d))
    v -= np.outer(v @ mu, mu)
    norms = np.linalg.norm(v, axis=1)
    low = norms < 1e-12
    if low.any():
        v[low] = _orthonormal_to(mu)
        norms[low] = 1.0
    v /= norms[:, None]
    out = ws[:, None] * mu + np.sqrt(np.clip(1.0 - ws * ws, 0.0, None))[:, None] * v
    out /= np.linalg.norm(out, axis=1)[:, None]
    return out


# draws per direction before the seeded placement gives up
_PLACEMENT_TRIES = 20000


def _spread_directions(rng, placed, start, count, max_dot, key):
    # sequential rejection into rows start .. start + count - 1 of ``placed``:
    # a direction must keep its dot product with every earlier row below the
    # bound; ``key`` sets ``count``, whose cap-packing bound the config checked
    failure = direction_error(key, count, start, max_dot, placed.shape[1])
    for n in range(start, start + count):
        for _attempt in range(_PLACEMENT_TRIES):
            v = rng.standard_normal(placed.shape[1])
            norm = np.linalg.norm(v)
            if norm < 1e-12:
                continue
            v /= norm
            if (placed[:n] @ v < max_dot).all():
                placed[n] = v
                break
        else:
            raise failure


def _cluster_split(total: int, n_clusters: int) -> list:
    base, extra = divmod(total, n_clusters)
    return [base + (1 if c < extra else 0) for c in range(n_clusters)]


def _sample_clusters(dirs, kappa, sizes, dim, seed, role):
    parts = [
        sample_vmf(mu, kappa, size, derive_seed(seed, f"{role}-{c}"))
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
    dir_rng = np.random.default_rng(derive_seed(config.seed, "directions"))
    # the class directions first, then each outlier set beside all earlier ones
    keys = ("n_classes", "ood_train_clusters", "ood_test_clusters")
    bounds = list(itertools.accumulate((getattr(config, key) for key in keys), initial=0))
    dirs = np.empty((bounds[-1], d))
    for key, start, stop in zip(keys, bounds, bounds[1:]):
        _spread_directions(dir_rng, dirs, start, stop - start, config.max_direction_dot, key)
    class_dirs, ood_train_dirs, ood_test_dirs = np.split(dirs, bounds[1:3])
    counts = class_counts_profile(config.n_classes, config.imbalance_ratio, config.max_per_class)

    def id_split(per_class, role):
        sizes = counts if per_class is None else [per_class] * config.n_classes
        features = _sample_clusters(class_dirs, config.within_kappa, sizes, d, config.seed, role)
        labels = np.repeat(np.arange(config.n_classes), sizes)
        return features, labels

    train_f, train_y = id_split(None, "train")
    val_f, val_y = id_split(config.val_per_class, "val")
    test_f, test_y = id_split(config.test_per_class, "test")
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

    def pack(features, labels):
        return LabeledSet(to_raw(features), labels, config.n_classes)

    return (
        pack(train_f, train_y),
        pack(val_f, val_y),
        pack(test_f, test_y),
        pack(ood_train_f, np.full(ood_train_f.shape[0], OOD_LABEL)),
        pack(ood_test_f, np.full(ood_test_f.shape[0], OOD_LABEL)),
    )


def save_features_csv(dataset: LabeledSet, path) -> None:
    """Write ``id,label,f0..f{d-1}`` rows; floats keep full round-trip
    precision. Rows are written a few at a time as they are formatted, so no
    split is held as text. Then write the sidecar ``<path>.bin``: the split's
    arrays, keyed by the byte length and CRC-32 of the rows as written."""
    header = "id,label," + ",".join(f"f{i}" for i in range(dataset.dim)) + "\n"
    # Python floats for one row at a time: a whole-split tolist() peaks higher
    rows = (
        f"{i},{label},{','.join(map(repr, row.tolist()))}\n"
        for i, (label, row) in enumerate(zip(dataset.labels.tolist(), dataset.inputs))
    )
    lines = itertools.chain((header,), rows)
    size = crc = 0
    with open(path, "wb") as fh:
        # the key is taken from the bytes as they are written, with no read-back
        while chunk := "".join(itertools.islice(lines, _ROWS_PER_WRITE)).encode("ascii"):
            size += len(chunk)
            crc = zlib.crc32(chunk, crc)
            fh.write(chunk)
    # no copy when the arrays are already little-endian and contiguous
    labels = np.ascontiguousarray(dataset.labels, dtype="<i8")
    inputs = np.ascontiguousarray(dataset.inputs, dtype="<f8")
    with open(_sidecar_path(path), "wb") as fh:
        fh.write(_SIDECAR_HEAD.pack(_SIDECAR_MAGIC, size, crc, *inputs.shape))
        fh.write(memoryview(labels))
        fh.write(memoryview(inputs))


def _sidecar_path(path) -> str:
    return os.fspath(path) + ".bin"


def _load_sidecar(path, raw: bytes, n_classes: int):
    """The split held by the sidecar of the CSV whose bytes are ``raw``, or
    None (a miss) unless the sidecar is a regular file whose key matches
    ``raw``, whose shape agrees with the CSV's header and line count, and
    whose arrays pass the loader's checks."""
    side = _sidecar_path(path)
    try:
        st = os.stat(side)
    except OSError:
        return None
    end = raw.find(b"\n")
    cols = raw[:end].split(b",") if end >= 0 else []
    dim = len(cols) - 2
    if (dim < 1 or cols != [b"id", b"label"] + [b"f%d" % i for i in range(dim)]
            or not raw.endswith(b"\n")):
        return None
    n = raw.count(b"\n") - 1
    body = 8 * n * (dim + 1)
    if not stat.S_ISREG(st.st_mode) or st.st_size != _SIDECAR_HEAD.size + body:
        return None
    try:
        with open(side, "rb") as fh:
            key = _SIDECAR_HEAD.pack(_SIDECAR_MAGIC, len(raw), zlib.crc32(raw), n, dim)
            if fh.read(_SIDECAR_HEAD.size) != key:
                return None
            # a bytearray, so the arrays are writable like parsed ones
            blob = bytearray(body)
            if fh.readinto(blob) != body:
                return None
    except OSError:
        return None
    labels = np.frombuffer(blob, dtype="<i8", count=n)
    inputs = np.frombuffer(blob, dtype="<f8", offset=8 * n).reshape(n, dim)
    if n and not OOD_LABEL <= int(labels.min()) <= int(labels.max()) < n_classes:
        return None
    if not np.isfinite(inputs).all():
        return None
    return LabeledSet(inputs, labels, n_classes)


def load_features_csv(path, n_classes: int) -> LabeledSet:
    """Read a split written by ``save_features_csv``. Its sidecar's arrays
    are returned when they hit (see ``_load_sidecar``); they are the bits a
    parse gives. Otherwise the CSV is parsed as UTF-8: malformed content and
    a label outside [-1, n_classes) are rejected with the offending line
    number."""
    with open(path, "rb") as fh:
        raw = fh.read()
    hit = _load_sidecar(path, raw, n_classes)
    if hit is not None:
        return hit
    lines = raw.decode("utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    cols = lines[0].split(",")
    if cols[:2] != ["id", "label"] or len(cols) < 3:
        raise ValueError(f"{path}: line 1: bad header {lines[0]!r}")
    dim = len(cols) - 2
    if cols[2:] != [f"f{i}" for i in range(dim)]:
        raise ValueError(f"{path}: line 1: bad feature columns")
    # one C double per value, so no Python float outlives its line
    flat, labels = array.array("d"), []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != dim + 2:
            raise ValueError(f"{path}: line {ln}: expected {dim + 2} fields, got {len(parts)}")
        try:
            label = int(parts[1])
            flat.extend(map(float, parts[2:]))
        except ValueError as exc:
            raise ValueError(f"{path}: line {ln}: {exc}") from None
        if not OOD_LABEL <= label < n_classes:
            raise ValueError(f"{path}: line {ln}: label {label} out of range")
        labels.append(label)
    inputs = np.frombuffer(flat).reshape(len(labels), dim)
    if not np.all(np.isfinite(inputs)):
        raise ValueError(f"{path}: non-finite feature values")
    return LabeledSet(inputs, labels, n_classes)


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
    return LabeledSet(dataset.inputs[sel], dataset.labels[sel], n_classes)


def save_manifest(path, config: SynthConfig, split_sizes: dict) -> None:
    """Plain-text record of the generating config and split row counts."""
    lines = [f"{name} = {getattr(config, name)}" for name, _ in config_fields(type(config))]
    lines += [f"rows.{name} = {size}" for name, size in split_sizes.items()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
