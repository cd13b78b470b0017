"""The ``model.ckpt`` layout, its writer and its checked reader, in plain Python.

After the 5-byte magic: uint32 L (number of layer sizes), L uint32 sizes
(input, hidden..., feature), uint32 K; then little-endian float64 blocks: the
model's parameters in ``param_shapes`` order (per layer W row-major then
bias, classifier W then bias), which is the model's one parameter vector,
then per class mu, kappa, prior.
"""

import math
import struct

from .config import MU_NORM_TOL, PRIOR_SUM_TOL

MAGIC = b"PATT1"


def write(path, sizes, n_classes: int, params: bytes, stats) -> None:
    """Write the header, ``params`` (the model's float64 blocks in file
    order) and the class rows ``stats``, once ``check_stats`` passes them."""
    check_stats(n_classes, sizes[-1], stats)
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack(f"<I{len(sizes)}II", len(sizes), *sizes, n_classes)
                 + params + struct.pack(f"<{len(stats)}d", *stats))


def param_shapes(sizes, n_classes: int) -> list:
    """Shapes of the model's float64 blocks in file order: per layer W
    (fan_out, fan_in) then its bias, then the classifier W and bias."""
    return [s for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
            for s in ((fan_out, fan_in), (fan_out,))] + [(n_classes, sizes[-1]), (n_classes,)]


def check_stats(k: int, dim: int, stats) -> None:
    """Check the ``k`` class rows of ``stats``, a flat sequence of ``dim + 2``
    floats per class (mu, kappa, prior): dim >= 2, finite non-negative
    kappa, unit-norm mu and positive priors that sum to 1. Raises
    ``ValueError`` naming the first failed check and its class."""
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


def read(path):
    """``(sizes, n_classes, payload)``: the layer sizes, the class count and
    the checked little-endian float64 bytes of every block in file order
    (the ``param_shapes`` blocks, then one ``dim + 2`` row per class).
    Raises ``ValueError`` for a bad magic, layer count, layer size or
    length, a failed ``check_stats`` check or a non-finite parameter."""
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
    n_params = sum(math.prod(s) for s in param_shapes(sizes, k))
    total = n_params + k * (dim + 2)
    if off + 8 * total > len(blob):
        raise ValueError(f"{path}: truncated checkpoint")
    if off + 8 * total < len(blob):
        raise ValueError(f"{path}: trailing bytes in checkpoint")
    values = struct.unpack_from(f"<{total}d", blob, off)
    check_stats(k, dim, values[n_params:])
    if not all(map(math.isfinite, values[:n_params])):
        raise ValueError(f"{path}: non-finite parameter in checkpoint")
    return sizes, k, blob[off:]
