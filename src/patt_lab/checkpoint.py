"""The ``model.ckpt`` layout, its writer and its checked reader, in plain
Python so that the ``report`` stage reads the priors without numpy.

After the 5-byte magic: uint32 L (number of layer sizes), L uint32 sizes
(input, hidden..., feature), uint32 K; then little-endian float64 blocks: the
model's parameters in ``param_shapes`` order (per layer W row-major then
bias, classifier W then bias), which is the model's one parameter vector,
then per class mu, kappa, prior.
"""

import math
import struct

MAGIC = b"PATT1"


def write(path, sizes, n_classes: int, data: bytes) -> None:
    """Write the header, then ``data``: the float64 blocks in file order."""
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack(f"<I{len(sizes)}II", len(sizes), *sizes, n_classes) + data)


def param_shapes(sizes, n_classes: int) -> list:
    """Shapes of the model's float64 blocks in file order: per layer W
    (fan_out, fan_in) then its bias, then the classifier W and bias."""
    return [s for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
            for s in ((fan_out, fan_in), (fan_out,))] + [(n_classes, sizes[-1]), (n_classes,)]


def _check_stats(k: int, dim: int, stats: tuple) -> None:
    # the checks of vmf.check_mixture, each written so that NaN fails it
    rows = [stats[i : i + dim + 2] for i in range(0, len(stats), dim + 2)]
    if (k >= 1 and dim >= 2
            and all(math.isfinite(r[dim]) and r[dim] >= 0.0 for r in rows)
            and all(abs(math.hypot(*r[:dim]) - 1.0) <= 1e-9 for r in rows)
            and all(r[dim + 1] > 0.0 for r in rows)
            and abs(sum(r[dim + 1] for r in rows) - 1.0) <= 1e-9):
        return
    # only a bad file pays for numpy: check_mixture words the failed check,
    # quoting the values as numpy prints them
    import numpy as np
    from .vmf import check_mixture
    a = np.array(stats).reshape(k, dim + 2)
    with np.errstate(all="ignore"):
        check_mixture(a[:, :dim], a[:, dim], a[:, dim + 1])
    raise ValueError("class statistics within rounding of a mixture tolerance")


def read(path):
    """``(sizes, n_classes, payload, priors)``: the layer sizes, the class
    count, the checked little-endian float64 bytes of every block in file
    order (the ``param_shapes`` blocks, then one ``dim + 2`` row per class),
    and the class priors.
    Raises ``ValueError`` for a bad magic, layer count or length, a failed
    ``vmf.check_mixture`` check or a non-finite parameter."""
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
    dim = sizes[-1]
    n_params = sum(math.prod(s) for s in param_shapes(sizes, k))
    total = n_params + k * (dim + 2)
    if off + 8 * total > len(blob):
        raise ValueError(f"{path}: truncated checkpoint")
    if off + 8 * total < len(blob):
        raise ValueError(f"{path}: trailing bytes in checkpoint")
    values = struct.unpack_from(f"<{total}d", blob, off)
    stats = values[n_params:]
    _check_stats(k, dim, stats)
    if not all(map(math.isfinite, values[:n_params])):
        raise ValueError(f"{path}: non-finite parameter in checkpoint")
    return sizes, k, blob[off:], stats[dim + 1 :: dim + 2]
