"""The config schema: the two classes whose annotated defaults are the config
keys, the range check they share and the class count profile that ties two
keys together, in plain Python so that checking a config costs no numpy
import. The classes are plain: defining them generates no code at import.
"""

import math

METHODS = ("patt", "oe-baseline", "ce-baseline")

# default share of classes counted as tail
TAIL_FRACTION = 1.0 / 3.0

# how far from 1 the norm of a vMF mean direction may be, in a checkpoint's
# class rows and in the sampler, and the sum of a checkpoint's priors
MU_NORM_TOL = 1e-9
PRIOR_SUM_TOL = 1e-9


def check_fields(values: dict, checks) -> None:
    """Raise ``ValueError`` for the first failed check of ``checks``, a
    sequence of ``(name, passed, wanted)`` triples; the message names the
    field and gives its value from ``values``. A check is written so that
    NaN fails it."""
    for name, passed, wanted in checks:
        if not passed:
            raise ValueError(f"{name} must be {wanted}, got {values[name]!r}")


def class_counts_profile(n_classes: int, imbalance_ratio: float, max_per_class: int,
                         tail_only: bool = False) -> list:
    """Exponentially decaying per-class counts, head count down to
    head/ratio, rounded half-up (with ``tail_only``, the last class's count
    alone, all that a config check needs); refuses profiles whose smallest
    class would be empty, naming the two keys that set it."""
    check_fields(locals(), (
        ("n_classes", n_classes >= 2, ">= 2"),
        ("imbalance_ratio", imbalance_ratio >= 1.0, ">= 1"),
    ))
    classes = [n_classes - 1] if tail_only else range(n_classes)
    counts = [int(math.floor(max_per_class * imbalance_ratio ** (-y / (n_classes - 1)) + 0.5))
              for y in classes]
    if counts[-1] < 1:
        raise ValueError(f"imbalance_ratio = {imbalance_ratio!r} with max_per_class = "
                         f"{max_per_class} empties the tail: class {n_classes - 1} gets no rows")
    return counts


def wood_envelope(kappa: float, dim: int) -> tuple:
    """``(b, x0)`` of Wood's vMF rejection sampler at concentration ``kappa``
    in R^dim; it takes log1p(-x0^2), so it cannot run where x0 rounds to 1."""
    # stable form of (-2 kappa + sqrt(4 kappa^2 + (d-1)^2)) / (d - 1)
    b = (dim - 1.0) / (math.sqrt(4.0 * kappa * kappa + (dim - 1.0) ** 2) + 2.0 * kappa)
    return b, (1.0 - b) / (1.0 + b)


def direction_error(key: str, count: int, placed: int, max_dot: float, dim: int) -> ValueError:
    # the error for ``count`` directions, set by config key ``key``, that
    # cannot be placed beside ``placed`` earlier ones
    beside = f" beside {placed} others" if placed else ""
    return ValueError(f"could not place {key} = {count} directions{beside} "
                      f"with max_direction_dot = {max_dot} in feature_dim = {dim}")


def config_fields(cls) -> list:
    """``(name, default)`` of each field of a config class, in declaration
    order: its annotated class attributes."""
    return [(name, getattr(cls, name)) for name in cls.__annotations__]


class _Config:
    """Keyword-only init of the config classes: each field starts at its
    class default, an unknown keyword is a ``TypeError``, and then the
    class's ``_check`` runs."""

    def __init__(self, **values) -> None:
        cls = type(self)
        for name, default in config_fields(cls):
            setattr(self, name, values.pop(name, default))
        if values:
            raise TypeError(f"{cls.__name__}.__init__() got an unexpected keyword argument "
                            f"{next(iter(values))!r}")
        self._check()


class SynthConfig(_Config):
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

    def _check(self) -> None:
        check_fields(vars(self), (
            ("n_classes", self.n_classes >= 2, ">= 2"),
            # numpy indexes with int64, and the checks below take it as a float
            ("feature_dim", 2 <= self.feature_dim < 2**63, ">= 2 and < 2**63"),
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
        class_counts_profile(self.n_classes, self.imbalance_ratio, self.max_per_class,
                             tail_only=True)
        dim, dot = self.feature_dim, self.max_direction_dot
        check_fields(vars(self), ((key, wood_envelope(getattr(self, key), dim)[1] < 1.0,
                                   f"small enough to sample in feature_dim = {dim}")
                                  for key in ("within_kappa", "ood_kappa")))
        # Cap packing: each direction owns a disjoint cap of angular radius
        # h = acos(max_direction_dot) / 2, whose area is at least that of the
        # (dim - 1)-ball of radius sin(h), so the sphere holds fewer than
        # 2 sqrt(pi) Gamma((dim + 1) / 2) / Gamma(dim / 2) / sin(h)^(dim - 1)
        # of them. The class directions are placed first, then each outlier set.
        log_most = (math.log(2.0 * math.sqrt(math.pi)) + math.lgamma(0.5 * (dim + 1))
                    - math.lgamma(0.5 * dim) - (dim - 1) * math.log(math.sin(0.5 * math.acos(dot))))
        placed = 0
        for key in ("n_classes", "ood_train_clusters", "ood_test_clusters"):
            count = getattr(self, key)
            if math.log(placed + count) > log_most:
                raise direction_error(key, count, placed, dot, dim)
            placed += count

    @property
    def raw_dim(self) -> int:
        if self.features_direct:
            return self.feature_dim
        return 2 * self.feature_dim if self.input_dim is None else int(self.input_dim)


class TrainConfig(_Config):
    """Training-loop knobs and the objective's weights. ``method`` selects
    the objective: the combined one (contrastive temperature ``tau``, logit
    temperature ``epsilon`` of the prior adjustment, which raises the priors
    to ``epsilon``, weights ``alpha`` of tail-adjusted classification and
    ``beta`` of outlier exposure), outlier-exposed cross entropy (weight
    ``oe_gamma``), or plain cross entropy."""

    epochs: int = 30
    batch_size: int = 128
    ood_batch_size: int = 128
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    sgd_momentum: float = 0.9
    seed: int = SynthConfig.seed
    vmf_momentum: float = 0.9
    vmf_update: str = "batch"
    encoder_widths: tuple = (64, 64)
    # the embedding sphere of the model is the sphere of the synthetic data
    feature_dim: int = SynthConfig.feature_dim
    method: str = "patt"
    oe_gamma: float = 0.5
    tau: float = 0.1
    epsilon: float = 0.7
    alpha: float = 0.5
    beta: float = 0.1

    def _check(self) -> None:
        widths = self.encoder_widths
        check_fields(vars(self), (
            ("tau", self.tau > 0.0, "> 0"),
            ("epsilon", self.epsilon > 0.0, "> 0"),
            ("alpha", self.alpha >= 0.0, ">= 0"),
            ("beta", self.beta >= 0.0, ">= 0"),
            ("epochs", self.epochs >= 0, ">= 0"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("ood_batch_size", self.ood_batch_size >= 1, ">= 1"),
            ("learning_rate", self.learning_rate >= 0.0, ">= 0"),
            ("optimizer", self.optimizer in ("adam", "sgd"), "adam or sgd"),
            ("sgd_momentum", 0.0 <= self.sgd_momentum < 1.0, "in [0, 1)"),
            ("seed", self.seed >= 0, ">= 0"),
            ("vmf_momentum", 0.0 <= self.vmf_momentum < 1.0, "in [0, 1)"),
            ("vmf_update", self.vmf_update in ("batch", "epoch"), "batch or epoch"),
            ("encoder_widths", len(widths) > 0 and min(widths) >= 1, "non-empty, each width >= 1"),
            ("feature_dim", self.feature_dim >= 2, ">= 2"),
            ("method", self.method in METHODS, "one of " + ", ".join(METHODS)),
            ("oe_gamma", self.oe_gamma >= 0.0, ">= 0"),
        ))
