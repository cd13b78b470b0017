"""The config schema: the classes whose annotated defaults are the config
keys, the range check they share and the class count profile that ties two
keys together, in plain Python so that checking a config costs no numpy
import. The classes are plain: defining them generates no code at import.
"""

import math

METHODS = ("patt", "oe-baseline", "ce-baseline")

# default share of classes counted as tail
TAIL_FRACTION = 1.0 / 3.0


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


def config_fields(cls) -> list:
    """``(name, default)`` of each field of a config class, in declaration
    order: its annotated class attributes."""
    return [(name, getattr(cls, name)) for name in cls.__annotations__]


class _Config:
    """Keyword-only init of the config classes: each field starts at its
    class default, a config-class default (``TrainConfig.hyper``) gives each
    instance its own copy, an unknown keyword is a ``TypeError``, and then
    the class's ``_check`` runs."""

    def __init__(self, **values) -> None:
        cls = type(self)
        for name, default in config_fields(cls):
            if name not in values and isinstance(default, type):
                default = default()
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
        class_counts_profile(self.n_classes, self.imbalance_ratio, self.max_per_class,
                             tail_only=True)

    @property
    def raw_dim(self) -> int:
        if self.features_direct:
            return self.feature_dim
        return 2 * self.feature_dim if self.input_dim is None else int(self.input_dim)


class PattHyper(_Config):
    """Weights of the combined objective: contrastive temperature ``tau``,
    adjustment sharpening ``epsilon``, and the mixing coefficients ``alpha``
    (tail-adjusted classification) and ``beta`` (outlier exposure)."""

    tau: float = 0.1
    epsilon: float = 0.7
    alpha: float = 0.5
    beta: float = 0.1

    def _check(self) -> None:
        check_fields(vars(self), (
            ("tau", self.tau > 0.0, "> 0"),
            ("epsilon", self.epsilon > 0.0, "> 0"),
            ("alpha", self.alpha >= 0.0, ">= 0"),
            ("beta", self.beta >= 0.0, ">= 0"),
        ))


class TrainConfig(_Config):
    """Training-loop knobs. ``method`` selects the objective: the combined
    one, outlier-exposed cross entropy, or plain cross entropy."""

    epochs: int = 30
    batch_size: int = 128
    ood_batch_size: int = 128
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    sgd_momentum: float = 0.9
    seed: int = SynthConfig.seed
    hyper: PattHyper = PattHyper  # a class default: each instance gets its own
    vmf_momentum: float = 0.9
    vmf_update: str = "batch"
    encoder_widths: tuple = (64, 64)
    # the embedding sphere of the model is the sphere of the synthetic data
    feature_dim: int = SynthConfig.feature_dim
    method: str = "patt"
    oe_gamma: float = 0.5

    def _check(self) -> None:
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
