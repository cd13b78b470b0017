"""The package's record classes: plain classes whose constructors keep the
checks and messages they had as dataclasses, the checks of the mixture
arrays and of the attention weight where they cross a file, where their
record classes' constructors ran them before, and a source check that no
module imports ``dataclasses``, whose classes compile generated code on
every import."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from patt_lab.calibration import load_attention
from patt_lab.config import SynthConfig, TrainConfig, config_fields
from patt_lab.data import LabeledSet
from patt_lab.model import EncoderClassifier, TrainState, load_checkpoint, save_checkpoint

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "patt_lab"

E2 = np.eye(2)
HALF = np.array([0.5, 0.5])


@pytest.mark.parametrize("args, message", [
    ((np.zeros((0, 2)), [], []), "mus must have the head's shape (2, 2), got (0, 2)"),
    ((np.ones(2), [1.0], [1.0]), "mus must have the head's shape (2, 2), got (2,)"),
    ((np.ones((2, 1)), [1.0, 1.0], HALF), "mus must have the head's shape (2, 2), got (2, 1)"),
    ((E2, [1.0], HALF), "kappas (1,) and priors (2,) must both have shape (2,)"),
    ((E2, [1.0, 1.0], [1.0]), "kappas (2,) and priors (1,) must both have shape (2,)"),
    ((E2, [1.0, np.nan], HALF), "kappa must be finite and non-negative"),
    ((E2, [1.0, -1.0], HALF), "kappa must be finite and non-negative"),
    ((np.array([[1.0, 0.0], [1.0, 1.0]]), [1.0, 1.0], HALF),
     "mu must be unit norm, got ||mu[1]|| = 1.4142135623730951"),
    ((E2, [1.0, 1.0], [1.0, 0.0]), "priors must be strictly positive"),
    ((E2, [1.0, 1.0], [0.5, 0.6]), "priors must sum to 1, got 1.1"),
])
def test_vmf_mixture_messages(args, message, tmp_path):
    # save_checkpoint matches the arrays' shapes against the model's head,
    # then check_stats checks the class rows before it opens the file
    path = tmp_path / "model.ckpt"
    with pytest.raises(ValueError, match=re.escape(message)):
        save_checkpoint(path, EncoderClassifier.init(3, (4,), 2, 2, seed=0), args)
    assert not path.exists()


def test_vmf_mixture_converts_to_float_arrays(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, EncoderClassifier.init(3, (4,), 2, 2, seed=0),
                    ([[1, 0], [0, 1]], [1, 2], HALF))
    _, (mus, kappas, priors) = load_checkpoint(path)
    assert all(a.dtype == np.float64 for a in (mus, kappas, priors))
    assert mus.shape == (2, 2) and kappas.tolist() == [1.0, 2.0]


@pytest.mark.parametrize("kwargs, message", [
    (dict(inputs=np.zeros((2, 3, 1)), labels=[0, 0], n_classes=1),
     "inputs must be an (n, dim) matrix, got shape (2, 3, 1)"),
    (dict(inputs=np.zeros(3), labels=[0], n_classes=1),
     "inputs must be an (n, dim) matrix, got shape (3,)"),
    (dict(inputs=np.zeros((2, 3)), labels=[0], n_classes=1), "one label per row required"),
    (dict(inputs=np.zeros((2, 3)), labels=[0, -2], n_classes=1), "labels must be >= -1"),
])
def test_labeled_set_messages(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        LabeledSet(**kwargs)


def test_labeled_set_converts():
    split = LabeledSet(inputs=[[1, 2]], labels=[-1], n_classes=2)
    assert split.inputs.dtype == np.float64 and split.labels.dtype == np.int64
    assert split.class_counts.dtype == np.int64 and split.dim == 2
    assert split.inputs.shape == (1, 2)
    assert split.class_counts.tolist() == [0, 0]


def test_labeled_set_counts_the_labeled_rows():
    split = LabeledSet(inputs=np.zeros((5, 2)), labels=[2, -1, 0, 2, -1], n_classes=4)
    assert split.class_counts.tolist() == [1, 0, 2, 0]


@pytest.mark.parametrize("raw, scaled, message", [
    pytest.param(np.ones(3), np.ones(4), "attention file must hold 2d values, got 7",
                 id="seven-values"),
    pytest.param(np.ones(1), np.ones(0), "attention file must hold 2d values, got 1",
                 id="one-value"),
    (np.array([np.nan, 0.0]), np.ones(2), "attention weight must be finite"),
    (np.ones(2), np.array([np.inf, 0.0]), "attention weight must be finite"),
    (np.ones(2), np.array([0.0, 2.5]), "scaled weight must lie in [0, 2]"),
    (np.ones(2), np.array([-0.1, 1.0]), "scaled weight must lie in [0, 2]"),
])
def test_attention_weight_messages(raw, scaled, message, tmp_path):
    # a file in the layout of save_attention: the raw values, then the scaled
    path = tmp_path / "attention.csv"
    path.write_text(",".join(map(repr, raw.tolist() + scaled.tolist())) + "\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_attention(path)


@pytest.mark.parametrize("cls", [SynthConfig, TrainConfig])
def test_config_rejects_an_unknown_keyword(cls):
    with pytest.raises(TypeError, match=rf"{cls.__name__}\.__init__\(\) got an unexpected keyword "
                                        r"argument 'no_such_key'"):
        cls(no_such_key=1)


@pytest.mark.parametrize("cls", [SynthConfig, TrainConfig])
def test_config_fields_start_at_the_class_defaults(cls):
    config = cls()
    for name, default in config_fields(cls):
        assert getattr(config, name) == default, name
    first = config_fields(cls)[0][0]
    assert first == {SynthConfig: "n_classes", TrainConfig: "epochs"}[cls]


def test_config_checks_run_after_the_fields():
    with pytest.raises(ValueError, match=re.escape("tau must be > 0, got 0.0")):
        TrainConfig(tau=0.0)
    assert TrainConfig(epochs=3, beta=0.0).beta == 0.0


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_train_state_starts_the_optimizer_at_zero(optimizer):
    model = EncoderClassifier.init(3, (4,), 2, 2, seed=0)
    state = TrainState(model=model, config=TrainConfig(optimizer=optimizer), priors=HALF)
    size = sum(p.size for p in model.params)
    np.testing.assert_array_equal(state.m, np.zeros(size))
    np.testing.assert_array_equal(state.v, np.zeros(size))
    assert state.t == 0


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # every import statement, also one inside a function
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bad = [name for name in _imported_modules(tree) if name.split(".")[0] == "dataclasses"]
    assert not bad, f"{path.name} imports {bad}"


def test_source_check_sees_a_lazy_import():
    tree = ast.parse("def f():\n    from dataclasses import fields\n    import dataclasses\n")
    assert list(_imported_modules(tree)) == ["dataclasses", "dataclasses"]
