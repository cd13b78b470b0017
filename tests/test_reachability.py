"""Code that only tests reach stays out of the package, and ``tests/`` keeps
no oracle that no test uses.

The first test runs all five stages in process under ``sys.setprofile`` over
six small configs and fails when a function or method defined in
``src/patt_lab`` is never entered, unless it is on the short, commented
allowlist below. The second fails when a public top-level name of
``tests/oracles.py`` is referenced by no ``tests/test_*.py``.
"""

import ast
import os
import sys
from pathlib import Path

from patt_lab import cli

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "patt_lab"
TESTS = Path(__file__).resolve().parent

# 1-2 epochs each. Together they take every method, both scores, all three
# calibration modes, both vMF update modes, both optimizers, raw and direct
# features, an empty outlier split, spread-out classes (kappa < 30: the
# Bessel series) and d = 32 with K = 20 (series lanes from x = 300 on).
CONFIGS = (
    {"epochs": 1, "max_per_class": 60},
    {"epochs": 2, "max_per_class": 60, "within_kappa": 2.0, "score": "msp",
     "use_calibration": "off", "vmf_update": "epoch"},
    {"epochs": 1, "max_per_class": 60, "method": "oe-baseline", "score": "msp"},
    {"epochs": 1, "max_per_class": 60, "method": "ce-baseline", "ood_train_size": 0},
    {"epochs": 1, "max_per_class": 60, "optimizer": "sgd", "features_direct": "true"},
    {"epochs": 1, "n_classes": 20, "feature_dim": 32, "max_per_class": 30,
     "imbalance_ratio": 10.0, "use_calibration": "on"},
)

# functions no stage enters, each with the reason it stays
ALLOWED = {
    # error-only: the fallback for a Gaussian draw that collapses onto mu
    "data._orthonormal_to",
    # error-only: raises on any attempt to rebind a model attribute
    "model.EncoderClassifier.__setattr__",
    # the console-script entry point; the stages run through cli.main
    "cli.entry",
    # bench/trace_stage.py wraps log_norm_const and bessel_ratio, which
    # share _normalizer, and tests/test_trace_names.py checks they resolve
    "vmf.log_norm_const",
    "vmf.bessel_ratio",
    "vmf._normalizer",
}


def package_functions() -> dict:
    """``(file, first line) -> dotted name`` of every function and method
    defined in the package, nested ones included. The first line is the
    first decorator's, as in the code object's ``co_firstlineno``."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(path, first)] = prefix + child.name
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), os.path.realpath(path), f"{path.stem}.")
    return found


def test_every_package_function_is_entered_by_a_stage(tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    for i, values in enumerate(CONFIGS):
        config = tmp_path / f"{i}.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        sys.setprofile(profile)
        try:
            codes = [cli.main([stage, "--config", str(config), "--out", str(tmp_path / str(i))])
                     for stage in ("gen-data", "train", "calibrate", "eval", "report")]
        finally:
            sys.setprofile(previous)
        assert codes == [0] * 5, (values, codes)

    hit = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in entered}
    names = package_functions()
    never = sorted(name for key, name in names.items() if key not in hit)
    assert sorted(ALLOWED - set(names.values())) == [], "allowlisted names that do not exist"
    assert sorted(set(never) - ALLOWED) == [], "never entered by any stage"
    assert sorted(ALLOWED - set(never)) == [], "allowlisted but entered: drop them from ALLOWED"


def test_every_oracle_is_used_by_a_test():
    tree = ast.parse((TESTS / "oracles.py").read_text())
    public = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            public.append(node.name)
        elif isinstance(node, ast.Assign):
            public += [t.id for t in node.targets if isinstance(t, ast.Name)]
    public = [name for name in public if not name.startswith("_")]
    used = set()
    for path in TESTS.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert public
    assert sorted(set(public) - used) == [], "oracles no test references"
