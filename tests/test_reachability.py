"""Code that only tests reach stays out of the package, and ``tests/`` keeps
no oracle that no test uses.

The first test runs all five stages in process under ``sys.setprofile`` over
six small configs, the forked ``util.Beside`` children included, and
fails when a function or method defined in ``src/patt_lab`` is never entered,
unless it is on the short, commented allowlist below. The second fails when a
public top-level name of ``tests/oracles.py`` is referenced by no
``tests/test_*.py``. The third fails when a function of a module whose
functions are pure keeps state between calls in a module-level name.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

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


def test_every_package_function_is_entered_by_a_stage(tmp_path, two_cpus):
    # gen-data's writer and train's outlier helper are forked children,
    # which inherit this hook; each process appends the code it enters first
    # to one log
    log = os.open(tmp_path / "entered.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code not in seen:
            seen.add(frame.f_code)
            os.write(log, f"{frame.f_code.co_firstlineno} {frame.f_code.co_filename}\n".encode())

    previous = sys.getprofile()
    try:
        for i, values in enumerate(CONFIGS):
            config = tmp_path / f"{i}.cfg"
            config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
            sys.setprofile(profile)
            try:
                out = str(tmp_path / str(i))
                codes = [cli.main([stage, "--config", str(config), "--out", out])
                         for stage in ("gen-data", "train", "calibrate", "eval", "report")]
            finally:
                sys.setprofile(previous)
            assert codes == [0] * 5, (values, codes)
    finally:
        os.close(log)

    entered = (line.split(" ", 1) for line in (tmp_path / "entered.log").read_text().splitlines())
    hit = {(os.path.realpath(path), int(first)) for first, path in entered}
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


# methods that change a dict, list or set in place
MUTATORS = {"clear", "update", "pop", "setdefault", "append", "extend"}


def _root(node):
    # the name an item or attribute chain starts from, or None
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def state_writes(tree) -> list:
    """Line numbers where a function keeps state between calls: a ``global``
    or ``nonlocal`` statement, a store into an item or attribute of a
    module-level name, or a call of one of ``MUTATORS`` on one. A function's
    names, and those of the functions around it, shadow the module's."""
    shared = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            shared.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            shared.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        else:
            shared.update(n.id for n in ast.walk(node)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    lines = set()

    def scan(node, outer):
        # outer: the names the enclosing functions bind
        for func in ast.iter_child_nodes(node):
            if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
                scan(func, outer)
                continue
            own = outer | {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
            own.update(n.id for n in ast.walk(func)
                       if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
            module = shared - own
            for n in ast.walk(func):
                if (isinstance(n, (ast.Global, ast.Nonlocal))
                        or isinstance(n, (ast.Attribute, ast.Subscript))
                        and isinstance(n.ctx, (ast.Store, ast.Del)) and _root(n) in module
                        or isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                        and n.func.attr in MUTATORS and _root(n.func.value) in module):
                    lines.add(n.lineno)
            scan(func, own)

    scan(tree, set())
    return sorted(lines)


@pytest.mark.parametrize("name", ["vmf.py", "losses.py", "util.py"])
def test_pure_module_keeps_no_state(name):
    # vmf's docstring says its functions are pure; losses and util hold
    # the same numerics
    path = PACKAGE / name
    lines = state_writes(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not lines, f"{name}: module state written at lines {lines}"


def test_state_check_sees_a_module_cache():
    tree = ast.parse("import np\n_C = {}\nN = 0\n"
                     "def f(k, v, x):\n    _C[k] = v\n    _C.clear()\n    np.seed = 1\n"
                     "    global N\n    del _C[k]\n    x.append(1)\n    x[0] = 1\n"
                     "def g(_C):\n    _C[0] = 1\n    y = []\n    y.append(N)\n"
                     "    return lambda: _C.pop()\n")
    assert state_writes(tree) == [5, 6, 7, 8, 9]
