"""The package names that ``bench/trace_stage.py`` wraps still resolve, so a
refactor that moves or renames one fails here, not first in a traced bench
run. The test only reads ``bench/``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_STAGE = Path(__file__).resolve().parents[1] / "bench" / "trace_stage.py"


def load_trace_stage():
    spec = importlib.util.spec_from_file_location("trace_stage", TRACE_STAGE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace_stage = load_trace_stage()


@pytest.mark.parametrize("name", trace_stage.MODULES)
def test_traced_module_imports(name):
    importlib.import_module(f"patt_lab.{name}")


@pytest.mark.parametrize("module, attr",
                         [(module, attr) for _, module, attr, _ in trace_stage.TRACED],
                         ids=lambda value: value)
def test_traced_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"patt_lab.{module}"), attr))
