"""The package names that ``bench/trace_stage.py`` wraps still resolve, so a
refactor that moves or renames one fails here, not first in a traced bench
run, and a traced one-epoch train sees the lean step that the benchmark's
per-layer spans assume. The tests only read ``bench/``."""

import contextlib
import importlib
import importlib.util
import sys
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


@contextlib.contextmanager
def tracer_installed():
    # the tracer's wrappers on every traced function; each module's
    # namespace is restored on the way out
    modules = [importlib.import_module(f"patt_lab.{name}") for name in trace_stage.MODULES]
    saved = [(module, dict(vars(module))) for module in modules]
    tracer = trace_stage.Tracer("guard", "train")
    trace_stage.install(tracer)
    try:
        yield tracer
    finally:
        for module, names in saved:
            for key, value in names.items():
                if vars(module).get(key) is not value:
                    setattr(module, key, value)


def train_traced(tracer, config, out_dir):
    # run the train stage under the tracer, recording the class of every
    # package object constructed inside a train_step span
    from patt_lab import cli, vmf
    package = str(Path(vmf.__file__).parent)
    spans, built = tracer.spans, []

    def watch(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_name == "__init__"
                and code.co_filename.startswith(package)
                and any(spans[i]["name"] == "model.train_step" for i in tracer._stack)):
            built.append(type(frame.f_locals["self"]).__name__)

    sys.setprofile(watch)
    try:
        rc = tracer.wrap("cli.main", cli.main)(["train", "--config", str(config),
                                                "--out", str(out_dir)])
    finally:
        sys.setprofile(None)
    assert rc == 0
    return built


def descendants(spans, span, name):
    # the spans named ``name`` below ``span``, at any depth
    found = []
    for other in spans:
        parent = other["parent"]
        while parent is not None and parent != span["id"]:
            parent = spans[parent]["parent"]
        if parent == span["id"] and other["name"] == name:
            found.append(other)
    return found


def test_small_train_epoch_keeps_the_step_lean(tmp_path, monkeypatch):
    # One epoch of the `small` workload (the CLI defaults), traced as the
    # benchmark traces it. Each step enters the stats refresh and the
    # contrastive loss once, through the names the tracer wraps; no step
    # constructs an object of a package class (the mixture is arrays); and
    # the asymptotic Bessel kernel is never called on zero lanes.
    from patt_lab import cli, losses, vmf
    config = tmp_path / "run.cfg"
    config.write_text("epochs = 1\n")
    assert cli.main(["gen-data", "--config", str(config), "--out", str(tmp_path)]) == 0
    lanes = []
    kernel = vmf._asymptotic_sum

    def counting(orders, x):
        lanes.append(x.size)
        return kernel(orders, x)

    monkeypatch.setattr(vmf, "_asymptotic_sum", counting)
    originals = (vmf.estimate_class_stats, losses.isac_loss_batch)
    with tracer_installed() as tracer:
        assert (vmf.estimate_class_stats, losses.isac_loss_batch) != originals
        built = train_traced(tracer, config, tmp_path)
    assert (vmf.estimate_class_stats, losses.isac_loss_batch) == originals
    steps = [span for span in tracer.spans if span["name"] == "model.train_step"]
    assert len(steps) == 10  # 1,242 rows in batches of 128
    for step in steps:
        assert len(descendants(tracer.spans, step, "vmf.estimate_class_stats")) == 1
        assert len(descendants(tracer.spans, step, "losses.isac_loss_batch")) == 1
    assert built == []
    assert not hasattr(vmf, "VmfMixture")
    assert lanes and min(lanes) > 0


def test_traced_calibrate_and_eval_see_their_spans(tmp_path):
    # the stages reach the traced functions through the array-level path in
    # `calibration`, whose module namespace the tracer rebinds
    from patt_lab import cli
    config = tmp_path / "run.cfg"
    config.write_text("epochs = 1\n")
    for command in ("gen-data", "train"):
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
    wanted = {"calibrate": {"calibration.attention_weight", "model.encoder_forward"},
              "eval": {"calibration.score", "model.encoder_forward", "metrics.build_report"}}
    for command, names in wanted.items():
        with tracer_installed() as tracer:
            rc = tracer.wrap("cli.main", cli.main)([command, "--config", str(config),
                                                    "--out", str(tmp_path)])
        assert rc == 0
        seen = {span["name"] for span in tracer.spans}
        assert names <= seen, sorted(names - seen)
