"""Run one patt-lab CLI stage with spans around the package's public functions.

    python3 bench/trace_stage.py SPANS_FILE RUN_ID STAGE --config CFG

Each traced function is replaced by a timing wrapper in every ``patt_lab``
module namespace that binds it (``losses.log_norm_const`` as well as
``vmf.log_norm_const``), then ``patt_lab.cli.main`` runs the stage. Spans
stay in memory and are appended to SPANS_FILE as JSON lines when the stage
ends. Private helpers are not wrapped, so their time shows up as the self
time of their public caller. The wrappers only observe: the stage writes the
same bytes as an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

from patt_lab import cli

MODULES = ("util", "vmf", "data", "losses", "model", "calibration", "metrics", "cli")


def _elements(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"elements": int(np.size(x))}


def _bytes_of(position):
    def measure(args, kwargs):
        path = args[position] if len(args) > position else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return measure


# (span name, module, attribute, per-call measurement or None)
TRACED = (
    ("vmf.log_bessel_i", "vmf", "log_bessel_i", _elements),
    ("vmf.log_norm_const", "vmf", "log_norm_const", None),
    ("vmf.bessel_ratio", "vmf", "bessel_ratio", None),
    ("vmf.estimate_class_stats", "vmf", "estimate_class_stats", None),
    ("losses.isac_loss_batch", "losses", "isac_loss_batch", None),
    ("losses.tla_loss_batch", "losses", "tla_loss_batch", None),
    ("losses.oe_uniform_loss_batch", "losses", "oe_uniform_loss_batch", None),
    ("model.train_step", "model", "train_step", None),
    ("model.batch_loss_and_grads", "model", "batch_loss_and_grads", None),
    ("model.encoder_forward", "model", "encoder_forward", None),
    ("model.save_checkpoint", "model", "save_checkpoint", None),
    ("model.load_checkpoint", "model", "load_checkpoint", None),
    ("data.gen_longtail", "data", "gen_longtail", None),
    ("data.save_features_csv", "data", "save_features_csv", _bytes_of(1)),
    ("data.load_features_csv", "data", "load_features_csv", _bytes_of(0)),
    ("calibration.attention_weight", "calibration", "attention_weight", None),
    ("calibration.score", "calibration", "energy_score", None),
    ("calibration.score", "calibration", "msp_score", None),
    ("metrics.build_report", "metrics", "build_report", None),
)


class Tracer:
    """In-memory span recorder for one stage process."""

    def __init__(self, run_id: str, stage: str):
        self.run_id = run_id
        self.stage = stage
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                    "name": name, "run": self.run_id, "stage": self.stage}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                span.update(measure(args, kwargs))
            return result
        return traced

    def dump(self, path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Rebind every traced function, in every module that holds it."""
    modules = [importlib.import_module(f"patt_lab.{name}") for name in MODULES]
    for name, module, attr, measure in TRACED:
        original = getattr(importlib.import_module(f"patt_lab.{module}"), attr)
        wrapped = tracer.wrap(name, original, measure)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main(argv) -> int:
    spans_path, run_id, stage_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id, stage_argv[0])
    install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(stage_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
