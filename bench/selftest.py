"""Self-test of the benchmark harness (not of patt-lab itself).

    python3 bench/selftest.py

Checks the self-time arithmetic, the scaling of times by the reference
spawns, that the digest check catches a flipped output byte, that the output
checks reject an out-of-range report, that every workload pins every CLI
config key, and that BENCHMARK.json declares exactly the metrics the harness
prints.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
import unittest.mock
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def span(id_, parent, name, start, end, stage="train", **extra):
    return {"id": id_, "parent": parent, "name": name, "start": start, "end": end,
            "run": "r", "stage": stage, **extra}


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped_to_the_parent(self):
        spans = [
            span(0, None, "cli.main", 0.0, 10.0),
            span(1, 0, "model.train_step", 1.0, 3.0),
            span(2, 0, "model.train_step", 2.0, 5.0),  # overlaps span 1
            span(3, 0, "model.train_step", 8.0, 12.0),  # runs past its parent
            span(4, 1, "vmf.log_bessel_i", 1.5, 2.5),  # grandchild of span 0
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - (4.0 + 2.0))
        self.assertAlmostEqual(selfs[1], 2.0 - 1.0)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[4], 1.0)

    def test_layer_metrics_count_calls_per_step(self):
        spans = [
            span(0, None, "cli.main", 0.0, 10.0),
            span(1, 0, "model.train_step", 0.0, 4.0),
            span(2, 1, "model.encoder_forward", 0.0, 1.0),
            span(3, 1, "vmf.log_bessel_i", 1.0, 2.0, elements=10),
            span(4, 0, "model.train_step", 5.0, 9.0),
            span(5, 4, "vmf.log_bessel_i", 5.0, 7.0, elements=30),
            span(6, 0, "model.encoder_forward", 9.0, 10.0),  # not inside a step
        ]
        metrics = run.layer_metrics(run.annotate(spans))
        self.assertEqual(metrics["model.train_step.calls"], 2)
        self.assertEqual(metrics["model.encoder_forward.calls_per_step"], 0.5)
        self.assertEqual(metrics["vmf.log_bessel_i.elements"], 40)
        self.assertAlmostEqual(metrics["vmf.log_bessel_i.ns_per_element"], 1e9 * 3.0 / 40)
        self.assertAlmostEqual(metrics["model.train_step.self_s"], 2.0 + 2.0)
        self.assertEqual(set(metrics) | {"src_lines"} | {
            name for name in run.PER_LAYER if name.startswith("trace.overhead.")},
            set(run.PER_LAYER))


class ReferenceScalingTest(unittest.TestCase):
    def test_a_child_is_scaled_by_the_mean_of_the_references_around_it(self):
        op = run.Op("train", 0.6, 0.2, 40.0, 0, "")
        self.assertAlmostEqual(op.scaled, 0.6 * run.REF_NOMINAL_S / 0.2)

    def test_the_reference_after_one_child_is_the_one_before_the_next(self):
        timer = run.Timer(run.child_env(), bracket=True)
        # reference, child, reference, child, reference
        spawns = [(wall, 30.0, 0, "") for wall in (0.2, 1.0, 0.1, 1.0, 0.3)]
        with unittest.mock.patch.object(run, "spawn", side_effect=spawns):
            first, second = timer.run(["a"]), timer.run(["b"])
        self.assertAlmostEqual(first[1], (0.2 + 0.1) / 2)
        self.assertAlmostEqual(second[1], (0.1 + 0.3) / 2)
        self.assertEqual(timer.refs, [0.2, 0.1, 0.3])


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(parents=True, exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=run.WORK)
        self.out = Path(self.tmp.name)
        for names in run.OUTPUTS.values():
            for name in names:
                (self.out / name).write_bytes(b"")
        (self.out / "test_id.csv").write_text("id,label,f0\n0,1,0.5\n1,0,0.25\n")
        (self.out / "test_ood.csv").write_text("id,label,f0\n0,-1,0.5\n")
        (self.out / "scores.csv").write_text(
            "split,row,label,pred,score\nid,0,1,1,2.5\nid,1,0,1,1.5\nood,0,-1,0,0.5\n")
        (self.out / "report.csv").write_text(
            ",".join(run.REPORT_COLUMNS) + "\n0.75,0.8,0.7,0.5,0.5,1.0,0.0\n")
        (self.out / "acc_table.csv").write_text(
            "group,acc\noverall,0.5\nhead,1.0\ntail,0.0\n")

    def tearDown(self):
        self.tmp.cleanup()

    def test_consistent_outputs_pass(self):
        problems, quality = run.check_outputs(self.out)
        self.assertFalse(any(problems.values()), problems)
        self.assertEqual(quality, {"auroc": 0.75, "fpr95": 0.5, "tail_acc": 0.0})

    def test_flipped_byte_is_caught_by_the_digest_check(self):
        (self.out / "model.ckpt").write_bytes(b"\x00\x01\x02\x03")
        reference = run.digest_outputs(self.out)
        self.assertEqual(len(reference), 13)
        data = bytearray((self.out / "model.ckpt").read_bytes())
        data[2] ^= 0x01
        (self.out / "model.ckpt").write_bytes(bytes(data))
        self.assertEqual(run.digest_mismatches(reference, run.digest_outputs(self.out)),
                         ["model.ckpt"])
        (self.out / "hist.csv").unlink()
        self.assertIn("hist.csv", run.digest_mismatches(reference, run.digest_outputs(self.out)))

    def test_out_of_range_report_and_short_scores_fail_eval(self):
        (self.out / "report.csv").write_text(
            ",".join(run.REPORT_COLUMNS) + "\n1.5,0.8,0.7,0.5,0.5,1.0,0.0\n")
        (self.out / "scores.csv").write_text("split,row,label,pred,score\nid,0,1,1,2.5\n")
        problems, quality = run.check_outputs(self.out)
        self.assertIsNone(quality)
        self.assertEqual(len(problems["eval"]), 3, problems)

    def test_missing_output_fails_its_stage(self):
        (self.out / "attention.csv").unlink()
        problems, _ = run.check_outputs(self.out)
        self.assertEqual(problems["calibrate"], ["missing attention.csv"])


class DeclarationTest(unittest.TestCase):
    def test_workloads_pin_every_config_key(self):
        sys.path.insert(0, str(run.SRC))
        from patt_lab import cli
        for workload in run.WORKLOADS:
            keys = set(run.resolved_config(run.read_workload(workload)))
            self.assertEqual(keys, set(cli.DEFAULTS) - {"seed", "out_dir"}, workload)

    def test_benchmark_json_declares_what_the_harness_prints(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        listed = [w["name"] for w in spec["workloads"]]
        self.assertTrue(set(listed) <= set(run.WORKLOADS), listed)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
