"""Tests for the benchmark's own code.

    python3 -m unittest discover -s daybench/tests

The smoke tests build the benchmark and run every workload once, traced
and untraced (a few minutes on two cores); set DAYBENCH_SKIP_SMOKE=1 to
run only the fast tests.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class MetricGrammar(unittest.TestCase):
    def test_names_and_units_follow_the_grammar(self):
        b = benchmark_json()
        names = [w["name"] for w in b["workloads"]]
        names += [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for name in names:
            self.assertRegex(name, run.NAME_RE)
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], run.UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_grammar_rejects_bad_names_and_units(self):
        for bad in ("", ".day_s", "day s", "x" * 65, "day/s"):
            self.assertIsNone(run.NAME_RE.match(bad), bad)
        for bad in ("", "m s", "u" * 17, "MJ!"):
            self.assertIsNone(run.UNIT_RE.match(bad), bad)

    def test_benchmark_json_matches_the_emitted_metrics(self):
        b = benchmark_json()
        self.assertEqual([(m["name"], m["unit"]) for m in b["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in b["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in b["workloads"]], list(run.WORKLOADS))
        for m in b["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in b["end_to_end"])}])

    def test_units_match_what_each_metric_measures(self):
        for name, unit in run.END_TO_END + run.PER_LAYER:
            if name.endswith("_s"):
                self.assertEqual(unit, "s", name)
            elif name.endswith((".calls", ".fail", ".epochs")) or name == "switch_toggles":
                self.assertEqual(unit, "count", name)
            elif name.endswith(("_ratio", "_frac", ".share")):
                self.assertEqual(unit, "1", name)


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(0))
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50.0)
        self.assertEqual(run.tail_percentile(99), 50.0)
        self.assertEqual(run.tail_percentile(100), 90.0)
        self.assertEqual(run.tail_percentile(199), 90.0)
        self.assertEqual(run.tail_percentile(200), 95.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_reported_percentile_leaves_ten_beyond(self):
        for n in (20, 57, 100, 250, 1000, 4321, 10000):
            p = run.tail_percentile(n)
            values = list(range(n))
            beyond = sum(v > run.percentile(values, p) for v in values)
            self.assertGreaterEqual(beyond, 10, (n, p))

    def test_nearest_rank(self):
        self.assertEqual(run.percentile([3.0, 1.0, 2.0], 50.0), 2.0)
        self.assertEqual(run.percentile(list(range(1, 101)), 90.0), 90)
        self.assertEqual(run.percentile([7.0], 99.9), 7.0)

    def test_summary_states_the_sample_count(self):
        self.assertEqual(run.timing_summary([1.0, 3.0, 2.0]), "median 2 s (n=3)")
        self.assertIn("p90", run.timing_summary([float(i) for i in range(100)]))


class PerLayerMetrics(unittest.TestCase):
    SWEEP = {
        "load_s": 0.01, "fattree_s": 0.02, "epochs": 2, "servers": 4, "wall_s": 10.0,
        "context_hits": 1, "context": [1.0, 0.5], "bounds": [0.25] * 4,
        "plan_ok": [1.0, 1.0, 1.0], "plan_fail": [0.5], "eval": [1.0, 1.0, 2.0],
    }

    def test_every_metric_is_derived(self):
        m = run.per_layer_metrics(self.SWEEP)
        self.assertEqual(set(m), {name for name, _ in run.PER_LAYER})
        self.assertEqual(m["scenario.context.calls"], 2)
        self.assertEqual(m["scenario.context.hit_ratio"], 0.5)
        self.assertEqual(m["net.plan.calls"], 4)
        self.assertEqual(m["net.plan.fail"], 1)
        self.assertEqual(m["net.plan.ok_ratio"], 0.75)
        self.assertEqual(m["server.isn_s"], 4.0 / (3 * 4))
        self.assertAlmostEqual(m["sweep.covered_frac"], (1.5 + 1.0 + 3.5 + 4.0) / 10.0)
        self.assertAlmostEqual(m["server.share"], 0.4)

    def test_counts_are_the_deterministic_part(self):
        c = run.sweep_counts(self.SWEEP)
        self.assertEqual(c, {"epochs": 2, "context_calls": 2, "context_hits": 1,
                             "bounds_calls": 4, "plan_ok": 3, "plan_fail": 1, "eval_calls": 3})


@unittest.skipIf(os.environ.get("DAYBENCH_SKIP_SMOKE") == "1", "smoke runs skipped")
class Smoke(unittest.TestCase):
    def run_bench(self, workload, trace):
        p = subprocess.run(
            [sys.executable, str(HERE.parent / "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(p.returncode, 0, p.stderr)
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_every_workload_emits_every_metric(self):
        for workload in run.WORKLOADS + run.EXTRA_WORKLOADS:
            for trace, pairs in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    out = self.run_bench(workload, trace)
                    self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertGreaterEqual(out["attempted"], 1)
                    self.assertEqual(out["failed"], 0)
                    self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()},
                                     dict(pairs))
                    for name, m in out["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)


if __name__ == "__main__":
    unittest.main()
