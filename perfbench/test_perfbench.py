#!/usr/bin/env python3
"""Tests of the perfbench harness itself, at small problem sizes.

    python3 perfbench/test_perfbench.py

Each test builds the harness through run.py (incrementally) and runs it
with --size small, so the whole file takes well under a minute once built.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mlp_infer", "closure_dag", "gauss_elim"]


def bench(workload, trace, seed=7, extra=()):
    """Run one small invocation; returns (exit code, parsed result)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "small", *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no output from {cmd}: {done.stderr[-2000:]}")
    return done.returncode, json.loads(lines[-1])


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


class ResultShapeTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench("closure_dag", trace)
            self.assertEqual(code, 0)
            self.assertEqual(set(result["metrics"]),
                             {m["name"] for m in spec[section]})
            for m in spec[section]:
                self.assertEqual(result["metrics"][m["name"]]["unit"],
                                 m["unit"])


class TracedRunTest(unittest.TestCase):
    def test_breakdown_covers_every_call(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result = bench(w, 1)
                self.assertEqual(code, 0)
                self.assertEqual(result["failed"], 0)
                self.assertAlmostEqual(values(result)["trace.coverage"], 1.0,
                                       delta=0.03)

    def test_chrome_trace_has_a_track_per_lane(self):
        code, _ = bench("gauss_elim", 1)
        self.assertEqual(code, 0)
        path = os.path.join(ROOT, ".bench_build", "perfbench",
                            "trace-gauss_elim.json")
        with open(path, encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
        tracks = {e["tid"] for e in events if e["name"] == "task"}
        self.assertEqual(tracks, {1, 2, 3})
        task = next(e for e in events if e["name"] == "task")
        self.assertEqual(set(task["args"]), {"backend_ns", "glue_ns"})


class RepeatabilityTest(unittest.TestCase):
    def test_model_counts_repeat_for_a_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                runs = [values(bench(w, 0)[1]) for _ in range(2)]
                self.assertEqual(runs[0]["sim_cost"], runs[1]["sim_cost"])
                traced = [values(bench(w, 1)[1]) for _ in range(2)]
                counts = [{k: v for k, v in t.items()
                           if k.startswith("device.")} for t in traced]
                self.assertEqual(len(counts[0]), 7)
                self.assertEqual(counts[0], counts[1])


class CorrectnessGateTest(unittest.TestCase):
    def test_wrong_reference_fails_every_call(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                code, result = bench("mlp_infer", trace,
                                     extra=["--wrong-reference"])
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                if trace:
                    self.assertGreater(values(result)["failed_frac"], 0)


if __name__ == "__main__":
    unittest.main()
