#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench/tests -v

Checks BENCHMARK.json against the benchmark contract, the result-line parser
in run.py, and runs every workload at tiny size, untraced and traced, through
run.py (the first run builds harmony-perfbench, which takes a few minutes).
"""
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def process_result(metrics=None, fingerprints=None, correct=True, attempted=10, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics or {}, "fingerprints": fingerprints or {}}


def result_line(metrics, **kwargs):
    return run.RESULT_PREFIX + json.dumps(process_result(metrics, **kwargs))


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec(ROOT)

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)

    def test_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, ["batch-colocate", "poisson-sweep", "sim-scale", "svc-steady"])
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics(self):
        e2e, layers = self.spec["end_to_end"], self.spec["per_layer"]
        names = [m["name"] for m in e2e + layers] + [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        for m in layers:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + layers:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = next(m for m in e2e if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e))
        self.assertLessEqual(len(json.dumps(self.spec)), 64 * 1024)


class ProcessCountTest(unittest.TestCase):
    def test_every_workload_has_a_repetition_time(self):
        names = {w["name"] for w in run.load_spec(ROOT)["workloads"]}
        self.assertEqual(set(run.REP_SECONDS), names)

    def test_count_depends_on_the_arguments_alone(self):
        for workload, rep_s in run.REP_SECONDS.items():
            self.assertEqual(run.process_count(workload, 1), run.MIN_PROCESSES)
            self.assertEqual(run.process_count(workload, 20), max(run.MIN_PROCESSES,
                                                                  round(20 / rep_s)))


class ParserTest(unittest.TestCase):
    def setUp(self):
        self.spec = {"end_to_end": [{"name": "setup_s", "unit": "s"},
                                    {"name": "run_cpu_s", "unit": "s"}],
                     "per_layer": [{"name": "exp.ctor_s", "unit": "s"}]}

    def test_takes_the_last_result_line(self):
        out = "\n".join(["shape line", result_line({"setup_s": 1.0}),
                         "more", result_line({"setup_s": 2.0, "run_cpu_s": 3.5})])
        result = run.to_output(run.parse_result(out), self.spec, trace=False)
        self.assertEqual(result["metrics"]["setup_s"], {"value": 2.0, "unit": "s"})
        self.assertEqual(result["metrics"]["run_cpu_s"], {"value": 3.5, "unit": "s"})
        self.assertEqual((result["correct"], result["attempted"], result["failed"]),
                         (True, 10, 0))

    def test_trace_selects_per_layer(self):
        out = result_line({"exp.ctor_s": 0.25})
        result = run.to_output(run.parse_result(out), self.spec, trace=True)
        self.assertEqual(list(result["metrics"]), ["exp.ctor_s"])

    def test_rejects_missing_or_undeclared_metrics(self):
        for metrics in ({"setup_s": 1.0}, {"setup_s": 1.0, "run_cpu_s": 2.0, "extra": 1.0}):
            with self.assertRaises(run.BenchError):
                run.to_output(run.parse_result(result_line(metrics)), self.spec, trace=False)

    def test_rejects_non_numbers(self):
        for bad in (None, "1.0", True, float("inf")):
            line = result_line({"setup_s": 1.0, "run_cpu_s": bad})
            with self.assertRaises((run.BenchError, ValueError)):
                run.to_output(run.parse_result(line), self.spec, trace=False)

    def test_rejects_malformed_lines(self):
        for out in ("no result here", run.RESULT_PREFIX + "{not json",
                    run.RESULT_PREFIX + json.dumps(dict(process_result(), correct=1)),
                    run.RESULT_PREFIX + json.dumps({"correct": True, "attempted": 1,
                                                    "failed": 0, "metrics": {}}),
                    result_line({"setup_s": 1.0, "run_cpu_s": 1.0}, attempted=0)):
            with self.assertRaises(run.BenchError):
                run.to_output(run.parse_result(out), self.spec, trace=False)


class PoolTest(unittest.TestCase):
    def test_medians_over_processes_and_sums_operations(self):
        timed = [process_result({"run_cpu_s": 1.0, "mean_jct_h": 2.0}, {"a": "01"}, attempted=4),
                 process_result({"run_cpu_s": 5.0, "mean_jct_h": 2.0}, {"a": "01"}, attempted=2,
                               failed=1),
                 process_result({"run_cpu_s": 2.0, "mean_jct_h": 2.0}, {"a": "01"}),
                 # Failed an output check: reports no timings.
                 process_result({}, {"a": "01"}, correct=False)]
        validated = process_result(fingerprints={"a": "01"}, attempted=2, failed=2)
        result, problems = run.pool(timed, validated)
        self.assertEqual(problems, [])
        self.assertEqual(result["metrics"], {"run_cpu_s": 2.0, "mean_jct_h": 2.0})
        self.assertEqual((result["correct"], result["attempted"], result["failed"]),
                         (False, 28, 3))

    def test_outputs_must_repeat_across_processes(self):
        timed = [process_result(fingerprints={"a": "01", "b": "02"}),
                 process_result(fingerprints={"a": "01", "b": "03"})]
        result, problems = run.pool(timed, process_result())
        self.assertFalse(result["correct"])
        self.assertEqual(len(problems), 1)

    def test_validated_pass_must_reproduce_completed_runs(self):
        timed = [process_result(fingerprints={"a": "01", "b": "02"})]
        # "b" aborted on a check in the validated pass: nothing to compare.
        self.assertTrue(run.pool(timed, process_result(fingerprints={"a": "01"}))[0]["correct"])
        result, _ = run.pool(timed, process_result(fingerprints={"a": "09"}))
        self.assertFalse(result["correct"])
        self.assertFalse(run.pool(timed, process_result(correct=False))[0]["correct"])


class SmokeTest(unittest.TestCase):
    """Every workload at tiny size through the real command line."""

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return proc.stdout.splitlines(), json.loads(proc.stdout.splitlines()[-1])

    def test_every_workload(self):
        spec = run.load_spec(ROOT)
        for w in spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    lines, result = self.run_bench(w["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], "\n".join(lines[-20:]))
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()},
                                     {m["name"]: m["unit"] for m in spec[key]})
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
                    if w["name"] == "poisson-sweep":
                        self.assertTrue(any("speedup vs isolated by seed" in line
                                            for line in lines))


if __name__ == "__main__":
    unittest.main()
