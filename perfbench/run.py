#!/usr/bin/env python3
"""Harmony benchmark: builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
harmony-perfbench (the repository's libraries plus perfbench/src) as an
optimized CMake build under .bench_build/perfbench; later runs only check that
the build is current. The binary's own lines (the shape of every simulated
schedule, checks that failed) are passed through, and the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {NAME: {"value": V, "unit": U}}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; the binary's output must name exactly those.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_PREFIX = "PERFBENCH_RESULT "
MIN_PROCESSES = 3
# CPU seconds one timed process of each workload takes on a 4-vCPU Xeon VM.
# A run makes --seconds / this many processes (at least MIN_PROCESSES), a
# number fixed by the arguments alone, so the operations a run attempts
# repeat exactly from run to run.
REP_SECONDS = {"batch-colocate": 4.0, "poisson-sweep": 0.45, "sim-scale": 3.0,
               "svc-steady": 2.2}
CHECK_LINES = ("ABORTED ON A CHECK", "CHECK FAILED")


class BenchError(Exception):
    pass


def load_spec(root=ROOT):
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no BENCHMARK.json at {root}")
    return json.loads(path.read_text())


def parse_result(stdout):
    """The binary's result object: the last line that starts with the prefix."""
    for line in reversed(stdout.splitlines()):
        if line.startswith(RESULT_PREFIX):
            try:
                result = json.loads(line[len(RESULT_PREFIX):])
            except json.JSONDecodeError as e:
                raise BenchError(f"unreadable result line: {e}") from e
            for key, kind in (("correct", bool), ("attempted", int), ("failed", int),
                              ("metrics", dict), ("fingerprints", dict)):
                if not isinstance(result.get(key), kind) or (
                        kind is int and isinstance(result[key], bool)):
                    raise BenchError(f"result field {key!r} missing or not {kind.__name__}")
            return result
    raise BenchError("harmony-perfbench printed no result line")


def pool(timed, validated):
    """Combines the untraced processes of one run.

    Each metric is the median over the timed processes that report it (a
    process whose outputs failed a check reports none). Simulated outputs
    must be bit-identical across processes, and the validated pass must
    reproduce every run it completed.
    """
    problems = []
    reference = timed[0]["fingerprints"]
    if any(r["fingerprints"] != reference for r in timed[1:]):
        problems.append("simulated outputs differ between processes of one seed")
    for label, fp in validated["fingerprints"].items():
        if reference.get(label) != fp:
            problems.append(f"the validated pass changed the outputs of {label}")
    values = {}
    for r in timed:
        for name, value in r["metrics"].items():
            values.setdefault(name, []).append(value)
    everything = timed + [validated]
    return {"correct": all(r["correct"] for r in everything) and not problems,
            "attempted": sum(r["attempted"] for r in everything),
            "failed": sum(r["failed"] for r in everything),
            "metrics": {name: statistics.median(v) for name, v in values.items()}}, problems


def process_count(workload, seconds):
    """Timed processes in one untraced run: a function of the arguments alone."""
    return max(MIN_PROCESSES, round(seconds / REP_SECONDS[workload]))


def to_output(result, spec, trace):
    """Attaches units from BENCHMARK.json; the metric names must match exactly."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    missing = sorted(set(declared) - set(got))
    extra = sorted(set(got) - set(declared))
    if missing or extra:
        raise BenchError(f"metric names differ from BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}")
    metrics = {}
    for name, unit in declared.items():
        value = got[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or \
                not math.isfinite(value):
            raise BenchError(f"metric {name} is not a finite number: {value!r}")
        metrics[name] = {"value": value, "unit": unit}
    if result["attempted"] < 1:
        raise BenchError("harmony-perfbench attempted no operations")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def build(build_dir):
    """Configures once, then brings harmony-perfbench up to date (quiet when current)."""
    log = sys.stderr
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release",
                        "-DCMAKE_CXX_FLAGS_RELEASE=-O2 -DNDEBUG"],
                       stdout=log, stderr=log, check=True, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "harmony_perfbench"],
                   stdout=log, stderr=log, check=True, timeout=840)
    return build_dir / "harmony-perfbench"


def run_process(cmd, deadline):
    """Runs one harmony-perfbench process; returns its non-result lines and its result."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"harmony-perfbench exited with code {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if not l.startswith(RESULT_PREFIX)]
    return lines, parse_result(proc.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes, for the benchmark's own smoke tests")
    args = ap.parse_args(argv)

    lines = []
    try:
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        build_dir = ROOT / ".bench_build" / "perfbench"
        binary = build(build_dir)
        deadline = time.monotonic() + 170
        cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        processes = process_count(args.workload, args.seconds)
        if args.trace:
            spans = build_dir / "spans" / f"{args.workload}-seed{args.seed}.json"
            spans.parent.mkdir(exist_ok=True)
            lines, result = run_process(cmd + ["--reps", str(max(2, processes // 2)),
                                               "--spans-out", str(spans)], deadline)
        else:
            # Each timed process runs the workload once, from a fresh heap,
            # and a run pools the processes: medians over them.
            timed = []
            while len(timed) < processes:
                out, r = run_process(cmd, deadline)
                lines += out if not timed else [l for l in out if l.startswith(CHECK_LINES)]
                timed.append(r)
            out, validated = run_process(cmd + ["--validated-pass"], deadline)
            lines += out
            result, problems = pool(timed, validated)
            lines += [f"CHECK FAILED: {p}" for p in problems]
            lines.append(f"  timed processes {len(timed)}")
        result = to_output(result, spec, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
