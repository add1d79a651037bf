#!/usr/bin/env python3
"""CLI contract test for harmony-sim.

Pins the help/usage surface (every documented mode and flag family appears in
--help, including the service-mode flags) and the error discipline: unknown
options, unknown enum values, and mode-invalid combinations must exit 2 with a
message that *names* the offending input, never a bare usage dump. Also smokes
the service mode itself: two same-seed runs must produce byte-identical
stdout (the deterministic report; wall-clock stats go to stderr). Batch mode
prints its own wall-clock line on stderr, and a batch run that fails exits 1
with the error on stderr.

Registered in ctest as `test_cli` with the binary path as argv[1].
Run directly: python3 tests/test_cli.py /path/to/harmony-sim
"""

import os
import subprocess
import sys
import tempfile
import unittest

BINARY = None


def run(*args):
    return subprocess.run([BINARY, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=120)


class CliTest(unittest.TestCase):
    def test_help_documents_all_modes(self):
        proc = run("--help")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        for flag in ("--policy", "--jobs", "--machines", "--arrival", "--seed",
                     "--validate", "--metrics",
                     # service mode
                     "--service", "--duration", "--arrival-rate", "--admission",
                     "--queue-cap", "--drift",
                     # telemetry family
                     "--telemetry-out", "--telemetry-interval", "--prom-out",
                     "--slo", "--flight-recorder"):
            self.assertIn(flag, proc.stdout, f"--help must document {flag}")
        self.assertIn("fifo|sjf", proc.stdout)

    def assert_named_error(self, fragment, *args):
        proc = run(*args)
        self.assertEqual(proc.returncode, 2,
                         f"expected usage error for {args}: {proc.stdout}")
        self.assertIn(fragment, proc.stderr,
                      f"error for {args} must name the input:\n{proc.stderr}")
        self.assertIn("usage:", proc.stderr)

    def test_unknown_option_is_named(self):
        self.assert_named_error("--frobnicate", "--frobnicate")
        # The simulator has one event queue; the old selector is gone.
        self.assert_named_error("--event-queue", "--event-queue", "heap")

    def test_malformed_numbers_are_named(self):
        # Trailing junk, signs on unsigned flags, non-finite and non-positive
        # values must all be usage errors naming the flag, never an abort, a
        # silently truncated value or a wrapped-around unsigned.
        for flag, args in (
                ("--jobs", ("--jobs", "abc")),
                ("--jobs", ("--jobs", "1e3")),
                ("--seed", ("--seed", "x")),
                ("--naive-seed", ("--policy", "naive", "--naive-seed", "-1")),
                ("--machines", ("--machines", "-5")),
                ("--arrival", ("--arrival", "poisson:abc")),
                ("--arrival", ("--arrival", "trace:inf")),
                ("--error", ("--error", "nan")),
                ("--error", ("--error", "2")),
                ("--queue-cap", ("--service", "--queue-cap", "-1")),
                ("--duration", ("--service", "--duration", "nan")),
                ("--duration", ("--service", "--duration", "inf")),
                ("--arrival-rate", ("--service", "--arrival-rate", "0")),
                ("--drift", ("--service", "--drift", "-0.1")),
                ("--telemetry-interval",
                 ("--service", "--telemetry-interval", "nan")),
                ("--arrival", ("--service", "--arrival", "poisson:0")),
        ):
            with self.subTest(args=args):
                self.assert_named_error(flag, *args)

    def test_service_values_that_cannot_run_are_named(self):
        # Well-formed numbers the service cannot honour: a drift threshold so
        # large that the raised equivalence slack rounds back to it, a rate
        # whose mean gap 1/rate overflows, and rates so high that the run
        # would outgrow the 32-bit job ids (with gaps below the clock's
        # resolution, simulated time never advances). Each must be a usage
        # error naming the flag, never an abort or a hang.
        for flag, args in (
                ("--drift", ("--service", "--drift", "1e308", "--duration", "100",
                             "--machines", "20")),
                ("--arrival-rate", ("--service", "--arrival-rate", "1e-320",
                                    "--duration", "100", "--machines", "20")),
                ("--arrival-rate", ("--service", "--arrival-rate", "1e300",
                                    "--duration", "100", "--machines", "20")),
                ("--arrival", ("--service", "--arrival", "poisson:1e-300")),
        ):
            with self.subTest(args=args):
                self.assert_named_error(flag, *args)

    def test_zero_machines_is_named(self):
        self.assert_named_error("--machines", "--machines", "0", "--jobs", "3")
        self.assert_named_error("--machines", "--service", "--machines", "0")

    def test_unknown_enum_values_are_named(self):
        self.assert_named_error("bogus", "--policy", "bogus")
        self.assert_named_error("wheel", "--service", "--admission", "wheel")
        self.assert_named_error("uniform", "--arrival", "uniform:3")

    def test_missing_value_is_named(self):
        self.assert_named_error("--machines", "--machines")

    def test_service_rejects_batch_arrivals(self):
        self.assert_named_error("batch", "--service", "--arrival", "batch")

    def test_service_runs_are_bit_identical(self):
        args = ("--service", "--duration", "1200", "--arrival-rate", "0.2",
                "--machines", "80", "--seed", "5")
        first = run(*args)
        second = run(*args, "--validate")  # validators must not perturb stdout
        self.assertEqual(first.returncode, 0, first.stderr)
        self.assertEqual(second.returncode, 0, second.stderr)
        self.assertEqual(first.stdout, second.stdout)
        self.assertIn("service report (harmony-svc-v1)", first.stdout)
        self.assertIn("scheduling events", first.stdout)
        # Wall-clock stats are stderr-only: nondeterministic surface.
        self.assertIn("events/s", second.stderr)
        self.assertNotIn("events/s", first.stdout)

    def test_bad_slo_spec_is_named(self):
        self.assert_named_error("not-a-slo", "--service", "--slo", "not-a-slo=1")
        self.assert_named_error("'abc'",
                                "--service", "--slo", "queue-delay-p99=abc")

    def test_telemetry_flags_require_service_mode(self):
        self.assert_named_error("--telemetry-out", "--telemetry-out", "t.jsonl")
        self.assert_named_error("--slo", "--slo", "queue-delay-p99=120")

    def test_telemetry_interval_must_be_positive(self):
        self.assert_named_error("--telemetry-interval", "--service",
                                "--telemetry-interval", "0")

    def test_telemetry_files_are_bit_identical_across_runs(self):
        with tempfile.TemporaryDirectory() as tmp:
            outs = []
            for name, extra in (("a", ()), ("b", ()), ("v", ("--validate",))):
                tel = os.path.join(tmp, f"tel-{name}.jsonl")
                prom = os.path.join(tmp, f"prom-{name}.txt")
                proc = run("--service", "--duration", "1200", "--arrival-rate",
                           "0.2", "--machines", "80", "--seed", "5",
                           "--telemetry-out", tel, "--prom-out", prom,
                           "--slo", "queue-delay-p99=120", *extra)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                with open(tel) as f:
                    jsonl = f.read()
                with open(prom) as f:
                    promtext = f.read()
                outs.append((jsonl, promtext, proc.stdout))
            # Rerun and validators-on must both be byte-identical.
            self.assertEqual(outs[0], outs[1])
            self.assertEqual(outs[0], outs[2])
            self.assertIn('"schema":"harmony-telemetry-v1"', outs[0][0])
            self.assertIn("# TYPE harmony_svc_arrivals_total counter",
                          outs[0][1])
            self.assertIn("telemetry windows", outs[0][2])
            self.assertIn("queue-delay-p99", outs[0][2])

    def test_service_sjf_policy_accepted(self):
        proc = run("--service", "--duration", "600", "--arrival-rate", "0.2",
                   "--machines", "60", "--admission", "sjf", "--queue-cap", "16",
                   "--drift", "0.2")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("admission=sjf", proc.stdout)

    def test_batch_run_reports_wall_stats_on_stderr(self):
        # Forty Poisson arrivals ten minutes apart on 16 machines: a lone job
        # finishes while a profiling visitor shares its group, and the group
        # it leaves empty must dissolve or every later arrival strands.
        proc = run("--jobs", "40", "--machines", "16", "--arrival", "poisson:600",
                   "--seed", "42")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("finished 40 jobs", proc.stdout)
        # Wall-clock throughput is stderr-only, like service mode's.
        self.assertRegex(proc.stderr, r"wall [0-9.]+ s \| [0-9]+ events \| "
                                      r"[0-9]+ events/s \| [0-9]+ sim-s per wall-s")
        self.assertNotIn("events/s", proc.stdout)

    def test_failed_batch_run_exits_1(self):
        # Arrival gaps so wide that the arrival times overflow: ClusterSim
        # refuses them, and the CLI reports that instead of terminating.
        proc = run("--jobs", "20", "--machines", "40", "--arrival", "poisson:1e308")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("arrival times must be finite", proc.stderr)
        self.assertNotIn("terminate called", proc.stderr)

    def test_baseline_presets_keep_the_error_flag(self):
        # A baseline preset fixes execution, grouping and spill; --error must
        # still reach the run (it draws each job's profile error up front,
        # which shifts the noise streams, so the summary changes).
        def summary(*args):
            proc = run("--jobs", "20", "--machines", "40", *args)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            return [line for line in proc.stdout.splitlines()
                    if not line.startswith("scheduler calls")]
        for policy in ("naive", "isolated"):
            exact = summary("--policy", policy, "--error", "0")
            skewed = summary("--policy", policy, "--error", "0.2")
            self.assertNotEqual(exact, skewed,
                                f"--policy {policy} ignored --error 0.2")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_cli.py /path/to/harmony-sim")
    BINARY = sys.argv.pop(1)
    unittest.main(verbosity=2)
