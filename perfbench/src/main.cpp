// harmony-perfbench: runs one benchmark workload and prints its shape lines
// followed by one result line,
//   PERFBENCH_RESULT {"correct":...,"attempted":...,"failed":...,
//                     "metrics":{...},"fingerprints":{...}}
// which run.py pools, checks against BENCHMARK.json and turns into the
// benchmark's output.
//
//   harmony-perfbench --workload NAME --seed N --trace 0|1 [--reps R]
//                    [--validated-pass] [--tiny] [--spans-out FILE]
//
// Untraced, the program runs the workload once and reports its end-to-end
// metrics and output fingerprints; run.py pools several such processes.
// Traced, it runs R (at least 2) pairs of untraced and traced repetitions
// and reports the per-layer metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload NAME --seed N --trace 0|1 [--reps R] "
               "[--validated-pass] [--tiny] [--spans-out FILE]\n",
               argv0, why.c_str(), argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], "missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--reps") {
        opt.reps = std::stoul(value());
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage(argv[0], "--trace takes 0 or 1");
        opt.trace = t == "1";
      } else if (arg == "--validated-pass") {
        opt.validated_pass = true;
      } else if (arg == "--tiny") {
        opt.tiny = true;
      } else if (arg == "--spans-out") {
        spans_out = value();
      } else {
        usage(argv[0], "unknown option '" + arg + "'");
      }
    } catch (const std::logic_error&) {
      usage(argv[0], "bad value for " + arg);
    }
  }
  if (opt.workload.empty()) usage(argv[0], "--workload is required");

  perfbench::Spans spans(opt.trace);
  perfbench::Result result;
  try {
    std::printf("workload %s seed %llu%s\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? " (traced)" : "");
    perfbench::run_workload(opt, spans, result);
    if (opt.trace) perfbench::run_replays(opt, spans, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "harmony-perfbench: %s\n", e.what());
    return 1;
  }
  if (!spans_out.empty()) {
    std::ofstream out(spans_out);
    out << spans.json();
    if (!out) {
      std::fprintf(stderr, "harmony-perfbench: cannot write %s\n", spans_out.c_str());
      return 1;
    }
  }

  char buf[160];
  std::string metrics, fingerprints;
  for (const auto& [name, value] : result.metrics) {
    std::snprintf(buf, sizeof buf, "%s\"%s\":%.17g", metrics.empty() ? "" : ",", name.c_str(),
                  value);
    metrics += buf;
  }
  for (const auto& [label, fp] : result.fingerprints) {
    std::snprintf(buf, sizeof buf, "%s\"%s\":\"%016llx\"", fingerprints.empty() ? "" : ",",
                  label.c_str(), static_cast<unsigned long long>(fp));
    fingerprints += buf;
  }
  std::printf("PERFBENCH_RESULT {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s},\"fingerprints\":{%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str(),
              fingerprints.c_str());
  return 0;
}
