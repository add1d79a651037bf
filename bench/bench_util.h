// Shared helpers for the figure/table reproduction drivers.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/table.h"
#include "exp/arrivals.h"
#include "exp/cluster_sim.h"
#include "exp/metrics.h"
#include "exp/workload.h"
#include "obs/analysis/analysis.h"
#include "obs/analysis/report.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace harmony::bench {

struct RunResult {
  exp::RunSummary summary;
  core::Utilization avg_util;
  double mean_jct = 0.0;
  double makespan = 0.0;
};

// Runs one policy over a workload and collects the headline numbers.
inline RunResult run(exp::ClusterSimConfig config, const std::vector<exp::WorkloadSpec>& jobs,
                     const std::vector<double>& arrivals) {
  exp::ClusterSim sim(config, jobs, arrivals);
  RunResult r;
  r.summary = sim.run();
  r.avg_util = r.summary.avg_util;
  r.mean_jct = r.summary.mean_jct();
  r.makespan = r.summary.makespan;
  return r;
}

inline void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline double speedup(double baseline, double value) {
  return value > 0.0 ? baseline / value : 0.0;
}

// Attaches a full trace-analysis run report to a figure driver's output:
// feeds the tracer's current buffer through the analysis engine, reconciled
// against `summary`, and writes <dir>/report.md + <dir>/report.json with the
// metrics snapshot folded in. Returns false when no events were recorded
// (tracing disabled for the run) or on I/O failure.
inline bool write_run_report(const exp::RunSummary& summary, const std::string& dir) {
  auto events = obs::Tracer::instance().snapshot();
  if (events.empty()) return false;
  obs::analysis::RunTotals totals;
  totals.makespan_sec = summary.makespan;
  totals.jobs.reserve(summary.jobs.size());
  for (const auto& outcome : summary.jobs)
    totals.jobs.push_back(obs::analysis::RunTotals::JobOutcome{
        outcome.job, outcome.submit_time, outcome.finish_time});
  const auto analysis = obs::analysis::analyze(std::move(events), &totals);
  return obs::analysis::write_report_files(
      analysis, obs::MetricsRegistry::instance().snapshot_json(), dir);
}

}  // namespace harmony::bench
