#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "exp/arrivals.h"
#include "exp/cluster_sim.h"
#include "exp/workload.h"

namespace harmony::exp {
namespace {

// A reduced catalog keeps the integration tests fast.
std::vector<WorkloadSpec> small_workload(std::size_t n, std::uint64_t seed = 2021) {
  auto catalog = make_catalog(seed);
  // Spread across app families: take every (80/n)-th job.
  std::vector<WorkloadSpec> out;
  const std::size_t stride = std::max<std::size_t>(1, catalog.size() / n);
  for (std::size_t i = 0; i < catalog.size() && out.size() < n; i += stride)
    out.push_back(catalog[i]);
  // Shorten convergence so tests run in milliseconds of wall time.
  for (auto& s : out) s.iterations = std::min<std::size_t>(s.iterations, 12);
  return out;
}

RunSummary run_policy(ClusterSimConfig config, std::size_t n_jobs,
                      std::size_t machines) {
  config.machines = machines;
  auto workload = small_workload(n_jobs);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  return sim.run();
}

TEST(ClusterSim, HarmonyCompletesAllJobs) {
  const auto summary = run_policy(ClusterSimConfig::harmony(), 12, 24);
  EXPECT_EQ(summary.jobs.size(), 12u);
  EXPECT_GT(summary.makespan, 0.0);
  for (const auto& j : summary.jobs) {
    EXPECT_GE(j.finish_time, j.submit_time);
  }
}

TEST(ClusterSim, IsolatedCompletesAllJobs) {
  const auto summary = run_policy(ClusterSimConfig::isolated(), 10, 30);
  EXPECT_EQ(summary.jobs.size(), 10u);
  EXPECT_EQ(summary.oom_events, 0u);  // isolated DoP respects memory
}

TEST(ClusterSim, NaiveCompletesAllJobs) {
  const auto summary = run_policy(ClusterSimConfig::naive(3), 9, 30);
  EXPECT_EQ(summary.jobs.size(), 9u);
}

TEST(ClusterSim, UtilizationWithinBounds) {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 20;
  auto workload = small_workload(8);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  const auto summary = sim.run();
  EXPECT_GE(summary.avg_util.cpu, 0.0);
  EXPECT_LE(summary.avg_util.cpu, 1.0 + 1e-9);
  EXPECT_LE(summary.avg_util.net, 1.0 + 1e-9);
  for (const auto& u : sim.timeline().values()) {
    EXPECT_LE(u.cpu, 1.0 + 1e-9);
    EXPECT_LE(u.net, 1.0 + 1e-9);
  }
}

TEST(ClusterSim, HarmonyBeatsIsolatedOnJctAndMakespan) {
  const auto harmony = run_policy(ClusterSimConfig::harmony(), 16, 24);
  const auto isolated = run_policy(ClusterSimConfig::isolated(), 16, 24);
  EXPECT_LT(harmony.mean_jct(), isolated.mean_jct());
  EXPECT_LT(harmony.makespan, isolated.makespan * 1.05);
}

TEST(ClusterSim, HarmonyUtilizationAboveIsolated) {
  ClusterSimConfig hc = ClusterSimConfig::harmony();
  hc.machines = 24;
  auto workload = small_workload(16);
  ClusterSim hsim(hc, workload, batch_arrivals(workload.size()));
  const auto h = hsim.run();

  ClusterSimConfig ic = ClusterSimConfig::isolated();
  ic.machines = 24;
  ClusterSim isim(ic, workload, batch_arrivals(workload.size()));
  const auto i = isim.run();

  EXPECT_GT(h.avg_util.cpu, i.avg_util.cpu);
}

TEST(ClusterSim, PredictionErrorsStaySmall) {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 24;
  auto workload = small_workload(12);
  for (auto& s : workload) s.iterations = 30;  // enough steady state to measure
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  sim.run();
  const auto& errs = sim.prediction_errors();
  ASSERT_GT(errs.group_iteration_rel_error.size(), 0u);
  // Small multi-job groups pay pipeline-fill gaps Eq. 1 doesn't model; the
  // full-size experiment (bench_fig13) lands lower.
  EXPECT_LT(errs.group_iteration_rel_error.mean(), 0.25);
}

TEST(ClusterSim, SpillPreventsOom) {
  // Without spill, a deliberately memory-tight run triggers OOM events;
  // with spill it must not.
  ClusterSimConfig no_spill = ClusterSimConfig::harmony();
  no_spill.spill_enabled = false;
  no_spill.machines = 12;
  ClusterSimConfig with_spill = ClusterSimConfig::harmony();
  with_spill.machines = 12;

  auto workload = small_workload(10);
  ClusterSim sim_no(no_spill, workload, batch_arrivals(workload.size()));
  const auto summary_no = sim_no.run();
  ClusterSim sim_yes(with_spill, workload, batch_arrivals(workload.size()));
  const auto summary_yes = sim_yes.run();
  EXPECT_EQ(summary_yes.oom_events, 0u);
  EXPECT_GE(summary_no.oom_events, summary_yes.oom_events);
  // Two jobs need more machines than the cluster has to fit without spill;
  // they run on all of it, thrashing, rather than waiting forever.
  EXPECT_EQ(summary_no.jobs.size(), 10u);
}

// A job that can never be placed must fail the run loudly. The corruption
// hook drops the FIFO head out of the waiting indexes, so no scheduling pass
// sees it again; the sampler then stops with the queue otherwise drained.
TEST(ClusterSim, StrandedJobThrows) {
  ClusterSimConfig config = ClusterSimConfig::isolated();
  config.machines = 8;
  auto workload = small_workload(6);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  sim.schedule_corruption_for_test(1.0, ClusterSim::Corruption::kStrandedWaitingJob);
  try {
    sim.run();
    FAIL() << "a stranded run returned a summary";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 of 6 jobs never finished"), std::string::npos) << what;
    EXPECT_NE(what.find("state waiting"), std::string::npos) << what;
  }
  EXPECT_LT(sim.events_fired(), 100'000u);
}

TEST(ClusterSim, NonFiniteArrivalThrows) {
  auto workload = small_workload(3);
  std::vector<double> arrivals = batch_arrivals(workload.size());
  arrivals[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ClusterSim(ClusterSimConfig::harmony(), workload, arrivals),
               std::invalid_argument);
}

TEST(ClusterSim, PoissonArrivalsRespectSubmitTimes) {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 16;
  auto workload = small_workload(8);
  const auto arrivals = poisson_arrivals(workload.size(), 300.0, 3);
  ClusterSim sim(config, workload, arrivals);
  const auto summary = sim.run();
  EXPECT_EQ(summary.jobs.size(), 8u);
  for (const auto& j : summary.jobs) {
    EXPECT_DOUBLE_EQ(j.submit_time, arrivals[j.job]);
    EXPECT_GT(j.finish_time, j.submit_time);
  }
}

// A lone job that finishes while a profiling visitor still shares its group
// leaves the group empty once the visitor parks. That group must dissolve
// even though no regroup stopped it, or it keeps every machine and the later
// arrivals never run.
TEST(ClusterSim, EmptiedGroupDissolvesSoLaterArrivalsRun) {
  auto workload = small_workload(10);
  std::vector<double> arrivals;
  for (std::size_t i = 0; i < workload.size(); ++i)
    arrivals.push_back(900.0 * static_cast<double>(i));
  for (const std::size_t machines : {6u, 8u, 10u, 12u, 16u, 20u, 24u, 32u, 48u}) {
    for (const bool spill : {true, false}) {
      SCOPED_TRACE(::testing::Message() << machines << " machines, spill " << spill);
      ClusterSimConfig config = ClusterSimConfig::harmony();
      config.machines = machines;
      config.spill_enabled = spill;
      ClusterSim sim(config, workload, arrivals);
      std::size_t finished = 0;
      EXPECT_NO_THROW(finished = sim.run().jobs.size());
      EXPECT_EQ(finished, workload.size());
    }
  }
}

TEST(ClusterSim, GroupStatsPopulated) {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 24;
  auto workload = small_workload(12);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  sim.run();
  EXPECT_GT(sim.group_dop_samples().size(), 0u);
  EXPECT_GT(sim.group_size_samples().size(), 0u);
  EXPECT_GT(sim.avg_concurrent_jobs(), 0.0);
  EXPECT_GT(sim.sched_invocations(), 0u);
}

TEST(ClusterSim, AlphaStatsTracked) {
  ClusterSimConfig config = ClusterSimConfig::harmony();
  config.machines = 10;  // tight memory: spill must engage
  auto workload = small_workload(8);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  sim.run();
  const auto stats = sim.alpha_stats();
  EXPECT_GE(stats.mean, 0.0);
  EXPECT_LE(stats.max, 1.0);
}

TEST(ClusterSim, MismatchedArrivalsThrow) {
  auto workload = small_workload(4);
  EXPECT_THROW(ClusterSim(ClusterSimConfig::harmony(), workload, batch_arrivals(3)),
               std::invalid_argument);
}

// With no machines nothing can ever be placed; the constructor must refuse
// the config rather than hand back a simulation whose run() never returns.
TEST(ClusterSim, ZeroMachinesThrow) {
  auto workload = small_workload(3);
  for (ClusterSimConfig config : {ClusterSimConfig::harmony(), ClusterSimConfig::isolated(),
                                  ClusterSimConfig::naive(1)}) {
    config.machines = 0;
    EXPECT_THROW(ClusterSim(config, workload, batch_arrivals(workload.size())),
                 std::invalid_argument);
  }
}

TEST(CoLocationOoms, TripleOverflowsPairFits) {
  // Fig. 4's memory story with Table I sizes on 16 machines.
  const auto catalog = make_catalog();
  auto find = [&](const std::string& app, const std::string& ds) {
    for (const auto& s : catalog)
      if (s.app == app && s.dataset == ds) return s;
    throw std::logic_error("not found");
  };
  const auto nmf = find("NMF", "Netflix64x");
  const auto mlr = find("MLR", "Synthetic16K");
  const auto lasso = find("Lasso", "SyntheticA");
  cluster::MachineSpec spec;
  cluster::MemoryModelParams params;
  EXPECT_FALSE(co_location_ooms({nmf, mlr}, 16, spec, params));
  EXPECT_FALSE(co_location_ooms({nmf, lasso}, 16, spec, params));
  EXPECT_TRUE(co_location_ooms({nmf, mlr, lasso}, 16, spec, params));
}

class PolicySweep : public ::testing::TestWithParam<int> {};

TEST_P(PolicySweep, AllJobsFinishExactlyOnce) {
  ClusterSimConfig config;
  switch (GetParam()) {
    case 0:
      config = ClusterSimConfig::isolated();
      break;
    case 1:
      config = ClusterSimConfig::naive(7);
      break;
    default:
      config = ClusterSimConfig::harmony();
      break;
  }
  config.machines = 20;
  auto workload = small_workload(10);
  ClusterSim sim(config, workload, batch_arrivals(workload.size()));
  const auto summary = sim.run();
  ASSERT_EQ(summary.jobs.size(), 10u);
  std::vector<std::uint32_t> ids;
  for (const auto& j : summary.jobs) ids.push_back(j.job);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicySweep, ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------------
// Event-order pins. Each case's run hash and event count were recorded
// from the simulator that queued every arrival up front; run() now keeps one
// arrival pending at a time under its reserved sequence number, and these
// cases cover the orderings that change could disturb. HarmonyNoSpill and
// HarmonyReschedule were recorded from the driver that still formed groups
// in two hand-copied loops; they pin the paths ClusterSim::form_group took
// over.

// Hashes the summary plus the sampler's concurrency averages, which see
// whether a same-instant arrival fired before or after a sampler tick.
std::uint64_t run_hash(const ClusterSim& sim, const RunSummary& s) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the raw bits
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  const auto mix_d = [&mix](double d) { mix(std::bit_cast<std::uint64_t>(d)); };
  for (const JobOutcome& j : s.jobs) {
    mix(j.job);
    mix_d(j.submit_time);
    mix_d(j.finish_time);
  }
  mix_d(s.makespan);
  mix_d(s.avg_util.cpu);
  mix_d(s.avg_util.net);
  mix_d(s.gc_time_fraction);
  mix_d(s.migration_overhead_sec);
  mix(s.regroup_events);
  mix(s.oom_events);
  mix_d(sim.avg_concurrent_jobs());
  mix_d(sim.avg_concurrent_groups());
  return h;
}

struct OrderCase {
  const char* name;
  ClusterSimConfig config;
  std::size_t machines;
  std::vector<double> (*arrivals)(std::size_t n);
  // Queues a corruption event before run() at the 4th arrival's instant: it
  // holds a lower sequence number than every arrival, so it fires first.
  bool corrupt_at_arrival;
  std::uint64_t want_hash;
  std::uint64_t want_events;
};

void PrintTo(const OrderCase& c, std::ostream* os) { *os << c.name; }

std::vector<double> all_at_zero(std::size_t n) { return batch_arrivals(n); }

// Submit times run backwards against ids, with ties: (time, id) order is
// neither id order nor a plain time sort of distinct values.
std::vector<double> out_of_id_order(std::size_t n) {
  std::vector<double> a(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = 400.0 * static_cast<double>((n - 1 - i) / 2);
  return a;
}

// Pairs of arrivals exactly on the utilization sampler's 60 s ticks.
std::vector<double> on_sampler_ticks(std::size_t n) {
  std::vector<double> a(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = 60.0 * static_cast<double>(1 + i / 2);
  return a;
}

ClusterSimConfig harmony_no_spill() {
  ClusterSimConfig c = ClusterSimConfig::harmony();
  c.spill_enabled = false;
  return c;
}

class ClusterSimOrder : public ::testing::TestWithParam<OrderCase> {};

TEST_P(ClusterSimOrder, MatchesRecordedRun) {
  const OrderCase& c = GetParam();
  ClusterSimConfig config = c.config;
  config.machines = c.machines;
  const auto workload = small_workload(10);
  const auto arrivals = c.arrivals(workload.size());
  ClusterSim sim(config, workload, arrivals);
  if (c.corrupt_at_arrival)
    sim.schedule_corruption_for_test(arrivals[3], ClusterSim::Corruption::kStaleSchedView);
  const RunSummary summary = sim.run();
  EXPECT_EQ(summary.jobs.size(), workload.size());
  EXPECT_EQ(sim.events_fired(), c.want_events);
  EXPECT_EQ(run_hash(sim, summary), c.want_hash);
}

INSTANTIATE_TEST_SUITE_P(
    Arrivals, ClusterSimOrder,
    ::testing::Values(
        OrderCase{"HarmonyBatch", ClusterSimConfig::harmony(), 20, all_at_zero, false,
                  5007325647469017844ULL, 657},
        OrderCase{"IsolatedBatch", ClusterSimConfig::isolated(), 12, all_at_zero, false,
                  9500748442603199652ULL, 1562},
        OrderCase{"HarmonyOutOfIdOrder", ClusterSimConfig::harmony(), 16, out_of_id_order,
                  false, 4948137746182741041ULL, 686},
        OrderCase{"NaiveOutOfIdOrder", ClusterSimConfig::naive(7), 16, out_of_id_order, false,
                  5552556426854313483ULL, 1482},
        OrderCase{"HarmonyOnSamplerTicks", ClusterSimConfig::harmony(), 16, on_sampler_ticks,
                  false, 14134179016332367749ULL, 701},
        OrderCase{"IsolatedOnSamplerTicks", ClusterSimConfig::isolated(), 64,
                  on_sampler_ticks, false, 3395036670171637789ULL, 559},
        // Same schedule as HarmonyOutOfIdOrder plus the one corruption event.
        OrderCase{"HarmonyCorruptionAtArrival", ClusterSimConfig::harmony(), 16,
                  out_of_id_order, true, 4948137746182741041ULL, 687},
        // No spill on 6 machines: co-locations overflow memory, so both the
        // pending-regroup and the spare-machine paths refuse jobs, place
        // them alone through place_fallback_isolated, and form no group for
        // a plan none of whose jobs fit.
        OrderCase{"HarmonyNoSpill", harmony_no_spill(), 6, all_at_zero, false,
                  12517040383366828946ULL, 4139},
        // Six kReschedule regroups on job completions; two of their plans
        // wait only on draining jobs and resolve without forming a group.
        OrderCase{"HarmonyReschedule", ClusterSimConfig::harmony(), 24, out_of_id_order,
                  false, 12063686944306623173ULL, 685}));

}  // namespace
}  // namespace harmony::exp
