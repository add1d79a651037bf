// Per-layer replays: each calls one layer's public functions on inputs built
// from the workload seed. Calls that take 10 us or more get one span each;
// sub-microsecond calls are timed in batches (one span over many calls), so
// the clock reads do not dominate what they measure. Incremental joins and
// leaves (about a microsecond) are timed per call with bare clock reads,
// which their p50/p99 need.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/memory_model.h"
#include "common/rng.h"
#include "exp/cluster_sim.h"
#include "exp/workload.h"
#include "harmony/incremental.h"
#include "harmony/perf_model.h"
#include "harmony/profiler.h"
#include "harmony/regrouper.h"
#include "harmony/scheduler.h"
#include "harmony/spill_manager.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "svc/admission.h"

namespace perfbench {
namespace {

using namespace harmony;

// Keeps the results of batched calls alive so the compiler cannot drop them.
volatile double g_sink = 0.0;

// Profiles as the online profiler reports them: the tiled catalog with 3 %
// lognormal measurement noise drawn from the seed.
std::vector<core::SchedJob> measured_pool(std::size_t n, Rng& rng) {
  const auto catalog = exp::make_catalog();
  std::vector<core::SchedJob> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::JobProfile p = catalog[i % catalog.size()].profile();
    p.cpu_work *= rng.lognormal_noise(0.03);
    p.t_net *= rng.lognormal_noise(0.03);
    pool.push_back(core::SchedJob{static_cast<core::JobId>(i), p});
  }
  return pool;
}

double median_ms(const Spans& spans, const std::string& name) {
  return 1e3 * median(spans.durations(name));
}

// ns per call of a batched span holding `calls` calls.
double batch_ns(const Spans& spans, const std::string& name, std::size_t calls) {
  return 1e9 * spans.total(name) / static_cast<double>(calls);
}

std::vector<core::RunningGroup> running_groups(const core::ScheduleDecision& d,
                                               const std::vector<core::SchedJob>& pool) {
  std::vector<core::RunningGroup> groups;
  for (const core::GroupPlan& plan : d.groups) {
    core::RunningGroup g;
    g.machines = plan.machines;
    for (core::JobId id : plan.jobs) g.jobs.push_back(pool[id]);
    groups.push_back(std::move(g));
  }
  return groups;
}

void scheduler_and_regrouper(const Options& opt, Rng& rng, Spans& spans, Result& out) {
  auto& m = out.metrics;
  const core::Scheduler scheduler(exp::ClusterSimConfig::harmony().scheduler);

  // Algorithm 1 over batch-colocate's pool: every job queued on its machines.
  const std::size_t machines = opt.tiny ? 20 : 200;
  const auto pool = measured_pool(opt.tiny ? 160 : 2000, rng);
  core::ScheduleDecision decision;
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(spans, "scheduler.schedule");
    decision = scheduler.schedule(pool, machines);
  }
  m["scheduler.schedule_ms"] = median_ms(spans, "scheduler.schedule");
  m["scheduler.jobs_placed"] = static_cast<double>(decision.jobs_scheduled);
  m["scheduler.groups_planned"] = static_cast<double>(decision.groups.size());

  // Re-packs at the §V-F scales (jobs / machines).
  struct Size {
    const char* name;
    std::size_t jobs, machines;
  };
  const Size sizes[] = {{"scheduler.repack_ms.8k", opt.tiny ? 800u : 8000u,
                         opt.tiny ? 1000u : 10000u},
                        {"scheduler.repack_ms.20k", opt.tiny ? 2000u : 20000u,
                         opt.tiny ? 2000u : 20000u}};
  for (const Size& size : sizes) {
    const auto big = measured_pool(size.jobs, rng);
    for (int i = 0; i < 3; ++i) {
      ScopedSpan span(spans, size.name);
      g_sink = g_sink + scheduler.repack(big, size.machines).score;
    }
    m[size.name] = median_ms(spans, size.name);
  }

  // Regrouper over the groups of a running set about as large as the one
  // batch-colocate holds (764 concurrent jobs at 200 machines), with the
  // next jobs of the queue as the idle candidates.
  const std::size_t running = opt.tiny ? 64 : 800;
  const std::vector<core::SchedJob> running_set(pool.begin(), pool.begin() + running);
  const std::vector<core::SchedJob> idle(pool.begin() + running, pool.begin() + running + 32);
  auto groups = running_groups(scheduler.repack(running_set, machines), pool);
  const core::Regrouper regrouper(scheduler, exp::ClusterSimConfig::harmony().regrouper);

  const std::size_t finishes = opt.tiny ? 40 : 1000;
  for (std::size_t k = 0; k < finishes; ++k) {
    const std::size_t g = k % groups.size();
    auto& members = groups[g].jobs;
    if (members.empty()) continue;
    const std::size_t pos = (k / groups.size()) % members.size();
    const core::SchedJob finished = members[pos];
    members.erase(members.begin() + static_cast<std::ptrdiff_t>(pos));
    {
      ScopedSpan span(spans, "regrouper.on_job_finish");
      g_sink = g_sink + static_cast<double>(
                            regrouper.on_job_finish(finished, g, idle, groups, 0).kind);
    }
    members.insert(members.begin() + static_cast<std::ptrdiff_t>(pos), finished);
  }
  const auto finish_us = spans.durations("regrouper.on_job_finish");
  m["regrouper.finish_us_p50"] = 1e6 * quantile(finish_us, 0.5);
  m["regrouper.finish_us_p99"] = 1e6 * quantile(finish_us, 0.99);

  // Arrival path: the regrouper only considers a newcomer when nothing else
  // is idle, so the idle list is empty.
  const std::size_t arrivals = opt.tiny ? 100 : 1000;
  const std::vector<core::SchedJob> none;
  for (std::size_t k = 0; k < arrivals; ++k) {
    const core::SchedJob& newcomer = idle[k % idle.size()];
    ScopedSpan span(spans, "regrouper.on_job_arrival");
    g_sink = g_sink + static_cast<double>(regrouper.on_job_arrival(newcomer, none, groups).kind);
  }
  const auto arrival_us = spans.durations("regrouper.on_job_arrival");
  m["regrouper.arrival_us_p50"] = 1e6 * quantile(arrival_us, 0.5);
  m["regrouper.arrival_us_p99"] = 1e6 * quantile(arrival_us, 0.99);

  // Eq. 4 over those groups.
  std::vector<core::GroupShape> shapes;
  for (const core::RunningGroup& g : groups) {
    core::GroupShape s;
    s.machines = g.machines;
    for (const core::SchedJob& j : g.jobs) s.jobs.push_back(j.profile);
    shapes.push_back(std::move(s));
  }
  const std::size_t util_calls = opt.tiny ? 1000 : 20000;
  {
    ScopedSpan span(spans, "perf_model.cluster_utilization", util_calls);
    for (std::size_t i = 0; i < util_calls; ++i)
      g_sink = g_sink + core::PerfModel::cluster_utilization(shapes).cpu;
  }
  m["perf_model.cluster_util_ns"] = batch_ns(spans, "perf_model.cluster_utilization", util_calls);
}

void incremental(const Options& opt, Rng& rng, Spans& spans, Result& out) {
  auto& m = out.metrics;
  // svc-steady keeps about 350 jobs running on its 10k machines (0.05 jobs/s
  // x 1.95 h mean JCT). The replay adopts a full re-pack of that many jobs,
  // then churns as the service's event loop does: each step one departure
  // and one arrival. Arrivals the quality gate refuses wait; once the running
  // set has shrunk by a tenth, everything is re-packed and adopted again
  // (the service's drift escalation, timed as incremental.rebaseline_ms).
  const std::size_t machines = 10000;
  const std::size_t target = 350;
  const std::size_t steps = opt.tiny ? 2000 : 50000;
  const auto pool = measured_pool(target + steps, rng);
  const core::Scheduler full(core::Scheduler::Params{});
  core::IncrementalScheduler inc(core::IncrementalScheduler::Params{}, machines);

  std::vector<core::SchedJob> placed(pool.begin(), pool.begin() + target);
  std::vector<core::SchedJob> waiting;
  auto escalate = [&] {
    placed.insert(placed.end(), waiting.begin(), waiting.end());
    waiting.clear();
    const auto decision = full.repack(placed, machines);
    ScopedSpan span(spans, "incremental.rebaseline");
    inc.adopt(decision, placed);
    inc.rebaseline();
  };
  escalate();

  std::vector<double> join_us, leave_us;
  {
    ScopedSpan span(spans, "incremental.churn", 2 * steps);
    for (std::size_t next = target; next < pool.size(); ++next) {
      const auto victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(placed.size()) - 1));
      auto t0 = Clock::now();
      const bool left = inc.leave(placed[victim].id);
      leave_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
      out.check(left, "incremental replay: a placed job could not leave");
      placed[victim] = placed.back();
      placed.pop_back();

      t0 = Clock::now();
      const bool joined = inc.join(pool[next]).has_value();
      join_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
      (joined ? placed : waiting).push_back(pool[next]);
      if (10 * placed.size() < 9 * target) escalate();
    }
  }
  m["incremental.join_us_p50"] = quantile(join_us, 0.5);
  m["incremental.join_us_p99"] = quantile(join_us, 0.99);
  m["incremental.leave_us_p50"] = quantile(leave_us, 0.5);
  m["incremental.leave_us_p99"] = quantile(leave_us, 0.99);
  m["incremental.rebaseline_ms"] = median_ms(spans, "incremental.rebaseline");
  std::printf("  incremental replay: %zu steps, %zu re-packs, %zu running at the end\n", steps,
              spans.durations("incremental.rebaseline").size(), placed.size());
}

void small_models(const Options& opt, Rng& rng, Spans& spans, Result& out) {
  auto& m = out.metrics;
  const std::size_t calls = opt.tiny ? 10000 : 1000000;
  const auto catalog = exp::make_catalog();
  std::vector<double> occupancy(4096), objective(4096);
  for (double& x : occupancy) x = rng.uniform(0.5, 1.0);
  for (double& x : objective) x = rng.uniform(100.0, 200.0);
  const cluster::MachineSpec spec;

  core::Profiler profiler;
  {
    ScopedSpan span(spans, "profiler.record", calls);
    for (std::size_t i = 0; i < calls; ++i) {
      const auto& job = catalog[i % catalog.size()];
      profiler.record(static_cast<core::JobId>(i % catalog.size()), 16,
                      job.cpu_work / 16.0 * occupancy[i % occupancy.size()], job.t_net);
    }
  }
  {
    ScopedSpan span(spans, "profiler.profile", calls);
    for (std::size_t i = 0; i < calls; ++i)
      g_sink = g_sink + profiler.profile(static_cast<core::JobId>(i % catalog.size()))->cpu_work;
  }
  m["profiler.record_ns"] = batch_ns(spans, "profiler.record", calls);
  m["profiler.profile_ns"] = batch_ns(spans, "profiler.profile", calls);

  const core::SpillCostModel spill;
  {
    ScopedSpan span(spans, "spill.costs", calls);
    for (std::size_t i = 0; i < calls; ++i) {
      const auto& job = catalog[i % catalog.size()];
      g_sink = g_sink + spill.costs(job.input_bytes(), job.model_bytes(),
                                    occupancy[i % occupancy.size()] - 0.5, 16, spec)
                            .reload_seconds;
    }
  }
  m["spill.costs_ns"] = batch_ns(spans, "spill.costs", calls);

  core::AlphaController alpha(0.5);
  {
    ScopedSpan span(spans, "alpha.observe", calls);
    for (std::size_t i = 0; i < calls; ++i)
      g_sink = g_sink + alpha.observe(objective[i % objective.size()]);
  }
  m["alpha.observe_ns"] = batch_ns(spans, "alpha.observe", calls);

  const cluster::MemoryModel memory;
  {
    ScopedSpan span(spans, "memory.gc_slowdown", calls);
    for (std::size_t i = 0; i < calls; ++i)
      g_sink = g_sink + memory.gc_slowdown(occupancy[i % occupancy.size()]);
  }
  m["memory.gc_slowdown_ns"] = batch_ns(spans, "memory.gc_slowdown", calls);
}

// Hold model: every fired event schedules one successor at an exponential
// delay, so the pending set stays at its initial size.
struct Hold {
  sim::Simulator& sim;
  const std::vector<double>& delays;
  std::size_t next = 0;

  void schedule() {
    const double dt = delays[next++ % delays.size()];
    sim.schedule_in(dt, Fire{this});
  }
  struct Fire {
    Hold* hold;
    void operator()() const { hold->schedule(); }
  };
};

void des_core(const Options& opt, Rng& rng, Spans& spans, Result& out) {
  auto& m = out.metrics;
  std::vector<double> delays(1 << 16);
  for (double& d : delays) d = rng.exponential(1.0);
  const std::size_t holds = opt.tiny ? 20000 : 1000000;
  struct Size {
    const char* name;
    std::size_t pending;
  };
  for (const Size size : {Size{"sim.hold_ns.1k", 1000}, Size{"sim.hold_ns.100k", 100000}}) {
    sim::Simulator sim;
    Hold hold{sim, delays};
    for (std::size_t i = 0; i < size.pending; ++i) hold.schedule();
    {
      ScopedSpan span(spans, size.name, holds);
      for (std::size_t i = 0; i < holds; ++i) sim.step();
    }
    out.check(sim.pending() == size.pending, "hold model lost events");
    m[size.name] = batch_ns(spans, size.name, holds);
  }

  const std::size_t submits = opt.tiny ? 10000 : 500000;
  sim::Simulator sim;
  sim::FifoResource cpu(sim, "cpu");
  std::size_t done = 0;
  {
    ScopedSpan span(spans, "sim.fifo_submit", submits);
    for (std::size_t i = 0; i < submits; ++i)
      cpu.submit(delays[i % delays.size()], [&done] { ++done; });
  }
  sim.run();
  out.check(done == submits, "FIFO resource dropped tasks");
  m["sim.fifo_submit_ns"] = batch_ns(spans, "sim.fifo_submit", submits);
}

void admission(const Options& opt, Rng& rng, Spans& spans, Result& out) {
  const std::size_t offers = opt.tiny ? 10000 : 1000000;
  const auto pool = measured_pool(1024, rng);
  svc::AdmissionQueue queue(svc::AdmissionPolicy::kFifo, offers);
  {
    ScopedSpan span(spans, "svc.admission_offer", offers);
    for (std::size_t i = 0; i < offers; ++i) {
      svc::PendingJob p;
      p.job = pool[i % pool.size()];
      p.seq = i;
      queue.offer(std::move(p));
    }
  }
  out.check(queue.size() == offers && queue.rejected() == 0, "admission queue shed jobs");
  out.metrics["svc.admission_offer_ns"] = batch_ns(spans, "svc.admission_offer", offers);
}

}  // namespace

void run_replays(const Options& opt, Spans& spans, Result& out) {
  Rng rng(opt.seed);
  scheduler_and_regrouper(opt, rng, spans, out);
  incremental(opt, rng, spans, out);
  small_models(opt, rng, spans, out);
  des_core(opt, rng, spans, out);
  admission(opt, rng, spans, out);
  std::printf("  replay checksum %.6g\n", static_cast<double>(g_sink));
}

}  // namespace perfbench
