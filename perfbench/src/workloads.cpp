// The four workloads. Each repetition builds its inputs from the seed with the
// program's own generators (exp::make_catalog, exp::batch_arrivals,
// exp::poisson_arrivals), constructs the ClusterSim or Service, and runs it.
// Host side every workload is a closed loop: the next repetition starts when
// the previous one returns. The arrival processes inside a run are open loops
// in simulated time.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "exp/arrivals.h"
#include "exp/cluster_sim.h"
#include "exp/workload.h"
#include "obs/metrics.h"
#include "svc/service.h"

namespace perfbench {
namespace {

using namespace harmony;

// Layer metrics a ClusterSim workload fills and the Service workload reports
// as 0, and the other way round. Every traced run emits both lists.
const std::vector<std::string> kExpLayer = {
    "exp.ctor_s",          "exp.sched_wall_s",       "exp.sched_calls",
    "exp.sched_us_per_call", "exp.run_self_s",       "exp.events_fired",
    "exp.concurrent_jobs", "exp.concurrent_groups",  "exp.group_jobs_max",
    "exp.group_dop_p50",   "exp.regroup_events",     "exp.groups_created",
    "exp.oom_events",      "exp.gc_pct",             "exp.net_util_pct",
    "exp.cpu_util_pct",    "exp.makespan_h",         "exp.speedup_vs_isolated_min",
    "exp.speedup_vs_isolated_median", "exp.collapsed_seeds", "regrouper.share.none",
    "regrouper.share.add_to_group", "regrouper.share.replace", "regrouper.share.reschedule",
};
const std::vector<std::string> kSvcLayer = {
    "svc.decision_us_mean", "svc.decision_us_p99",  "svc.queue_delay_mean_s",
    "svc.full_reschedules", "svc.groups_created",   "svc.decision_wall_share",
    "incremental.created_group_share",
};

// One repetition's outcome. Host times vary run to run; everything else is
// simulated and must repeat bit for bit for one seed (checked through the
// per-run fingerprints). setup_s and run_s are CPU seconds (cpu_seconds()).
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  double run_wall_s = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t failed = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t sched_events = 0;
  std::map<std::string, std::uint64_t> fingerprints;  // by run label
  double mean_jct_h = 0.0;
  double jct_p50_h = 0.0;
  std::map<std::string, double> layer;
  std::vector<std::string> lines;     // shape lines, printed once
  std::vector<std::string> problems;  // failed output checks
  std::vector<std::string> aborted;   // runs a check aborted; their jobs failed
};

// Set-up (inputs and constructor) runs this many times in each repetition;
// the median is reported, and the last object built is the one that runs.
constexpr int kSetups = 3;

std::string fmt(const char* f, double a) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, a);
  return buf;
}

// ---------------------------------------------------------------------------
// ClusterSim workloads

struct SimCase {
  std::string label;
  exp::ClusterSimConfig config;
  std::size_t jobs = 0;
  double mean_interarrival_sec = 0.0;  // 0 = every job at t = 0
  std::uint64_t arrival_seed = 0;
  bool subject = true;  // the policy the workload measures (not a baseline)
  std::uint64_t sweep_seed = 0;
};

struct SimOutcome {
  double setup_s = 0.0;  // CPU seconds
  double run_s = 0.0;    // CPU seconds
  double run_wall_s = 0.0;
  exp::RunSummary summary;
  std::uint64_t events = 0;
  double sched_s = 0.0;
  std::size_t sched_calls = 0;
  double concurrent_jobs = 0.0;
  double concurrent_groups = 0.0;
  double group_jobs_max = 0.0;
  double group_dop_p50 = 0.0;
  double jct_p50 = 0.0;
};

// The Table I catalog tiled out to n jobs, as harmony-sim --jobs does.
std::vector<exp::WorkloadSpec> tiled_catalog(std::size_t n) {
  const auto catalog = exp::make_catalog();
  std::vector<exp::WorkloadSpec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    exp::WorkloadSpec spec = catalog[i % catalog.size()];
    spec.id = static_cast<core::JobId>(i);
    out.push_back(spec);
  }
  return out;
}

SimOutcome run_case(const SimCase& c, Spans& spans) {
  SimOutcome o;
  std::optional<exp::ClusterSim> sim;
  std::vector<double> setups;
  Spans untraced(false);
  for (int i = 0; i < kSetups; ++i) {
    Spans& s = i + 1 == kSetups ? spans : untraced;
    sim.reset();
    const double c0 = cpu_seconds();
    std::vector<exp::WorkloadSpec> workload;
    std::vector<double> arrivals;
    {
      ScopedSpan span(s, "exp.inputs");
      workload = tiled_catalog(c.jobs);
      arrivals = c.mean_interarrival_sec > 0.0
                     ? exp::poisson_arrivals(c.jobs, c.mean_interarrival_sec, c.arrival_seed)
                     : exp::batch_arrivals(c.jobs);
    }
    {
      ScopedSpan span(s, "exp.ctor");
      sim.emplace(c.config, std::move(workload), std::move(arrivals));
    }
    setups.push_back(cpu_seconds() - c0);
  }
  o.setup_s = median(std::move(setups));
  const double c1 = cpu_seconds();
  const auto t1 = Clock::now();
  {
    ScopedSpan span(spans, "exp.run");
    o.summary = sim->run();
  }
  o.run_s = cpu_seconds() - c1;
  o.run_wall_s = seconds_since(t1);

  o.events = sim->events_fired();
  o.sched_s = sim->total_sched_seconds();
  o.sched_calls = sim->sched_invocations();
  o.concurrent_jobs = sim->avg_concurrent_jobs();
  o.concurrent_groups = sim->avg_concurrent_groups();
  o.group_jobs_max = sim->group_size_samples().empty() ? 0.0 : sim->group_size_samples().max();
  o.group_dop_p50 =
      sim->group_dop_samples().empty() ? 0.0 : sim->group_dop_samples().quantile(0.5);
  std::vector<double> jcts;
  jcts.reserve(o.summary.jobs.size());
  for (const exp::JobOutcome& j : o.summary.jobs) jcts.push_back(j.jct());
  o.jct_p50 = median(std::move(jcts));
  return o;
}

std::uint64_t fingerprint(const SimOutcome& o) {
  Fingerprint f;
  const exp::RunSummary& s = o.summary;
  for (const exp::JobOutcome& j : s.jobs) {
    f.add(j.job);
    f.add(j.submit_time);
    f.add(j.finish_time);
  }
  f.add(s.makespan);
  f.add(s.avg_util.cpu);
  f.add(s.avg_util.net);
  f.add(s.gc_time_fraction);
  f.add(s.migration_overhead_sec);
  f.add(s.regroup_events);
  f.add(s.oom_events);
  f.add(o.events);
  f.add(o.sched_calls);
  f.add(o.concurrent_jobs);
  f.add(o.concurrent_groups);
  return f.value();
}

std::string shape_line(const SimCase& c, const SimOutcome& o) {
  char buf[512];
  const exp::RunSummary& s = o.summary;
  std::snprintf(buf, sizeof buf,
                "  %-16s makespan %7.2f h | mean JCT %7.2f h | cpu %5.1f %% net %5.1f %% | "
                "%7.1f jobs in %6.1f groups | group jobs max %3.0f | group DoP p50 %5.1f | "
                "regroups %5zu | oom %4zu | gc %5.2f %% | sched calls %5zu",
                c.label.c_str(), s.makespan / 3600.0, s.mean_jct() / 3600.0,
                100.0 * s.avg_util.cpu, 100.0 * s.avg_util.net, o.concurrent_jobs,
                o.concurrent_groups, o.group_jobs_max, o.group_dop_p50, s.regroup_events,
                s.oom_events, 100.0 * s.gc_time_fraction, o.sched_calls);
  return buf;
}

std::vector<SimCase> sim_cases(const Options& opt, bool validate) {
  std::vector<SimCase> cases;
  auto harmony_config = [&](std::uint64_t seed, std::size_t machines) {
    exp::ClusterSimConfig cfg = exp::ClusterSimConfig::harmony();
    cfg.seed = seed;
    cfg.machines = machines;
    cfg.validate = validate;
    return cfg;
  };
  auto isolated_config = [&](std::uint64_t seed, std::size_t machines) {
    exp::ClusterSimConfig cfg = exp::ClusterSimConfig::isolated();
    cfg.seed = seed;
    cfg.machines = machines;
    cfg.validate = validate;
    return cfg;
  };
  if (opt.workload == "batch-colocate") {
    // Four simulator seeds per repetition, 1000 * seed + 1..4: one schedule's
    // run time depends on its seed (0.73 to 0.86 s over seeds 1-10, the same
    // on every repeat), the sum of four much less.
    const std::size_t jobs = opt.tiny ? 160 : 2000;
    const std::size_t machines = opt.tiny ? 20 : 200;
    for (std::uint64_t k = 1; k <= 4; ++k) {
      const std::uint64_t sim_seed = 1000 * opt.seed + k;
      cases.push_back({"harmony seed " + std::to_string(sim_seed),
                       harmony_config(sim_seed, machines), jobs, 0.0, 0, true, 0});
    }
  } else if (opt.workload == "poisson-sweep") {
    // Arrival seeds 1..N are harmony-sim's --seed values (seeds 1 and 3 are
    // the known collapses); the workload seed varies the simulator's noise
    // seed, so each run draws fresh subtask noise over the same arrivals.
    const std::uint64_t n = opt.tiny ? 3 : 32;
    for (std::uint64_t s = 1; s <= n; ++s) {
      const std::uint64_t noise_seed = 1000 * opt.seed + s;
      cases.push_back({"harmony seed " + std::to_string(s), harmony_config(noise_seed, 100),
                       80, 120.0, s, true, s});
      cases.push_back({"isolated seed " + std::to_string(s),
                       isolated_config(noise_seed, 100), 80, 120.0, s, false, s});
    }
  } else if (opt.workload == "sim-scale") {
    const std::size_t jobs = opt.tiny ? 2000 : 50000;
    const std::size_t machines = opt.tiny ? 200 : 5000;
    cases.push_back(
        {"isolated", isolated_config(opt.seed, machines), jobs, 2.0, opt.seed, true, 0});
  }
  return cases;
}

Rep sim_rep(const Options& opt, Spans& spans, bool validate) {
  Rep rep;
  std::vector<double> mean_jct, jct_p50, makespan, cpu, net, gc, cj, cg, gjmax, gdop, regroups,
      ooms;
  std::map<std::uint64_t, double> harmony_makespan, isolated_makespan;
  double events = 0.0, sched_s = 0.0, sched_calls = 0.0;
  for (const SimCase& c : sim_cases(opt, validate)) {
    rep.jobs += c.jobs;
    SimOutcome o;
    try {
      o = run_case(c, spans);
    } catch (const std::exception& e) {
      rep.failed += c.jobs;
      rep.aborted.push_back(c.label + ": " + e.what());
      continue;
    }
    const exp::RunSummary& s = o.summary;
    if (s.jobs.size() != c.jobs)
      rep.problems.push_back(c.label + ": " + std::to_string(s.jobs.size()) + " of " +
                             std::to_string(c.jobs) + " jobs finished");
    rep.failed += c.jobs - std::min(c.jobs, s.jobs.size());
    for (const exp::JobOutcome& j : s.jobs)
      if (!(std::isfinite(j.finish_time) && j.finish_time >= j.submit_time)) {
        rep.problems.push_back(c.label + ": job " + std::to_string(j.job) +
                               " finished before it was submitted");
        break;
      }
    rep.setup_s += o.setup_s;
    rep.run_s += o.run_s;
    rep.run_wall_s += o.run_wall_s;
    rep.sim_events += o.events;
    // Every job is one arrival and one completion for the scheduler to handle.
    rep.sched_events += 2 * s.jobs.size();
    rep.fingerprints[c.label] = fingerprint(o);
    events += static_cast<double>(o.events);
    sched_s += o.sched_s;
    sched_calls += static_cast<double>(o.sched_calls);
    rep.lines.push_back(shape_line(c, o));
    if (c.sweep_seed != 0)
      (c.subject ? harmony_makespan : isolated_makespan)[c.sweep_seed] = s.makespan;
    if (!c.subject) continue;
    mean_jct.push_back(s.mean_jct() / 3600.0);
    jct_p50.push_back(o.jct_p50 / 3600.0);
    makespan.push_back(s.makespan / 3600.0);
    cpu.push_back(100.0 * s.avg_util.cpu);
    net.push_back(100.0 * s.avg_util.net);
    gc.push_back(100.0 * s.gc_time_fraction);
    cj.push_back(o.concurrent_jobs);
    cg.push_back(o.concurrent_groups);
    gjmax.push_back(o.group_jobs_max);
    gdop.push_back(o.group_dop_p50);
    regroups.push_back(static_cast<double>(s.regroup_events));
    ooms.push_back(static_cast<double>(s.oom_events));
  }
  // Over several seeds (poisson-sweep) each simulated figure is the median
  // over seeds; work counts are totals.
  rep.mean_jct_h = median(mean_jct);
  rep.jct_p50_h = median(jct_p50);
  auto& L = rep.layer;
  L["exp.sched_wall_s"] = sched_s;
  L["exp.sched_calls"] = sched_calls;
  L["exp.sched_us_per_call"] = sched_calls > 0 ? 1e6 * sched_s / sched_calls : 0.0;
  L["exp.events_fired"] = events;
  L["exp.concurrent_jobs"] = median(cj);
  L["exp.concurrent_groups"] = median(cg);
  L["exp.group_jobs_max"] = median(gjmax);
  L["exp.group_dop_p50"] = median(gdop);
  L["exp.regroup_events"] = median(regroups);
  L["exp.oom_events"] = median(ooms);
  L["exp.gc_pct"] = median(gc);
  L["exp.net_util_pct"] = median(net);
  L["exp.cpu_util_pct"] = median(cpu);
  L["exp.makespan_h"] = median(makespan);

  std::vector<double> speedups;
  std::string list;
  for (const auto& [seed, harmony_s] : harmony_makespan) {
    const auto iso = isolated_makespan.find(seed);
    if (iso == isolated_makespan.end() || harmony_s <= 0.0) continue;
    const double speedup = iso->second / harmony_s;
    speedups.push_back(speedup);
    list += " " + std::to_string(seed) + ":" + fmt("%.3f", speedup) + (speedup < 1.0 ? "*" : "");
  }
  if (!speedups.empty()) {
    L["exp.speedup_vs_isolated_min"] = *std::min_element(speedups.begin(), speedups.end());
    L["exp.speedup_vs_isolated_median"] = median(speedups);
    L["exp.collapsed_seeds"] = static_cast<double>(
        std::count_if(speedups.begin(), speedups.end(), [](double s) { return s < 1.0; }));
    rep.lines.push_back("  speedup vs isolated by seed (* = below 1):" + list);
    rep.lines.push_back("  speedup min " + fmt("%.3f", L["exp.speedup_vs_isolated_min"]) +
                        " median " + fmt("%.3f", L["exp.speedup_vs_isolated_median"]) +
                        " | collapsed seeds " + fmt("%.0f", L["exp.collapsed_seeds"]) +
                        " of " + std::to_string(speedups.size()));
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Service workload

svc::ServiceConfig service_config(const Options& opt, bool validate) {
  svc::ServiceConfig cfg;
  cfg.machines = 10000;
  cfg.duration_sec = (opt.tiny ? 2.0 : 90.0) * 86400.0;
  cfg.arrival_kind = "poisson";
  // 0.05 jobs/s. At 0.08 jobs/s the number of drift repacks depended on the
  // seed (1402 to 2395 over seeds 1-8) and run time with it (2.7 to 4.2 s);
  // at 0.05 repacks run at the cooldown cadence for every seed (2938 to
  // 2998) and run time varies 2.2 to 2.5 s. Admission still sheds 1-3 %.
  cfg.mean_interarrival_sec = 20.0;
  cfg.seed = opt.seed;
  if (validate) cfg.validate_every_events = opt.tiny ? 512 : 16384;
  return cfg;
}

Rep service_rep(const Options& opt, Spans& spans, bool validate) {
  Rep rep;
  std::optional<svc::Service> service;
  std::vector<double> setups;
  Spans untraced(false);
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    const double c0 = cpu_seconds();
    ScopedSpan span(i + 1 == kSetups ? spans : untraced, "svc.ctor");
    service.emplace(service_config(opt, validate), exp::make_catalog());
    setups.push_back(cpu_seconds() - c0);
  }
  rep.setup_s = median(std::move(setups));
  const double c1 = cpu_seconds();
  const auto t1 = Clock::now();
  svc::ServiceSummary s;
  try {
    ScopedSpan span(spans, "svc.run");
    s = service->run();
  } catch (const std::exception& e) {
    rep.run_s = cpu_seconds() - c1;
    rep.run_wall_s = seconds_since(t1);
    rep.jobs = rep.failed = 1;
    rep.aborted.push_back(std::string("service: ") + e.what());
    return rep;
  }
  rep.run_s = cpu_seconds() - c1;
  rep.run_wall_s = seconds_since(t1);

  rep.jobs = s.arrivals;
  rep.failed = s.rejected;
  if (s.arrivals != s.admitted + s.rejected)
    rep.problems.push_back("arrivals " + std::to_string(s.arrivals) + " != admitted " +
                           std::to_string(s.admitted) + " + rejected " +
                           std::to_string(s.rejected));
  if (s.admitted != s.completed + s.running_at_end + s.queued_at_end)
    rep.problems.push_back("admitted " + std::to_string(s.admitted) + " != completed " +
                           std::to_string(s.completed) + " + running " +
                           std::to_string(s.running_at_end) + " + queued " +
                           std::to_string(s.queued_at_end));
  // With telemetry off the service's DES fires one event per arrival and one
  // per departure.
  rep.sim_events = s.arrivals + s.completed;
  rep.sched_events = s.scheduling_events;
  Fingerprint fp;
  fp.add_string(s.report());
  rep.fingerprints["service"] = fp.value();
  rep.mean_jct_h = s.jct_mean / 3600.0;
  rep.jct_p50_h = s.jct_p50 / 3600.0;

  auto& L = rep.layer;
  L["svc.decision_us_mean"] = s.decision_latency_mean_us;
  L["svc.decision_us_p99"] = s.decision_latency_p99_us;
  L["svc.queue_delay_mean_s"] = s.queue_delay_mean;
  L["svc.full_reschedules"] = static_cast<double>(s.full_reschedules);
  L["svc.groups_created"] = static_cast<double>(s.groups_created);
  const double decisions = static_cast<double>(s.incremental_joins + s.incremental_leaves);
  L["svc.decision_wall_share"] =
      s.wall_seconds > 0.0 ? 1e-6 * s.decision_latency_mean_us * decisions / s.wall_seconds
                           : 0.0;
  L["incremental.created_group_share"] =
      s.incremental_joins > 0
          ? static_cast<double>(s.groups_created) / static_cast<double>(s.incremental_joins)
          : 0.0;

  char buf[512];
  std::snprintf(buf, sizeof buf,
                "  service          arrivals %llu | admitted %llu | rejected %llu | "
                "completed %llu | scheduling events %llu | full reschedules %llu | "
                "groups created %llu | queue delay mean %.2f s | JCT mean %.2f h p50 %.2f h | "
                "decision mean %.2f us p99 %.2f us",
                static_cast<unsigned long long>(s.arrivals),
                static_cast<unsigned long long>(s.admitted),
                static_cast<unsigned long long>(s.rejected),
                static_cast<unsigned long long>(s.completed),
                static_cast<unsigned long long>(s.scheduling_events),
                static_cast<unsigned long long>(s.full_reschedules),
                static_cast<unsigned long long>(s.groups_created), s.queue_delay_mean,
                s.jct_mean / 3600.0, s.jct_p50 / 3600.0, s.decision_latency_mean_us,
                s.decision_latency_p99_us);
  rep.lines.push_back(buf);
  if (validate)
    rep.lines.push_back("  validation passes " + std::to_string(s.validations_run));
  return rep;
}

// ---------------------------------------------------------------------------

bool is_service(const Options& opt) { return opt.workload == "svc-steady"; }

Rep one_rep(const Options& opt, Spans& spans, bool validate) {
  return is_service(opt) ? service_rep(opt, spans, validate) : sim_rep(opt, spans, validate);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t counter_delta(const obs::MetricsSnapshot& before,
                            const obs::MetricsSnapshot& after, const std::string& name) {
  const auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  const auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

// Folds one repetition into the run's accounting and checks its outputs
// against a reference repetition's. A run a check aborted counts its jobs as
// failed operations. Returns false when the repetition's timings must not be
// used.
bool account(const Rep& rep, const Rep& reference, Result& out) {
  out.attempted += rep.jobs;
  out.failed += rep.failed;
  for (const std::string& why : rep.aborted) std::printf("ABORTED ON A CHECK: %s\n", why.c_str());
  for (const std::string& p : rep.problems) out.check(false, p);
  bool same = true;
  for (const auto& [label, fp] : rep.fingerprints) {
    const auto ref = reference.fingerprints.find(label);
    if (ref != reference.fingerprints.end() && ref->second != fp) same = false;
  }
  out.check(same, "simulated outputs differ between runs of one seed");
  return rep.problems.empty() && rep.aborted.empty() && same;
}

void print_lines(const Rep& rep) {
  for (const std::string& line : rep.lines) std::printf("%s\n", line.c_str());
}

}  // namespace

void run_workload(const Options& opt, Spans& spans, Result& out) {
  if (!is_service(opt) && sim_cases(opt, false).empty())
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  Spans untraced(false);

  if (opt.validated_pass) {
    // Untimed, with the deep validators on: they throw on the first corrupt
    // state, and must not change a single simulated output (run.py compares
    // the fingerprints with the timed processes').
    const Rep validated = one_rep(opt, untraced, true);
    for (const std::string& line : validated.lines)
      if (line.rfind("  validation passes", 0) == 0) std::printf("%s\n", line.c_str());
    std::printf("  validated pass: %zu of %zu runs completed\n", validated.fingerprints.size(),
                validated.fingerprints.size() + validated.aborted.size());
    account(validated, validated, out);
    out.fingerprints = validated.fingerprints;
    return;
  }

  if (!opt.trace) {
    // One timed repetition: this host's speed varies more between processes
    // than within one, so run.py pools many single-repetition processes.
    const Rep rep = one_rep(opt, untraced, false);
    print_lines(rep);
    out.fingerprints = rep.fingerprints;
    if (!account(rep, rep, out)) return;  // no timings from a failed run
    auto& m = out.metrics;
    m["setup_s"] = rep.setup_s;
    m["run_cpu_s"] = rep.run_s;
    m["sim_events_per_cpu_s"] = static_cast<double>(rep.sim_events) / rep.run_s;
    m["sched_events_per_cpu_s"] = static_cast<double>(rep.sched_events) / rep.run_s;
    m["peak_rss_mb"] = peak_rss_mb();
    m["mean_jct_h"] = rep.mean_jct_h;
    m["jct_p50_h"] = rep.jct_p50_h;
    return;
  }

  // Traced run: untraced and traced repetitions alternate so both see the
  // same machine state; their ratio is the tracing overhead. The number of
  // pairs is fixed (opt.reps), so the operations attempted repeat exactly.
  std::vector<Rep> plain, traced;
  std::vector<double> plain_cpu, traced_cpu, plain_wall, wall_per_cpu;
  obs::MetricsSnapshot before, after;
  for (std::size_t i = 0; i < std::max<std::size_t>(opt.reps, 2); ++i) {
    plain.push_back(one_rep(opt, untraced, false));
    if (account(plain.back(), plain.front(), out)) {
      const Rep& r = plain.back();
      plain_cpu.push_back(r.setup_s + r.run_s);
      plain_wall.push_back(r.run_wall_s);
      wall_per_cpu.push_back(r.run_s > 0.0 ? r.run_wall_s / r.run_s : 0.0);
    }
    const bool first = traced.empty();
    if (first) before = obs::MetricsRegistry::instance().snapshot();
    traced.push_back(one_rep(opt, spans, false));
    if (first) after = obs::MetricsRegistry::instance().snapshot();
    if (account(traced.back(), plain.front(), out))
      traced_cpu.push_back(traced.back().setup_s + traced.back().run_s);
  }
  print_lines(traced.front());

  auto& m = out.metrics;
  for (const auto& name : kExpLayer) m[name] = 0.0;
  for (const auto& name : kSvcLayer) m[name] = 0.0;
  for (const auto& [name, value] : traced.front().layer)
    m[name] = value;
  const double n = static_cast<double>(traced.size());
  if (!is_service(opt)) {
    // Means over the traced repetitions, so run - scheduler is a self time.
    double sched = 0.0;
    for (const Rep& r : traced) sched += r.layer.at("exp.sched_wall_s") / n;
    m["exp.ctor_s"] = spans.total("exp.ctor") / n;
    m["exp.sched_wall_s"] = sched;
    m["exp.run_self_s"] = spans.total("exp.run") / n - sched;
    m["exp.groups_created"] =
        static_cast<double>(counter_delta(before, after, "sim.groups_created"));
    const double none = static_cast<double>(
        counter_delta(before, after, "regrouper.arrival_wait") +
        counter_delta(before, after, "regrouper.finish_none"));
    const double add =
        static_cast<double>(counter_delta(before, after, "regrouper.arrival_add_to_group"));
    const double replace =
        static_cast<double>(counter_delta(before, after, "regrouper.finish_replace"));
    const double reschedule =
        static_cast<double>(counter_delta(before, after, "regrouper.finish_reschedule"));
    const double calls = none + add + replace + reschedule;
    if (calls > 0) {
      m["regrouper.share.none"] = none / calls;
      m["regrouper.share.add_to_group"] = add / calls;
      m["regrouper.share.replace"] = replace / calls;
      m["regrouper.share.reschedule"] = reschedule / calls;
    }
  } else {
    std::vector<double> mean_us, p99_us, share;
    for (const Rep& r : traced) {
      mean_us.push_back(r.layer.at("svc.decision_us_mean"));
      p99_us.push_back(r.layer.at("svc.decision_us_p99"));
      share.push_back(r.layer.at("svc.decision_wall_share"));
    }
    m["svc.decision_us_mean"] = median(mean_us);
    m["svc.decision_us_p99"] = median(p99_us);
    m["svc.decision_wall_share"] = median(share);
  }
  const double plain_median = median(plain_cpu);
  m["obs.trace_overhead_pct"] =
      plain_median > 0.0 ? 100.0 * (median(traced_cpu) / plain_median - 1.0) : 0.0;
  m["host.run_wall_s"] = median(plain_wall);
  m["host.wall_per_cpu"] = median(wall_per_cpu);
  std::printf("  traced repetitions %zu, untraced %zu\n", traced.size(), plain.size());
}

}  // namespace perfbench
