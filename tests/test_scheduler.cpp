#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <queue>
#include <random>
#include <set>

#include "common/rng.h"
#include "common/search.h"
#include "harmony/scheduler.h"

namespace harmony::core {
namespace {

SchedJob job(JobId id, double cpu_work, double t_net) {
  return SchedJob{id, JobProfile{cpu_work, t_net}};
}

// Collects all job ids placed by a decision.
std::multiset<JobId> placed_ids(const ScheduleDecision& d) {
  std::multiset<JobId> ids;
  for (const GroupPlan& g : d.groups)
    for (JobId id : g.jobs) ids.insert(id);
  return ids;
}

std::size_t total_machines(const ScheduleDecision& d) {
  std::size_t total = 0;
  for (const GroupPlan& g : d.groups) total += g.machines;
  return total;
}

TEST(PickNumGroups, BalancesCpuAgainstNet) {
  Scheduler s;
  // Each job: cpu_work = 100, t_net = 10. With M = 100, T_cpu(M/nG) matches
  // t_net when DoP = 10, i.e. nG = 10 — but only 4 jobs exist, so <= 4.
  std::vector<SchedJob> jobs{job(0, 100, 10), job(1, 100, 10), job(2, 100, 10),
                             job(3, 100, 10)};
  const std::size_t ng = s.pick_num_groups(jobs, 100);
  EXPECT_LE(ng, 4u);
  EXPECT_GE(ng, 1u);
}

TEST(PickNumGroups, CpuHeavyJobsPreferFewGroups) {
  Scheduler s;
  // Very CPU-heavy: bigger DoP (fewer groups) balances |T_cpu - T_net|.
  std::vector<SchedJob> cpu_heavy{job(0, 1000, 1), job(1, 1000, 1), job(2, 1000, 1),
                                  job(3, 1000, 1)};
  std::vector<SchedJob> net_heavy{job(0, 10, 50), job(1, 10, 50), job(2, 10, 50),
                                  job(3, 10, 50)};
  EXPECT_LE(s.pick_num_groups(cpu_heavy, 16), s.pick_num_groups(net_heavy, 16));
}

TEST(PickNumGroups, EmptyJobsDefaultsToOneGroup) {
  Scheduler s;
  EXPECT_EQ(s.pick_num_groups({}, 100), 1u);
}

TEST(PickNumGroups, ZeroMachinesDefaultsToOneGroup) {
  std::vector<SchedJob> jobs{job(0, 100, 10), job(1, 100, 10)};
  Scheduler s;
  EXPECT_EQ(s.pick_num_groups(jobs, 0), 1u);
}

TEST(PickNumGroups, SingleJobGetsOneGroup) {
  // max_groups = jobs.size() caps the search at 1, whatever the balance says.
  std::vector<SchedJob> net_heavy{job(0, 1, 1000)};
  Scheduler s;
  EXPECT_EQ(s.pick_num_groups(net_heavy, 64), 1u);
}

TEST(PickNumGroups, TiesResolveToSmallestGroupCount) {
  // A job with t_net = 0 has cost |T_cpu(M/nG)| = cpu_work * nG / M, strictly
  // increasing in nG; a job with cpu_work = 0 has cost t_net independent of
  // nG. Jointly the total is strictly increasing, so nG = 1 wins outright —
  // and for exact ties the ascending scan with a strict '<' keeps the
  // smallest candidate. Exercise an exact tie: two jobs whose costs swap
  // symmetrically between nG = 1 and nG = 2.
  // cost(nG) = |a*nG/M - n_a| + |b*nG/M - n_b| with M = 2:
  //   job A: cpu 2, net 2  -> |nG - 2|   (cost 1 at nG=1, 0 at nG=2)
  //   job B: cpu 2, net 1  -> |nG - 1|   (cost 0 at nG=1, 1 at nG=2)
  // Total cost is 1 at both candidates: the tie must resolve to nG = 1.
  std::vector<SchedJob> jobs{job(0, 2, 2), job(1, 2, 1)};
  Scheduler s;
  EXPECT_EQ(s.pick_num_groups(jobs, 2), 1u);
}

TEST(AssignJobs, PartitionIsCompleteAndDisjoint) {
  Scheduler s;
  std::vector<SchedJob> jobs;
  Rng rng(5);
  for (JobId i = 0; i < 12; ++i)
    jobs.push_back(job(i, rng.uniform(10, 200), rng.uniform(1, 50)));
  const auto groups = s.assign_jobs(jobs, 3, 8);
  ASSERT_EQ(groups.size(), 3u);
  std::set<JobId> seen;
  std::size_t count = 0;
  for (const auto& g : groups)
    for (const SchedJob& j : g) {
      EXPECT_TRUE(seen.insert(j.id).second) << "duplicate job " << j.id;
      ++count;
    }
  EXPECT_EQ(count, 12u);
}

TEST(AssignJobs, SimilarSizesStayTogether) {
  Scheduler s;
  // Two big jobs and four small ones: chunked assignment by sorted iteration
  // time keeps the two big ones in the same group (avoiding job-bound groups
  // everywhere).
  std::vector<SchedJob> jobs{job(0, 800, 100), job(1, 790, 100), job(2, 10, 2),
                             job(3, 11, 2),    job(4, 12, 2),    job(5, 10, 2)};
  const auto groups = s.assign_jobs(jobs, 3, 8);
  // Find group of job 0; job 1 must be in the same one.
  for (const auto& g : groups) {
    const bool has0 = std::any_of(g.begin(), g.end(), [](auto& j) { return j.id == 0; });
    const bool has1 = std::any_of(g.begin(), g.end(), [](auto& j) { return j.id == 1; });
    EXPECT_EQ(has0, has1);
  }
}

TEST(AssignJobs, SwapsReduceImbalance) {
  Scheduler s;
  // Jobs with equal iteration time but opposite skews; fine-tuning should mix
  // CPU-heavy and network-heavy jobs within groups.
  std::vector<SchedJob> jobs;
  for (JobId i = 0; i < 4; ++i) jobs.push_back(job(i, 80, 2));    // cpu-heavy
  for (JobId i = 4; i < 8; ++i) jobs.push_back(job(i, 16, 10));   // net-heavy
  const std::size_t dop = 8;
  const auto groups = s.assign_jobs(jobs, 2, dop);
  ASSERT_EQ(groups.size(), 2u);
  auto imbalance = [&](const std::vector<SchedJob>& g) {
    double cpu = 0, net = 0;
    for (const auto& j : g) {
      cpu += j.profile.t_cpu(dop);
      net += j.profile.t_net;
    }
    return std::abs(cpu - net);
  };
  // Both groups should be reasonably balanced — each holds a mix.
  for (const auto& g : groups) EXPECT_LT(imbalance(g), 25.0);
}

TEST(AllocateMachines, EveryGroupGetsAtLeastOne) {
  Scheduler s;
  std::vector<std::vector<SchedJob>> groups{{job(0, 100, 1)}, {job(1, 1, 100)}};
  const auto alloc = s.allocate_machines(groups, 10);
  ASSERT_EQ(alloc.size(), 2u);
  EXPECT_GE(alloc[0], 1u);
  EXPECT_GE(alloc[1], 1u);
  EXPECT_LE(alloc[0] + alloc[1], 10u);
}

TEST(AllocateMachines, StopsAtBalancePoint) {
  Scheduler s;
  // One job: t_cpu(m) = 60/m, t_net = 20 -> balance at m = 3; extra machines
  // past that only make the group network-bound and must not be burned.
  std::vector<std::vector<SchedJob>> groups{{job(0, 60, 20)}};
  const auto alloc = s.allocate_machines(groups, 50);
  EXPECT_EQ(alloc[0], 3u);
}

TEST(AllocateMachines, CpuBoundGroupGetsMore) {
  Scheduler s;
  std::vector<std::vector<SchedJob>> groups{{job(0, 1000, 1)},   // very CPU-bound
                                            {job(1, 1, 100)}};   // network-bound
  const auto alloc = s.allocate_machines(groups, 12);
  EXPECT_GT(alloc[0], alloc[1]);
}

TEST(AllocateMachines, FewerMachinesThanGroupsThrows) {
  Scheduler s;
  std::vector<std::vector<SchedJob>> groups{{job(0, 1, 1)}, {job(1, 1, 1)}, {job(2, 1, 1)}};
  EXPECT_THROW(s.allocate_machines(groups, 2), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Step 3 against the grant-by-grant greedy that allocate_machines computes
// without replaying it.

double reference_imbalance(const std::vector<SchedJob>& group, std::size_t machines) {
  double cpu = 0.0;
  double net = 0.0;
  for (const SchedJob& j : group) {
    cpu += j.profile.t_cpu(machines);
    net += j.profile.t_net;
  }
  return cpu - net;
}

double reference_gain(const std::vector<SchedJob>& group, std::size_t machines) {
  return std::abs(reference_imbalance(group, machines)) -
         std::abs(reference_imbalance(group, machines + 1));
}

// The greedy as Algorithm 1 states it: one machine at a time to the group
// whose |imbalance| drops most (ties to the smaller index), until the
// machines run out or no grant helps. A max-heap keyed on each group's gain.
std::vector<std::size_t> reference_greedy(const std::vector<std::vector<SchedJob>>& groups,
                                          std::size_t machines) {
  struct Entry {
    double gain = 0.0;
    std::size_t group = 0;
    bool operator<(const Entry& o) const {
      if (gain != o.gain) return gain < o.gain;
      return group > o.group;
    }
  };
  std::vector<std::size_t> alloc(groups.size(), 1);
  std::size_t remaining = machines - groups.size();
  std::priority_queue<Entry> heap;
  for (std::size_t g = 0; g < groups.size(); ++g) heap.push({reference_gain(groups[g], 1), g});
  while (remaining > 0 && !heap.empty()) {
    const Entry top = heap.top();
    heap.pop();
    if (!(top.gain > 0.0)) break;
    ++alloc[top.group];
    --remaining;
    heap.push({reference_gain(groups[top.group], alloc[top.group]), top.group});
  }
  return alloc;
}

// A group's allocation when machines are plentiful, by plain bisection over
// [1, machines]: the smallest a with imb(a+1) <= 0, one more if that last
// grant still helps; machines + 1 when no crossing is in range.
std::size_t reference_solo_target(const std::vector<SchedJob>& group, std::size_t machines) {
  if (!(reference_imbalance(group, machines + 1) <= 0.0)) return machines + 1;
  std::size_t lo = 1, hi = machines;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (reference_imbalance(group, mid + 1) <= 0.0)
      hi = mid;
    else
      lo = mid + 1;
  }
  return reference_gain(group, lo) > 0.0 ? lo + 1 : lo;
}

// Plain bisection over [1, n] for the first a with pred(a).
template <typename Pred>
std::size_t bisect_first_true(std::size_t n, Pred pred) {
  std::size_t lo = 1, hi = n + 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (pred(mid))
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

TEST(GallopSearch, MatchesBisectionFromAnyHint) {
  std::mt19937_64 rng(18);
  for (int i = 0; i < 200000; ++i) {
    constexpr std::size_t kSizes[] = {0, 1, 2, 3, 10, 200, 20000, std::size_t{1} << 40};
    const std::size_t n = kSizes[rng() % std::size(kSizes)];
    const std::size_t boundary = 1 + rng() % (n + 1);  // n + 1: never true
    // Hints anywhere, including outside [1, n] and far from the boundary.
    const std::size_t hint = rng() % 4 == 0 ? boundary + rng() % 3 - 1 : rng() % (n + 3);
    std::size_t probes = 0;
    const auto pred = [&](std::size_t a) {
      EXPECT_GE(a, 1u);
      EXPECT_LE(a, n);
      ++probes;
      return a >= boundary;
    };
    ASSERT_EQ(common::gallop_first_true(n, hint, pred),
              bisect_first_true(n, [&](std::size_t a) { return a >= boundary; }))
        << "n=" << n << " boundary=" << boundary << " hint=" << hint;
    // A hint at or next to the boundary settles it in a few probes.
    if (n > 0 && hint + 1 >= boundary && hint <= boundary) {
      EXPECT_LE(probes, 3u);
    }
  }
}

struct AllocCase {
  std::vector<std::vector<SchedJob>> groups;
  std::size_t machines = 0;
};

// 1-8 groups of 1-6 jobs at one random scale in [1e-6, 1e6]; a quarter of
// the groups repeat an earlier one, so gains tie exactly across groups.
// Per-job balance points cpu_work/t_net span 0.3 to 3e4 machines, and the
// cluster is drawn from three sizes up to 20,000 machines.
AllocCase random_alloc_case(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  AllocCase c;
  const std::size_t ng = 1 + rng() % 8;
  const double scale = std::pow(10.0, -6.0 + 12.0 * unit(rng));
  JobId id = 0;
  for (std::size_t g = 0; g < ng; ++g) {
    if (g > 0 && unit(rng) < 0.25) {
      c.groups.push_back(c.groups[rng() % g]);
      continue;
    }
    std::vector<SchedJob> group;
    const std::size_t size = 1 + rng() % 6;
    for (std::size_t j = 0; j < size; ++j) {
      const double t_net = scale * std::pow(10.0, unit(rng) - 0.5);
      const double cpu_work = t_net * std::pow(10.0, -0.5 + 5.0 * unit(rng));
      group.push_back(job(id++, cpu_work, t_net));
    }
    c.groups.push_back(std::move(group));
  }
  constexpr std::size_t kSpans[] = {16, 400, 20000};
  c.machines = ng + rng() % kSpans[rng() % 3];
  return c;
}

TEST(AllocateMachines, MatchesGrantByGrantGreedy) {
  Scheduler s;
  std::mt19937_64 rng(15);
  std::size_t constrained = 0, plentiful = 0;
  for (int i = 0; i < 4000; ++i) {
    const AllocCase c = random_alloc_case(rng);
    const auto got = s.allocate_machines(c.groups, c.machines);
    ASSERT_EQ(got, reference_greedy(c.groups, c.machines))
        << "case " << i << ": " << c.groups.size() << " groups, " << c.machines << " machines";
    std::size_t wanted = 0;
    for (const auto& g : c.groups) wanted += reference_solo_target(g, c.machines) - 1;
    ++(wanted > c.machines - c.groups.size() ? constrained : plentiful);
  }
  // Both regimes are exercised: machines running out (the water-fill) and
  // every group reaching its balance point.
  EXPECT_GT(constrained, 600u);
  EXPECT_GT(plentiful, 600u);
}

TEST(AllocateMachines, GallopMatchesBisectionWhenMachinesArePlentiful) {
  Scheduler s;
  std::mt19937_64 rng(16);
  for (int i = 0; i < 3000; ++i) {
    AllocCase c = random_alloc_case(rng);
    // Give each group the chance to reach its target, so the result is
    // exactly the per-group balance searches.
    std::vector<std::size_t> targets;
    std::size_t wanted = 0;
    for (const auto& g : c.groups) {
      targets.push_back(reference_solo_target(g, c.machines));
      wanted += targets.back() - 1;
    }
    if (wanted > c.machines - c.groups.size()) continue;
    EXPECT_EQ(s.allocate_machines(c.groups, c.machines), targets) << "case " << i;
  }
}

TEST(AllocateMachines, SingleGroupAndDuplicatedGroups) {
  Scheduler s;
  const std::vector<SchedJob> group{job(0, 900, 2), job(1, 300, 5), job(2, 60, 1)};
  // One group takes its balance point or, short of it, every machine.
  for (const std::size_t machines : {1u, 2u, 7u, 64u, 140u, 141u, 1000u, 20000u}) {
    const std::vector<std::vector<SchedJob>> one{group};
    EXPECT_EQ(s.allocate_machines(one, machines), reference_greedy(one, machines))
        << machines;
  }
  // Identical groups tie on every gain: the smaller index wins each tie, so
  // the split differs by at most one machine, in the first group's favour.
  for (const std::size_t copies : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
    const std::vector<std::vector<SchedJob>> same(copies, group);
    for (const std::size_t machines :
         {copies, copies + 1, 2 * copies + 1, std::size_t{100}, std::size_t{20000}}) {
      const auto got = s.allocate_machines(same, machines);
      EXPECT_EQ(got, reference_greedy(same, machines)) << copies << " x " << machines;
      EXPECT_LE(got.front() - got.back(), 1u);
    }
  }
}

TEST(AllocateMachines, NonFiniteProfilesTerminateWithinTheCluster) {
  Scheduler s;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double odd[] = {inf, -inf, nan, 0.0, -1.0, 1e308, 5e-324};
  std::mt19937_64 rng(17);
  for (int i = 0; i < 2000; ++i) {
    AllocCase c = random_alloc_case(rng);
    // Poison a few profile fields.
    for (auto& g : c.groups)
      for (SchedJob& j : g) {
        if (rng() % 4 == 0) j.profile.cpu_work = odd[rng() % std::size(odd)];
        if (rng() % 4 == 0) j.profile.t_net = odd[rng() % std::size(odd)];
      }
    const auto alloc = s.allocate_machines(c.groups, c.machines);
    ASSERT_EQ(alloc.size(), c.groups.size());
    std::size_t total = 0;
    for (std::size_t a : alloc) {
      EXPECT_GE(a, 1u);
      total += a;
    }
    EXPECT_LE(total, c.machines) << "case " << i;
  }
}

TEST(Schedule, EmptyInputs) {
  Scheduler s;
  EXPECT_TRUE(s.schedule({}, 10).empty());
  EXPECT_THROW(s.schedule(std::vector<SchedJob>{job(0, 1, 1)}, 0), std::invalid_argument);
}

TEST(Schedule, InvalidProfileThrows) {
  Scheduler s;
  std::vector<SchedJob> jobs{SchedJob{0, JobProfile{0.0, 0.0}}};
  EXPECT_THROW(s.schedule(jobs, 4), std::invalid_argument);
}

TEST(Schedule, SingleJobUsesAllMachines) {
  Scheduler s;
  std::vector<SchedJob> jobs{job(0, 100, 10)};
  const auto d = s.schedule(jobs, 8);
  ASSERT_EQ(d.groups.size(), 1u);
  EXPECT_EQ(d.groups[0].machines, 8u);
  EXPECT_EQ(d.jobs_scheduled, 1u);
}

TEST(Schedule, ComplementaryPairBeatsSingleJob) {
  Scheduler s;
  // A CPU-heavy and network-heavy pair multiplexes to near-full utilization;
  // the scheduler should co-locate them rather than stop at one job.
  std::vector<SchedJob> jobs{job(0, 160, 4), job(1, 32, 20)};
  const auto d = s.schedule(jobs, 8);
  EXPECT_EQ(d.jobs_scheduled, 2u);
  ASSERT_EQ(d.groups.size(), 1u);
  EXPECT_EQ(d.groups[0].jobs.size(), 2u);
  EXPECT_GT(d.predicted_util.cpu, 0.6);
}

TEST(Schedule, StopsGrowingWhenUtilizationDrops) {
  Scheduler s;
  // First two jobs complement perfectly; the third is a monster that would
  // make everything job-bound.
  std::vector<SchedJob> jobs{job(0, 80, 10), job(1, 80, 10), job(2, 8000, 1000)};
  const auto d = s.schedule(jobs, 8);
  EXPECT_LE(d.jobs_scheduled, 2u);
}

TEST(Schedule, UtilizationWithinBounds) {
  Scheduler s;
  Rng rng(17);
  std::vector<SchedJob> jobs;
  for (JobId i = 0; i < 20; ++i)
    jobs.push_back(job(i, rng.uniform(50, 500), rng.uniform(5, 60)));
  const auto d = s.schedule(jobs, 40);
  EXPECT_GT(d.predicted_util.cpu, 0.0);
  EXPECT_LE(d.predicted_util.cpu, 1.0 + 1e-9);
  EXPECT_LE(d.predicted_util.net, 1.0 + 1e-9);
}

// Structural invariants across a parameter sweep.
class ScheduleInvariants
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(ScheduleInvariants, DecisionIsWellFormed) {
  const auto [num_jobs, machines, seed] = GetParam();
  Scheduler s;
  Rng rng(seed);
  std::vector<SchedJob> jobs;
  for (JobId i = 0; i < num_jobs; ++i)
    jobs.push_back(job(i, rng.uniform(20, 2000), rng.uniform(2, 120)));
  const auto d = s.schedule(jobs, machines);

  // (1) No duplicate placements; placed ids come from the input prefix.
  const auto ids = placed_ids(d);
  EXPECT_EQ(ids.size(), std::set<JobId>(ids.begin(), ids.end()).size());
  for (JobId id : ids) EXPECT_LT(id, num_jobs);
  EXPECT_EQ(ids.size(), d.jobs_scheduled);

  // (2) Machines: every group >= 1, total never exceeds the cluster (the
  // allocator may stop early at the compute/communication balance point).
  for (const GroupPlan& g : d.groups) {
    EXPECT_GE(g.machines, 1u);
    EXPECT_FALSE(g.jobs.empty());
  }
  EXPECT_LE(total_machines(d), machines);
  EXPECT_GE(total_machines(d), d.groups.size());

  // (3) Utilization within physical bounds.
  EXPECT_LE(d.predicted_util.cpu, 1.0 + 1e-9);
  EXPECT_LE(d.predicted_util.net, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScheduleInvariants,
    ::testing::Combine(::testing::Values<std::size_t>(1, 3, 8, 20, 50),
                       ::testing::Values<std::size_t>(4, 16, 100),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(Schedule, ScalesToThousandsOfJobs) {
  Scheduler s;
  Rng rng(23);
  std::vector<SchedJob> jobs;
  for (JobId i = 0; i < 2000; ++i)
    jobs.push_back(job(i, rng.uniform(20, 2000), rng.uniform(2, 120)));
  const auto start = std::chrono::steady_clock::now();
  const auto d = s.schedule(jobs, 2000);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_FALSE(d.empty());
  EXPECT_LT(elapsed, 5.0);  // §V-F: must stay interactive at scale
}

}  // namespace
}  // namespace harmony::core
