#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "common/stats.h"
#include "harmony/regrouper.h"

namespace harmony::core {
namespace {

SchedJob job(JobId id, double cpu_work, double t_net) {
  return SchedJob{id, JobProfile{cpu_work, t_net}};
}

class RegrouperTest : public ::testing::Test {
 protected:
  Scheduler scheduler_;
  Regrouper regrouper_{scheduler_};
};

TEST_F(RegrouperTest, SimilarWithinFivePercent) {
  const JobProfile a{100.0, 10.0};
  const JobProfile b{103.0, 10.2};  // ~3% off in both metrics
  const JobProfile c{160.0, 10.0};  // way off in iteration time
  EXPECT_TRUE(regrouper_.similar(a, b, 8));
  EXPECT_FALSE(regrouper_.similar(a, c, 8));
}

TEST_F(RegrouperTest, ArrivalWaitsWhenIdleJobsExist) {
  // Other profiled/paused jobs exist => Harmony is already satisfied with the
  // running set; the new arrival waits.
  std::vector<SchedJob> idle{job(5, 100, 10)};
  std::vector<RunningGroup> groups{{{job(1, 80, 20)}, 8}};
  const auto action = regrouper_.on_job_arrival(job(9, 50, 50), idle, groups);
  EXPECT_EQ(action.kind, RegroupAction::Kind::kNone);
}

TEST_F(RegrouperTest, ArrivalJoinsComplementaryGroup) {
  // Group 0 is network-bound; a CPU-heavy newcomer raises its utilization.
  std::vector<RunningGroup> groups{
      {{job(1, 16, 40)}, 8},   // t_cpu = 2, t_net = 40: network-bound
      {{job(2, 320, 38)}, 8},  // t_cpu = 40, t_net = 38: already balanced
  };
  const auto action = regrouper_.on_job_arrival(job(9, 240, 2), {}, groups);
  EXPECT_EQ(action.kind, RegroupAction::Kind::kAddToGroup);
  EXPECT_EQ(action.group_index, 0u);
}

TEST_F(RegrouperTest, ArrivalWaitsWhenNoGroupImproves) {
  // Perfectly utilized group: any addition lowers the score.
  std::vector<RunningGroup> groups{
      {{job(1, 80, 10), job(2, 80, 10)}, 8},  // sums: cpu 20, net 20 — saturated
  };
  // A monster job would make the group job-bound.
  const auto action = regrouper_.on_job_arrival(job(9, 8000, 800), {}, groups);
  EXPECT_EQ(action.kind, RegroupAction::Kind::kNone);
}

TEST_F(RegrouperTest, FinishReplacedBySimilarJob) {
  const SchedJob finished = job(1, 100, 10);
  std::vector<SchedJob> idle{job(7, 500, 80), job(8, 101, 10.1)};  // 8 is similar
  std::vector<RunningGroup> groups{{{job(2, 100, 10)}, 8}};
  const auto action = regrouper_.on_job_finish(finished, 0, idle, groups);
  ASSERT_EQ(action.kind, RegroupAction::Kind::kReplace);
  ASSERT_EQ(action.replacements.size(), 1u);
  EXPECT_EQ(action.replacements[0].id, 8u);
}

TEST_F(RegrouperTest, FinishReplacedByEquivalentPair) {
  const std::size_t dop = 8;
  const SchedJob finished = job(1, 160, 20);  // t_cpu = 20, t_net = 20
  // No single similar job, but 7+8 sum to (t_cpu 20, t_net 20).
  std::vector<SchedJob> idle{job(7, 80, 10), job(8, 80, 10), job(9, 4000, 1)};
  std::vector<RunningGroup> groups{{{job(2, 160, 20)}, dop}};
  const auto action = regrouper_.on_job_finish(finished, 0, idle, groups);
  ASSERT_EQ(action.kind, RegroupAction::Kind::kReplace);
  EXPECT_EQ(action.replacements.size(), 2u);
}

TEST_F(RegrouperTest, FinishWithNothingUsefulKeepsGroup) {
  const SchedJob finished = job(1, 100, 10);
  // Well-balanced remaining group, no idle jobs: benefit below 5 % => none.
  std::vector<RunningGroup> groups{{{job(2, 80, 10), job(3, 80, 10)}, 8}};
  const auto action = regrouper_.on_job_finish(finished, 0, {}, groups);
  EXPECT_EQ(action.kind, RegroupAction::Kind::kNone);
}

TEST_F(RegrouperTest, FinishTriggersRescheduleWhenBadlyImbalanced) {
  // The finished job was the only CPU-heavy one; the leftover group is badly
  // network-bound and an idle CPU-heavy job exists, but it is NOT similar
  // (so the cheap replacement paths fail) — a reschedule should win by >5 %.
  const SchedJob finished = job(1, 300, 5);
  std::vector<SchedJob> idle{job(7, 500, 30)};
  std::vector<RunningGroup> groups{
      {{job(2, 16, 40), job(3, 16, 38)}, 8},
  };
  const auto action = regrouper_.on_job_finish(finished, 0, idle, groups);
  EXPECT_EQ(action.kind, RegroupAction::Kind::kReschedule);
  EXPECT_FALSE(action.decision.empty());
}

TEST_F(RegrouperTest, ArrivalWithNoGroupsWaits) {
  const auto action = regrouper_.on_job_arrival(job(9, 50, 50), {}, {});
  EXPECT_EQ(action.kind, RegroupAction::Kind::kNone);
}

TEST_F(RegrouperTest, FinishOutOfRangeGroupIndexIsNone) {
  std::vector<RunningGroup> groups{{{job(2, 100, 10)}, 4}};
  const auto action = regrouper_.on_job_finish(job(1, 100, 10), 7, {}, groups);
  EXPECT_EQ(action.kind, RegroupAction::Kind::kNone);
}

// ---------------------------------------------------------------------------
// on_job_finish step (3) rescoring: the cluster score after a decision
// replaces the involved groups, from per-group terms taken once, against
// model().score over the candidate shapes spelled out.

GroupShape shape_of(const RunningGroup& g) {
  GroupShape s;
  s.machines = g.machines;
  for (const SchedJob& j : g.jobs) s.jobs.push_back(j.profile);
  return s;
}

TEST(ClusterRescorer, MatchesModelScoreOverCandidateShapesBitForBit) {
  std::mt19937_64 rng(33);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  Scheduler scheduler;
  const PerfModel& model = scheduler.model();
  const auto profile = [&](double scale) {
    return JobProfile{scale * std::pow(10.0, 3.0 * unit(rng)), scale * (0.1 + unit(rng))};
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const double scale = std::pow(10.0, -6.0 + 12.0 * unit(rng));
    // Running groups, including empty and machine-less ones, which the
    // model skips.
    std::vector<RunningGroup> groups(rng() % 12);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      groups[g].machines = rng() % 10 == 0 ? 0 : 1 + rng() % 40;
      const std::size_t n = rng() % 10 == 0 ? 0 : 1 + rng() % 6;
      for (std::size_t j = 0; j < n; ++j)
        groups[g].jobs.push_back(SchedJob{static_cast<JobId>(g * 10 + j), profile(scale)});
    }
    std::vector<char> replaced(groups.size());
    for (char& r : replaced) r = static_cast<char>(rng() % 2);
    std::vector<GroupShape> added(rng() % 4);
    for (GroupShape& a : added) {
      a.machines = rng() % 10 == 0 ? 0 : 1 + rng() % 30;
      for (std::size_t j = rng() % 6; j > 0; --j) a.jobs.push_back(profile(scale));
    }

    std::vector<GroupShape> all;
    std::vector<GroupShape> candidate;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      all.push_back(shape_of(groups[g]));
      if (!replaced[g]) candidate.push_back(all.back());
    }
    candidate.insert(candidate.end(), added.begin(), added.end());

    const ClusterRescorer rescorer(model, groups);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rescorer.score({}, {})),
              std::bit_cast<std::uint64_t>(model.score(all)))
        << "trial " << trial;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rescorer.score(replaced, added)),
              std::bit_cast<std::uint64_t>(model.score(candidate)))
        << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// on_job_finish steps (1) and (2) against the O(n²) reference: the first
// similar idle job, else the first (a, b), a < b, in index order whose sums
// match the finished job.

struct ReferenceReplace {
  std::vector<JobId> ids;  // empty: neither step matches
};

ReferenceReplace reference_replace(const Regrouper& regrouper, double similarity,
                                   const SchedJob& finished, std::size_t dop,
                                   const std::vector<SchedJob>& idle) {
  for (const SchedJob& cand : idle)
    if (regrouper.similar(cand.profile, finished.profile, dop)) return {{cand.id}};
  const double target_itr = finished.profile.t_itr(dop);
  const double target_ratio = finished.profile.comp_ratio(dop);
  for (std::size_t a = 0; a < idle.size(); ++a) {
    for (std::size_t b = a + 1; b < idle.size(); ++b) {
      const double sum_cpu = idle[a].profile.t_cpu(dop) + idle[b].profile.t_cpu(dop);
      const double sum_net = idle[a].profile.t_net + idle[b].profile.t_net;
      const double sum_itr = sum_cpu + sum_net;
      const double ratio = sum_itr > 0.0 ? sum_cpu / sum_itr : 0.0;
      if (relative_error(sum_itr, target_itr) <= similarity &&
          relative_error(ratio, target_ratio) <= similarity)
        return {{idle[a].id, idle[b].id}};
    }
  }
  return {};
}

// A random idle pool built to stress the sorted-window search: most jobs are
// too short to replace the finished job alone; a `plant` share are partners
// of earlier jobs whose sums land exactly at (or one ulp either side of) the
// similarity boundary, or inside it; duplicates and equal-x/different-split
// twins create ties in x; a `single` share can replace the finished job alone.
std::vector<SchedJob> random_pool(std::mt19937_64& rng, std::size_t n, std::size_t dop,
                                  double t_cpu, double t_net, double similarity,
                                  double plant, double single) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double target = t_cpu + t_net;
  const double m = static_cast<double>(dop);
  std::vector<JobProfile> profiles;
  while (profiles.size() < n) {
    const double pick = unit(rng);
    if (profiles.empty() || pick < 0.1) {
      profiles.push_back(profiles.empty() ? JobProfile{target * 0.3 * m, target * 0.2}
                                          : profiles[rng() % profiles.size()]);  // duplicate
    } else if (pick < 0.2) {
      // Same x (up to rounding), different split: near-ties between
      // distinct profiles; exact ties come from the duplicates above.
      const JobProfile& o = profiles[rng() % profiles.size()];
      const double c = o.t_cpu(dop);
      const double shift = 0.25 * std::min(c, o.t_net) * unit(rng);
      profiles.push_back({(c + shift) * m, o.t_net - shift});
    } else if (pick < 0.2 + plant) {
      // Total iteration time (1 ± s)·T at the target's comp share.
      const JobProfile& o = profiles[rng() % profiles.size()];
      const double sign = unit(rng) < 0.5 ? -1.0 : 1.0;
      const double offset = unit(rng) < 0.5 ? similarity : similarity * unit(rng);
      double sum = target * (1.0 + sign * offset);
      const int nudge = static_cast<int>(rng() % 3) - 1;
      if (nudge != 0) sum = std::nextafter(sum, nudge > 0 ? 2.0 * sum : 0.0);
      const double c = sum * (t_cpu / target) - o.t_cpu(dop);
      const double net = sum - sum * (t_cpu / target) - o.t_net;
      if (c > 0.0 && net > 0.0) profiles.push_back({c * m, net});
    } else if (pick < 0.2 + plant + single) {
      profiles.push_back({t_cpu * m * (1.0 + 0.04 * unit(rng)), t_net * (1.0 - 0.04 * unit(rng))});
    } else {
      // A short job: x in (0.05, 0.75) of the target, random comp share.
      const double x = target * (0.05 + 0.7 * unit(rng));
      const double share = 0.05 + 0.9 * unit(rng);
      profiles.push_back({x * share * m, x * (1.0 - share)});
    }
  }
  std::shuffle(profiles.begin(), profiles.end(), rng);
  std::vector<SchedJob> idle;
  for (std::size_t i = 0; i < profiles.size(); ++i)
    idle.push_back(SchedJob{static_cast<JobId>(100 + i), profiles[i]});
  return idle;
}

TEST(RegrouperPairSearch, MatchesQuadraticReference) {
  std::mt19937_64 rng(20210707);
  Scheduler scheduler;
  std::size_t pairs = 0, singles = 0, misses = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const double similarity = trial % 6 == 5 ? 0.0 : (trial % 6 == 4 ? 0.2 : 0.05);
    Regrouper regrouper(scheduler, Regrouper::Params{similarity, 0.05});
    const std::size_t dop = std::size_t{1} << (trial % 4);
    const std::size_t n = trial % 8 == 0 ? rng() % 4 : rng() % 601;
    const double plant = (trial / 3) % 3 == 0 ? 0.2 : ((trial / 3) % 3 == 1 ? 0.01 : 0.0);
    const double single = trial % 5 == 0 ? 0.01 : 0.0;
    const double t_cpu = 5.0 + 40.0 * std::uniform_real_distribution<double>(0, 1)(rng);
    const double t_net = 5.0 + 40.0 * std::uniform_real_distribution<double>(0, 1)(rng);
    const SchedJob finished{1, JobProfile{t_cpu * static_cast<double>(dop), t_net}};
    const auto idle = random_pool(rng, n, dop, t_cpu, t_net, similarity, plant, single);
    std::vector<RunningGroup> groups{{{finished, SchedJob{2, finished.profile}}, dop}};

    const auto want = reference_replace(regrouper, similarity, finished, dop, idle);
    const auto got = regrouper.on_job_finish(finished, 0, idle, groups);
    if (want.ids.empty()) {
      ++misses;
      EXPECT_NE(got.kind, RegroupAction::Kind::kReplace) << "trial " << trial;
      continue;
    }
    (want.ids.size() == 1 ? singles : pairs) += 1;
    ASSERT_EQ(got.kind, RegroupAction::Kind::kReplace) << "trial " << trial;
    ASSERT_EQ(got.group_index, 0u);
    std::vector<JobId> got_ids;
    for (const SchedJob& j : got.replacements) got_ids.push_back(j.id);
    EXPECT_EQ(got_ids, want.ids) << "trial " << trial << " n=" << idle.size();
  }
  // The generator must actually exercise every outcome.
  EXPECT_GT(pairs, 40u);
  EXPECT_GT(singles, 20u);
  EXPECT_GT(misses, 20u);
}

TEST(RegrouperPairSearch, BoundaryPairsDecidedByTheExactTest) {
  // Pairs whose summed iteration time sits exactly at T(1 ± s) and one ulp
  // either side: the window must never drop a pair the exact test accepts.
  Scheduler scheduler;
  const Regrouper regrouper(scheduler);
  const std::size_t dop = 4;
  const SchedJob finished{1, JobProfile{80.0, 20.0}};  // t_cpu 20, t_net 20
  const double target = finished.profile.t_itr(dop);
  for (double edge : {target * 1.05, target * 0.95}) {
    for (int nudge = -2; nudge <= 2; ++nudge) {
      double sum = edge;
      for (int k = 0; k < std::abs(nudge); ++k)
        sum = std::nextafter(sum, nudge > 0 ? 1e9 : 0.0);
      // a carries x = 0.3·sum with the target's 50/50 split, b the rest.
      const SchedJob a{10, JobProfile{0.15 * sum * dop, 0.15 * sum}};
      const double b_cpu = 0.5 * sum - a.profile.t_cpu(dop);
      const double b_net = 0.5 * sum - a.profile.t_net;
      const SchedJob b{11, JobProfile{b_cpu * dop, b_net}};
      const SchedJob far{12, JobProfile{4.0 * dop, 1.0}};
      const std::vector<SchedJob> idle{far, a, b};
      std::vector<RunningGroup> groups{{{finished, SchedJob{2, finished.profile}}, dop}};
      const auto want = reference_replace(regrouper, 0.05, finished, dop, idle);
      const auto got = regrouper.on_job_finish(finished, 0, idle, groups);
      if (want.ids.empty()) {
        EXPECT_NE(got.kind, RegroupAction::Kind::kReplace) << "nudge " << nudge;
        continue;
      }
      ASSERT_EQ(got.kind, RegroupAction::Kind::kReplace) << "nudge " << nudge;
      ASSERT_EQ(got.replacements.size(), 2u);
      EXPECT_EQ(got.replacements[0].id, want.ids[0]);
      EXPECT_EQ(got.replacements[1].id, want.ids[1]);
    }
  }
}

TEST(RegrouperPairSearch, NonFiniteProfilesNeverPair) {
  // Jobs whose x = t_cpu + t_net is inf or NaN sit outside the sorted window;
  // they must still be offered to (and rejected by) the exact test, and must
  // not hide the finite pair after them.
  Scheduler scheduler;
  const Regrouper regrouper(scheduler);
  const SchedJob finished{1, JobProfile{40.0, 20.0}};  // dop 2: t_cpu 20, t_net 20
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<SchedJob> idle{
      SchedJob{10, JobProfile{inf, 5.0}}, SchedJob{11, JobProfile{20.0, inf}},
      SchedJob{12, JobProfile{std::nan(""), 5.0}}, SchedJob{13, JobProfile{20.0, 10.0}},
      SchedJob{14, JobProfile{20.0, 10.0}}};
  std::vector<RunningGroup> groups{{{finished, SchedJob{2, finished.profile}}, 2}};
  const auto got = regrouper.on_job_finish(finished, 0, idle, groups);
  ASSERT_EQ(got.kind, RegroupAction::Kind::kReplace);
  ASSERT_EQ(got.replacements.size(), 2u);
  EXPECT_EQ(got.replacements[0].id, 13u);
  EXPECT_EQ(got.replacements[1].id, 14u);
}

class SimilaritySweep : public ::testing::TestWithParam<double> {};

TEST_P(SimilaritySweep, ThresholdBoundary) {
  Scheduler scheduler;
  Regrouper regrouper(scheduler, Regrouper::Params{0.05, 0.05});
  const double delta = GetParam();
  const JobProfile base{100.0, 10.0};
  const JobProfile other{100.0 * (1.0 + delta), 10.0};
  // comp ratio moves too, so use generous margins: well inside vs well outside.
  if (delta <= 0.02) {
    EXPECT_TRUE(regrouper.similar(base, other, 8));
  } else if (delta >= 0.10) {
    EXPECT_FALSE(regrouper.similar(base, other, 8));
  }
}

INSTANTIATE_TEST_SUITE_P(Deltas, SimilaritySweep, ::testing::Values(0.0, 0.01, 0.02, 0.10, 0.2));

}  // namespace
}  // namespace harmony::core
