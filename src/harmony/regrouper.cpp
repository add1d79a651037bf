#include "harmony/regrouper.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/stats.h"
#include "obs/metrics.h"

namespace harmony::core {
namespace {

// Pure observation of which branch of the §IV-B rules fired; never read back.
void count_action(const char* name) {
  obs::MetricsRegistry::instance().counter(name).add();
}

// Completion step (2): the first pair (a, b), a < b, in index order whose
// *sums* match the finished job — total iteration time within `similarity`
// of `target_itr` and summed comp/comm ratio within `similarity` of
// `target_ratio`. Returns {n, n} when no pair matches.
//
// Only pairs whose x_a + x_b (x = t_cpu + t_net) lies in the iteration-time
// window [T - sD, T + sD], D = max(|T|, 1e-12), can match, so the idle jobs
// are sorted by x once and each a binary-searches its partner window:
// O(n log n) plus the window candidates, instead of all n² pairs. The exact
// test sums (c_a + c_b) + (n_a + n_b) while the window sums x_a + x_b; the
// two round differently, so the window is widened by a relative slack many
// orders of magnitude above that rounding, and every candidate is re-checked
// with the exact test.
std::pair<std::size_t, std::size_t> first_matching_pair(std::span<const SchedJob> idle,
                                                        std::size_t dop, double target_itr,
                                                        double target_ratio,
                                                        double similarity) {
  const std::size_t n = idle.size();
  const std::pair<std::size_t, std::size_t> none{n, n};
  // A non-finite target or a NaN threshold makes every relative_error test
  // fail (NaN or inf/inf), so no pair can match.
  if (n < 2 || !std::isfinite(target_itr) || std::isnan(similarity)) return none;

  std::vector<double> cpu(n), net(n), x(n);
  // (x, index) of every job with a finite x, sorted. Jobs with a non-finite
  // x fall outside any window; they are kept aside and offered to every a,
  // so the result never depends on the window for them.
  std::vector<std::pair<double, std::size_t>> by_x;
  std::vector<std::size_t> wild;
  by_x.reserve(n);
  double magnitude = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    cpu[j] = idle[j].profile.t_cpu(dop);
    net[j] = idle[j].profile.t_net;
    x[j] = cpu[j] + net[j];
    if (std::isfinite(x[j])) {
      by_x.emplace_back(x[j], j);
      magnitude = std::max(magnitude, std::abs(cpu[j]) + std::abs(net[j]));
    } else {
      wild.push_back(j);
    }
  }
  std::sort(by_x.begin(), by_x.end());

  const auto matches = [&](std::size_t a, std::size_t b) {
    const double sum_cpu = cpu[a] + cpu[b];
    const double sum_net = net[a] + net[b];
    const double sum_itr = sum_cpu + sum_net;
    const double ratio = sum_itr > 0.0 ? sum_cpu / sum_itr : 0.0;
    return relative_error(sum_itr, target_itr) <= similarity &&
           relative_error(ratio, target_ratio) <= similarity;
  };

  // The exact test's pass band is T ± s·max(|T|, 1e-12) (relative_error's
  // default eps); the window is that band plus the slack.
  const double half = similarity * std::max(std::abs(target_itr), 1e-12);
  const double slack = 1e-9 * (std::abs(target_itr) + std::abs(half) + 2.0 * magnitude);
  double lo = target_itr - half - slack;
  double hi = target_itr + half + slack;
  if (!std::isfinite(slack) || std::isnan(lo) || std::isnan(hi)) {
    lo = -std::numeric_limits<double>::infinity();
    hi = std::numeric_limits<double>::infinity();
  }

  for (std::size_t a = 0; a + 1 < n; ++a) {
    std::size_t best_b = n;
    if (!std::isfinite(x[a])) {
      for (std::size_t b = a + 1; b < n && best_b == n; ++b)
        if (matches(a, b)) best_b = b;
      if (best_b != n) return {a, best_b};
      continue;
    }
    const auto first = std::lower_bound(
        by_x.begin(), by_x.end(), lo - x[a],
        [](const std::pair<double, std::size_t>& e, double v) { return e.first < v; });
    const auto last = std::upper_bound(
        first, by_x.end(), hi - x[a],
        [](double v, const std::pair<double, std::size_t>& e) { return v < e.first; });
    for (auto it = first; it != last; ++it) {
      const std::size_t b = it->second;
      if (b > a && b < best_b && matches(a, b)) best_b = b;
    }
    for (std::size_t b : wild)
      if (b > a && b < best_b && matches(a, b)) best_b = b;
    if (best_b != n) return {a, best_b};
  }
  return none;
}

}  // namespace

ClusterRescorer::ClusterRescorer(const PerfModel& model, std::span<const RunningGroup> groups)
    : model_(model) {
  terms_.reserve(groups.size());
  jobs_.reserve(groups.size());
  for (const RunningGroup& g : groups) {
    terms_.push_back(PerfModel::group_terms(
        g.jobs, g.machines, [](const SchedJob& j) -> const JobProfile& { return j.profile; }));
    jobs_.push_back(g.jobs.size());
  }
}

double ClusterRescorer::score(std::span<const char> replaced,
                              std::span<const GroupShape> added) const {
  PerfModel::Terms acc;
  std::size_t jobs = 0;
  std::size_t nonempty = 0;
  for (std::size_t g = 0; g < terms_.size(); ++g) {
    if (!replaced.empty() && replaced[g]) continue;
    acc.add(terms_[g]);
    jobs += jobs_[g];
    if (jobs_[g] > 0) ++nonempty;
  }
  for (const GroupShape& shape : added) {
    acc.add(PerfModel::group_terms(shape));
    jobs += shape.jobs.size();
    if (!shape.jobs.empty()) ++nonempty;
  }
  return model_.score_scalar(acc.utilization(), jobs, nonempty);
}

Regrouper::Regrouper(const Scheduler& scheduler, Params params)
    : scheduler_(scheduler), params_(params) {}

std::vector<GroupShape> Regrouper::to_shapes(std::span<const RunningGroup> groups) {
  std::vector<GroupShape> shapes;
  shapes.reserve(groups.size());
  for (const RunningGroup& g : groups) {
    GroupShape s;
    s.machines = g.machines;
    for (const SchedJob& j : g.jobs) s.jobs.push_back(j.profile);
    shapes.push_back(std::move(s));
  }
  return shapes;
}

bool Regrouper::similar(const JobProfile& a, const JobProfile& b, std::size_t dop) const {
  const double itr_err = relative_error(a.t_itr(dop), b.t_itr(dop));
  const double ratio_err = relative_error(a.comp_ratio(dop), b.comp_ratio(dop));
  return itr_err <= params_.similarity && ratio_err <= params_.similarity;
}

RegroupAction Regrouper::on_job_arrival(const SchedJob& new_job,
                                        std::span<const SchedJob> idle,
                                        std::span<const RunningGroup> groups) const {
  RegroupAction action;
  // Other profiled/paused jobs exist => the scheduler already chose not to
  // run them; the new arrival waits with them.
  if (!idle.empty() || groups.empty()) return action;

  auto shapes = to_shapes(groups);
  const double current = scheduler_.model().score(shapes);

  double best_score = current;
  std::size_t best_group = groups.size();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    shapes[g].jobs.push_back(new_job.profile);
    const double score = scheduler_.model().score(shapes);
    shapes[g].jobs.pop_back();
    if (score > best_score) {
      best_score = score;
      best_group = g;
    }
  }
  if (best_group == groups.size()) {
    count_action("regrouper.arrival_wait");
    return action;  // no group improves U: wait
  }

  action.kind = RegroupAction::Kind::kAddToGroup;
  action.group_index = best_group;
  count_action("regrouper.arrival_add_to_group");
  return action;
}

RegroupAction Regrouper::on_job_finish(const SchedJob& finished, std::size_t group_index,
                                       std::span<const SchedJob> idle,
                                       std::span<const RunningGroup> groups,
                                       std::size_t spare_machines) const {
  RegroupAction action;
  if (group_index >= groups.size()) return action;
  const std::size_t dop = std::max<std::size_t>(1, groups[group_index].machines);

  // (1) One similar job.
  for (const SchedJob& cand : idle) {
    if (similar(cand.profile, finished.profile, dop)) {
      action.kind = RegroupAction::Kind::kReplace;
      action.group_index = group_index;
      action.replacements = {cand};
      count_action("regrouper.finish_replace");
      return action;
    }
  }

  // (2) A bunch (pair) of idle jobs whose *sums* match the finished job:
  // total iteration time within 5 % and summed comp/comm ratio within 5 %.
  const auto [a, b] =
      first_matching_pair(idle, dop, finished.profile.t_itr(dop),
                          finished.profile.comp_ratio(dop), params_.similarity);
  if (a < idle.size()) {
    action.kind = RegroupAction::Kind::kReplace;
    action.group_index = group_index;
    action.replacements = {idle[a], idle[b]};
    count_action("regrouper.finish_replace");
    return action;
  }

  // (3) Involve other groups, smallest-first, via Algorithm 1. We grow the
  // set of participating groups and keep the smallest decision unless a
  // bigger one wins by more than min_benefit.
  const ClusterRescorer rescorer(scheduler_.model(), groups);
  const double current_score = rescorer.score({}, {});

  // Order candidate partner groups by job count (the paper starts with the
  // group with the fewest jobs).
  std::vector<std::size_t> partners;
  for (std::size_t g = 0; g < groups.size(); ++g)
    if (g != group_index) partners.push_back(g);
  std::sort(partners.begin(), partners.end(), [&groups](std::size_t a, std::size_t b) {
    return groups[a].jobs.size() < groups[b].jobs.size();
  });

  std::optional<RegroupAction> best;
  double best_score = -std::numeric_limits<double>::infinity();
  std::size_t best_job_count = SIZE_MAX;

  std::vector<std::size_t> involved = {group_index};
  std::vector<char> involved_mask(groups.size(), 0);
  involved_mask[group_index] = 1;
  std::vector<GroupShape> decision_shapes;
  std::vector<SchedJob> pool(groups[group_index].jobs);
  // Idle jobs participate too (they may fill the hole).
  pool.insert(pool.end(), idle.begin(), idle.end());
  std::size_t machines = groups[group_index].machines + spare_machines;

  // Id -> pool index, so mapping a decision's job ids back to profiles is
  // O(1) per id instead of a linear pool scan. schedule() places jobs from
  // the front of its input only, so just the prefix decisions have reached
  // is indexed, not the whole cluster. First insertion wins, matching a
  // forward find_if when ids repeat.
  std::unordered_map<JobId, std::size_t> pool_index;
  std::size_t indexed = 0;

  for (std::size_t step = 0; step <= partners.size(); ++step) {
    ScheduleDecision decision = scheduler_.schedule(pool, machines);
    for (; indexed < decision.jobs_scheduled; ++indexed)
      pool_index.emplace(pool[indexed].id, indexed);
    if (!decision.empty()) {
      // Score of the whole cluster if this decision replaces the involved
      // groups: involved groups are re-shaped, others stay.
      decision_shapes.resize(decision.groups.size());
      for (std::size_t i = 0; i < decision.groups.size(); ++i) {
        GroupShape& shape = decision_shapes[i];
        shape.machines = decision.groups[i].machines;
        shape.jobs.clear();
        for (JobId id : decision.groups[i].jobs) {
          auto it = pool_index.find(id);
          if (it != pool_index.end()) shape.jobs.push_back(pool[it->second].profile);
        }
      }
      const double score = rescorer.score(involved_mask, decision_shapes);
      const std::size_t jobs_touched = pool.size();
      // Prefer fewer jobs unless the larger decision is >5 % better.
      const bool better =
          !best ||
          (jobs_touched < best_job_count && score >= best_score * (1.0 - params_.min_benefit)) ||
          score > best_score * (1.0 + params_.min_benefit);
      if (better) {
        RegroupAction a;
        a.kind = RegroupAction::Kind::kReschedule;
        a.decision = std::move(decision);
        a.groups_involved = involved;
        best = std::move(a);
        best_score = score;
        best_job_count = jobs_touched;
      }
    }
    if (step == partners.size()) break;
    const std::size_t next = partners[step];
    involved.push_back(next);
    involved_mask[next] = 1;
    pool.insert(pool.end(), groups[next].jobs.begin(), groups[next].jobs.end());
    machines += groups[next].machines;
  }

  // Skip regrouping entirely when the expected benefit is under 5 % of U.
  if (!best ||
      best_score - current_score < params_.min_benefit * std::max(current_score, 1e-9)) {
    count_action("regrouper.finish_none");
    return action;
  }
  count_action("regrouper.finish_reschedule");
  return *best;
}

}  // namespace harmony::core
