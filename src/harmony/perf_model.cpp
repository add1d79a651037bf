#include "harmony/perf_model.h"

#include <algorithm>
#include <cassert>

namespace harmony::core {

const char* to_string(Bound bound) noexcept {
  return bound == Bound::kCpu ? "cpu" : "net";
}

Bound PerfModel::group_bound(const GroupShape& group) {
  double sum_cpu = 0.0;
  double sum_net = 0.0;
  for (const JobProfile& j : group.jobs) {
    sum_cpu += j.t_cpu(group.machines);
    sum_net += j.t_net;
  }
  return sum_cpu >= sum_net ? Bound::kCpu : Bound::kNet;
}

double PerfModel::group_iteration_time(const GroupShape& group) {
  assert(group.machines > 0);
  double sum_cpu = 0.0;
  double sum_net = 0.0;
  double max_itr = 0.0;
  for (const JobProfile& j : group.jobs) {
    sum_cpu += j.t_cpu(group.machines);
    sum_net += j.t_net;
    max_itr = std::max(max_itr, j.t_itr(group.machines));
  }
  return std::max({sum_cpu, sum_net, max_itr});
}

Utilization PerfModel::group_utilization(const GroupShape& group) {
  const double t_itr = group_iteration_time(group);
  if (t_itr <= 0.0) return {};
  double sum_cpu = 0.0;
  double sum_net = 0.0;
  for (const JobProfile& j : group.jobs) {
    sum_cpu += j.t_cpu(group.machines);
    sum_net += j.t_net;
  }
  return Utilization{sum_cpu / t_itr, sum_net / t_itr};
}

PerfModel::Terms PerfModel::lane_terms(double sum_cpu, double sum_net, double max_itr,
                                       std::size_t machines) {
  if (machines == 0) return {};
  // group_iteration_time and group_utilization, from the same sums.
  const double t_itr = std::max({sum_cpu, sum_net, max_itr});
  Utilization u;
  if (!(t_itr <= 0.0)) u = Utilization{sum_cpu / t_itr, sum_net / t_itr};
  const auto m = static_cast<double>(machines);
  return Terms{m * u.cpu, m * u.net, m};
}

PerfModel::Terms PerfModel::group_terms(const GroupShape& group) {
  return group_terms(group.jobs, group.machines, [](const JobProfile& j) -> const JobProfile& {
    return j;
  });
}

Utilization PerfModel::cluster_utilization(std::span<const GroupShape> groups) {
  Terms acc;
  for (const GroupShape& g : groups) acc.add(group_terms(g));
  return acc.utilization();
}

double PerfModel::score_scalar(const Utilization& u, std::size_t total_jobs,
                               std::size_t total_groups) const {
  const double util =
      params_.cpu_weight * u.cpu + (1.0 - params_.cpu_weight) * u.net;
  const double extra_jobs =
      total_jobs > total_groups ? static_cast<double>(total_jobs - total_groups) : 0.0;
  return util - params_.per_job_penalty * extra_jobs;
}

double PerfModel::score(std::span<const GroupShape> groups) const {
  std::size_t jobs = 0;
  std::size_t nonempty = 0;
  for (const GroupShape& g : groups) {
    jobs += g.jobs.size();
    if (!g.jobs.empty()) ++nonempty;
  }
  return score_scalar(cluster_utilization(groups), jobs, nonempty);
}

}  // namespace harmony::core
