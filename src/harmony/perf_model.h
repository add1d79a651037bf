// Harmony's analytical performance model (§IV-B2, Eq. 1–4).
//
// Given the profiled subtask times of the jobs in a group and the group's
// machine count (DoP), the model predicts the group iteration time and the
// CPU/network utilization that subtask-pipelined execution will achieve.
// The scheduler searches over groupings/allocations by evaluating this model.
#pragma once

#include <algorithm>
#include <iterator>
#include <span>
#include <vector>

#include "harmony/job.h"

namespace harmony::core {

// Two-dimensional utilization vector (Eq. 3 / Eq. 4).
struct Utilization {
  double cpu = 0.0;
  double net = 0.0;

  bool operator==(const Utilization&) const = default;
};

// A candidate group: the profiles of its member jobs plus its DoP.
struct GroupShape {
  std::vector<JobProfile> jobs;
  std::size_t machines = 0;
};

// Which resource Eq. 1 says bounds a group's iteration: the CPU lane
// (Σ T_cpu dominates) or the network lane (Σ T_net dominates). The
// bound-switch at the heart of Algorithm 1's performance model — adding
// machines shrinks COMP until the group flips to network-bound (§IV).
enum class Bound : std::uint8_t { kCpu, kNet };

const char* to_string(Bound bound) noexcept;

class PerfModel {
 public:
  struct Params {
    // Weight of CPU utilization in the scalar score; the paper treats CPU as
    // more important than network "since CPU resources directly contribute to
    // the job progress" (§IV-B2).
    double cpu_weight = 0.7;
    // Soft preference for fewer jobs per group ("for shorter JCTs and lower
    // memory pressure"): each extra job beyond the first costs this much of
    // the score. A tie-breaker, small enough that real utilization gains
    // always dominate at cluster scale.
    double per_job_penalty = 0.002;
  };

  PerfModel() : PerfModel(Params{}) {}
  explicit PerfModel(Params params) : params_(params) {}

  // Eq. 1: T_g_itr = max(Σ T_cpu, Σ T_net, max_j T_j_itr).
  static double group_iteration_time(const GroupShape& group);

  // Eq. 1's arg-max over the two resource lanes: CPU-bound when Σ T_cpu ≥
  // Σ T_net, network-bound otherwise (ties go to CPU, matching the model's
  // "CPU directly contributes to progress" preference).
  static Bound group_bound(const GroupShape& group);

  // Eq. 3: per-resource busy fraction within a group iteration.
  static Utilization group_utilization(const GroupShape& group);

  // One group's share of Eq. 4's sums: machines·u.cpu, machines·u.net and
  // machines. cluster_utilization adds these up in group order and divides;
  // a caller that assembles a cluster from groups whose terms it already
  // holds adds the same terms in the same order and gets the same bits.
  struct Terms {
    double cpu = 0.0;
    double net = 0.0;
    double machines = 0.0;

    void add(const Terms& o) noexcept {
      cpu += o.cpu;
      net += o.net;
      machines += o.machines;
    }
    // Eq. 4's average; zero when no machine is allocated.
    Utilization utilization() const noexcept {
      if (machines <= 0.0) return {};
      return Utilization{cpu / machines, net / machines};
    }
  };

  // A group's terms from its members in order; `profile(member)` yields a
  // member's JobProfile. An empty or machine-less group contributes nothing.
  template <typename Members, typename Profile>
  static Terms group_terms(const Members& members, std::size_t machines, Profile profile) {
    if (std::empty(members)) return {};
    double sum_cpu = 0.0;
    double sum_net = 0.0;
    double max_itr = 0.0;
    for (const auto& member : members) {
      const JobProfile& j = profile(member);
      sum_cpu += j.t_cpu(machines);
      sum_net += j.t_net;
      max_itr = std::max(max_itr, j.t_itr(machines));
    }
    return lane_terms(sum_cpu, sum_net, max_itr, machines);
  }
  static Terms group_terms(const GroupShape& group);

  // Eq. 4: machine-weighted average across groups.
  static Utilization cluster_utilization(std::span<const GroupShape> groups);

  // Scalar objective the scheduler maximizes: weighted utilization minus the
  // small-group preference penalty.
  double score(std::span<const GroupShape> groups) const;
  double score_scalar(const Utilization& u, std::size_t total_jobs,
                      std::size_t total_groups) const;

  const Params& params() const noexcept { return params_; }

 private:
  // Terms from Eq. 1's lane sums (Σ T_cpu, Σ T_net, max_j T_itr).
  static Terms lane_terms(double sum_cpu, double sum_net, double max_itr,
                          std::size_t machines);

  Params params_;
};

}  // namespace harmony::core
