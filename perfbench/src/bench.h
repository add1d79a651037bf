// Shared pieces of harmony-perfbench: the host clock, the span recorder
// that times calls into the program from the benchmark's own code, sample
// statistics, and the result record every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU seconds this process has used. Unlike the wall clock it leaves out the
// time the host gave to other processes or virtual machines (preemption,
// hypervisor steal), which on a shared host varies between runs far more
// than the program's own work does. The timed end-to-end metrics use it.
double cpu_seconds();

// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// FNV-1a over raw bytes; fingerprints simulated outputs so repeats of one
// seed can be compared bit for bit.
class Fingerprint {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) hash_ = (hash_ ^ b) * 1099511628211ULL;
  }
  void add_string(const std::string& s) {
    for (unsigned char b : s) hash_ = (hash_ ^ b) * 1099511628211ULL;
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

// Spans recorded around calls into the program's layers. A disabled recorder
// (the untraced runs) records nothing. `calls` > 1 marks a batched span that
// times many sub-microsecond calls at once.
class Spans {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
    std::uint64_t calls = 1;
  };

  explicit Spans(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  int begin(const std::string& name, std::uint64_t calls = 1);
  void end(int id);

  // Durations of every span with this name, in recording order.
  std::vector<double> durations(const std::string& name) const;
  double total(const std::string& name) const;
  std::string json() const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, const std::string& name, std::uint64_t calls = 1)
      : spans_(spans), id_(spans.begin(name, calls)) {}
  ~ScopedSpan() { spans_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans& spans_;
  int id_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t reps = 2;  // traced runs: untraced/traced repetition pairs
  bool trace = false;
  // Runs only the untimed pass with the program's deep validators on.
  bool validated_pass = false;
  // Small sizes for the benchmark's own smoke tests.
  bool tiny = false;
};

// What one invocation reports. An output check that fails sets correct to
// false and drops the run's timings; a run a check aborted counts its
// operations as failed.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  // Fingerprints of the simulated outputs by run label; run.py compares
  // them across processes.
  std::map<std::string, std::uint64_t> fingerprints;

  void check(bool ok, const std::string& what);
};

// Runs one workload: one timed repetition for the end-to-end metrics, the
// validated pass, or, with opt.trace, opt.reps pairs of untraced and traced
// repetitions that feed the workload's layer metrics.
void run_workload(const Options& opt, Spans& spans, Result& out);

// Per-layer replays (scheduler, regrouper, incremental scheduler, small
// harmony models, DES core, admission queue), built from the seed.
void run_replays(const Options& opt, Spans& spans, Result& out);

}  // namespace perfbench
