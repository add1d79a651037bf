// Online statistics used by the profiler and the experiment harness.
#pragma once

#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>

namespace harmony {

// Welford's online mean/variance accumulator.
class OnlineStats {
 public:
  void add(double x) noexcept;
  void merge(const OnlineStats& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
  double variance() const noexcept { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  double stddev() const noexcept { return std::sqrt(variance()); }
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  double sum() const noexcept { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Exponentially-weighted moving average. The paper's profiler keeps subtask
// times "updated using moving averages" (§IV-B1); this is that primitive.
class MovingAverage {
 public:
  // `alpha` is the weight of a new sample; alpha=1 keeps only the last value.
  explicit MovingAverage(double alpha = 0.3) : alpha_(alpha) {
    assert(alpha > 0.0 && alpha <= 1.0);
  }

  void add(double x) noexcept {
    if (!initialized_) {
      value_ = x;
      initialized_ = true;
    } else {
      value_ += alpha_ * (x - value_);
    }
    ++count_;
  }

  bool initialized() const noexcept { return initialized_; }
  double value() const noexcept { return value_; }
  std::size_t count() const noexcept { return count_; }

  void reset() noexcept {
    initialized_ = false;
    value_ = 0.0;
    count_ = 0;
  }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
  std::size_t count_ = 0;
};

// Fixed-capacity sliding-window mean over the last N samples, held in an
// inline ring (no heap storage). Each add performs `sum += x` and then, once
// the window is full, `sum -= evicted`, so the running sum matches a
// push-back/pop-front deque bit for bit.
template <std::size_t N>
class WindowedAverage {
  static_assert(N > 0, "WindowedAverage needs a positive capacity");

 public:
  void add(double x) noexcept {
    sum_ += x;
    if (size_ == N) {
      sum_ -= ring_[head_];
      ring_[head_] = x;
      head_ = (head_ + 1) % N;
    } else {
      ring_[(head_ + size_) % N] = x;
      ++size_;
    }
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  double mean() const noexcept {
    return size_ == 0 ? 0.0 : sum_ / static_cast<double>(size_);
  }

 private:
  std::array<double, N> ring_{};
  std::size_t head_ = 0;  // oldest sample once the window is full
  std::size_t size_ = 0;
  double sum_ = 0.0;
};

// Relative error |a-b| / max(|b|, eps); the paper's 5 % similarity and benefit
// thresholds are expressed with this.
double relative_error(double actual, double reference, double eps = 1e-12) noexcept;

}  // namespace harmony
