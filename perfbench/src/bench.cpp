#include "bench.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int Spans::begin(const std::string& name, std::uint64_t calls) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.calls = calls;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_s = seconds_since(t0_);
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Spans::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = seconds_since(t0_);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.end_s - s.start_s);
  return out;
}

double Spans::total(const std::string& name) const {
  double sum = 0.0;
  for (double d : durations(name)) sum += d;
  return sum;
}

std::string Spans::json() const {
  std::string out = "[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                  "\"parent\":%d,\"calls\":%llu}",
                  i == 0 ? "" : ",", i, s.name.c_str(), s.start_s, s.end_s, s.parent,
                  static_cast<unsigned long long>(s.calls));
    out += buf;
  }
  out += "\n]\n";
  return out;
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  std::printf("CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

}  // namespace perfbench
