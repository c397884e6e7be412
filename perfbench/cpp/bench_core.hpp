// Helpers shared by the benchmark's workloads: order statistics, the
// seeded input schedule, in-memory spans, and the result every workload
// returns. Header-only so the self-test links nothing but safenn_common.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// Percentile q in [0, 1] with linear interpolation between the closest
/// ranks (position q * (n - 1) in the sorted sample). 0 for an empty sample.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

inline double sum(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

inline double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : sum(values) / static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------
// Seeded inputs. Every generated input is a pure function of the workload
// seed: a splitmix64 stream per (seed, purpose) pair, with our own
// uniform and exponential transforms so no standard-library distribution
// (implementation-defined) sits between the seed and the inputs.
// ---------------------------------------------------------------------------

class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(seed * 0x9E3779B97F4A7C15ULL ^ (stream + 0xD1B54A32D192ED03ULL)) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }
  /// Exponential with the given rate (mean 1 / rate).
  double exponential(double rate) { return -std::log1p(-uniform()) / rate; }

 private:
  std::uint64_t state_;
};

/// Stream ids, one per kind of generated input.
enum Stream : std::uint64_t {
  kArrivals = 1,
  kSceneOrder = 2,
  kSwapPoints = 3,
  kThresholds = 4,
  kModelMix = 5,
};

/// Open-loop send offsets (seconds from the start) of `count` Poisson
/// arrivals at `rate` per second.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                            std::size_t count) {
  Rng rng(seed, kArrivals);
  std::vector<double> offsets(count);
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.exponential(rate);
    offsets[i] = t;
  }
  return offsets;
}

/// `count` indices into a pool of `pool` scenes.
inline std::vector<std::uint32_t> scene_order(std::uint64_t seed,
                                              std::size_t pool,
                                              std::size_t count) {
  Rng rng(seed, kSceneOrder);
  std::vector<std::uint32_t> order(count);
  for (auto& i : order) i = static_cast<std::uint32_t>(rng.below(pool));
  return order;
}

/// Request counts at which hot swaps fire: the first after about
/// `interval`, then every `interval` give or take a quarter.
inline std::vector<std::uint64_t> swap_points(std::uint64_t seed,
                                              std::uint64_t interval,
                                              std::size_t count) {
  Rng rng(seed, kSwapPoints);
  std::vector<std::uint64_t> points(count);
  std::uint64_t at = 0;
  for (auto& p : points) {
    const double jitter = 0.75 + 0.5 * rng.uniform();
    at += static_cast<std::uint64_t>(jitter * static_cast<double>(interval));
    p = at;
  }
  return points;
}

// ---------------------------------------------------------------------------
// Spans. Kept in memory by the thread that records them, and only in a
// traced pass; a span's parent is an index into the same trace.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

class Trace {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Opens a top-level span now; returns its id.
  int open(const char* name) {
    spans_.push_back(Span{name, now_ns(), 0, -1});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  /// Records an already-measured interval.
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = -1) {
    spans_.push_back(Span{name, start_ns, end_ns, parent});
    return static_cast<int>(spans_.size() - 1);
  }

  /// Durations, in seconds, of every span named `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(1e-9 * double(s.end_ns - s.start_ns));
    }
    return out;
  }

  /// Self times, in seconds, of every span named `name`: each span's
  /// duration minus the part of its interval that its direct children
  /// cover. One pass indexes the children, so n spans cost O(n log n).
  std::vector<double> self_times(const std::string& name) const {
    std::vector<std::vector<int>> kids(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const int p = spans_[i].parent;
      if (p >= 0) kids[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) out.push_back(self_seconds(int(i), kids[i]));
    }
    return out;
  }

 private:
  double self_seconds(int id, const std::vector<int>& children) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (int k : children) {
      const Span& c = spans_[static_cast<std::size_t>(k)];
      const std::int64_t lo = std::max(c.start_ns, s.start_ns);
      const std::int64_t hi = std::min(c.end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0, reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    return 1e-9 * double(s.end_ns - s.start_ns - covered);
  }

  std::vector<Span> spans_;
};

/// Opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, const char* name)
      : trace_(trace), id_(trace.open(name)) {}
  ~ScopedSpan() { trace_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace& trace_;
  int id_;
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// A workload-specific end-to-end figure, printed by name with its unit
/// and compared by compare.py within `bound` (share of the parent median).
struct NamedMetric {
  double value = 0.0;
  std::string unit;
  std::string better;  // "lower" or "higher"
  double bound = 0.25;
};

/// What one measurement pass of a workload produced.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  /// Correctness checks that failed, one line each (empty: all passed).
  std::vector<std::string> failures;
  /// The gated end-to-end metrics (names fixed in BENCHMARK.json).
  double latency_ms = 0.0;
  double work_per_s = 0.0;
  std::map<std::string, NamedMetric> named;
  /// Per-layer figures (traced passes only).
  std::map<std::string, double> layers;
  /// Free-form facts for the run record.
  std::map<std::string, std::string> notes;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

}  // namespace perfbench
