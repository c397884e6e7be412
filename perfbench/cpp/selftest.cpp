// Self-test of the benchmark's C++ helpers: percentiles on known inputs,
// seed determinism of the generated schedule, and span self time on
// nested spans. Exits 1 on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_core.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12; }

void test_percentiles() {
  expect(near(median({3.0, 1.0, 2.0}), 2.0), "median of odd count");
  expect(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "median of even count");
  expect(near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9), 10.0),
         "p90 on 1..11");
  expect(near(percentile({10.0, 20.0}, 0.25), 12.5), "interpolated p25");
  expect(near(percentile({5.0}, 0.99), 5.0), "single sample");
  expect(percentile({}, 0.5) == 0.0, "empty sample");
  expect(near(percentile({1, 2, 3}, 0.0), 1.0) &&
             near(percentile({1, 2, 3}, 1.0), 3.0),
         "p0 and p100 are min and max");
}

void test_schedule() {
  const auto a = poisson_schedule(7, 1000.0, 5000);
  const auto b = poisson_schedule(7, 1000.0, 5000);
  const auto c = poisson_schedule(8, 1000.0, 5000);
  expect(a == b, "same seed gives the same arrivals");
  expect(a != c, "another seed gives other arrivals");
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  expect(increasing, "arrival offsets increase");
  // Mean gap of 5000 exponential draws at rate 1000: 1 ms within 5%.
  expect(std::abs(a.back() / 5000.0 - 1e-3) < 5e-5, "mean gap matches the rate");
  expect(scene_order(7, 100, 1000) == scene_order(7, 100, 1000),
         "same seed gives the same scene order");
  bool in_pool = true;
  for (auto i : scene_order(3, 100, 1000)) in_pool &= i < 100;
  expect(in_pool, "scene indices stay in the pool");
  const auto s = swap_points(7, 1000, 10);
  expect(s == swap_points(7, 1000, 10), "same seed gives the same swap points");
  bool spaced = s[0] >= 750 && s[0] <= 1250;
  for (std::size_t i = 1; i < s.size(); ++i) {
    spaced &= s[i] - s[i - 1] >= 750 && s[i] - s[i - 1] <= 1250;
  }
  expect(spaced, "swap points are an interval +-25% apart");
}

void test_self_time() {
  Trace t;
  // parent [0, 100]; children [10, 30] and [20, 50] overlap -> cover 40;
  // child [90, 120] is clipped to the parent -> covers 10.
  const int p = t.add("parent", 0, 100);
  t.add("child", 10, 30, p);
  t.add("child", 20, 50, p);
  const int late = t.add("child", 90, 120, p);
  // A grandchild does not count against the parent, only against its
  // own parent.
  t.add("grandchild", 95, 100, late);
  expect(near(t.self_times("parent")[0], 50e-9), "parent self time excludes its children");
  const std::vector<double> kids = t.self_times("child");
  expect(kids.size() == 3 && near(kids[0], 20e-9) && near(kids[1], 30e-9) &&
             near(kids[2], 25e-9),
         "child self time excludes its own child");
  expect(near(t.self_times("grandchild")[0], 5e-9), "leaf self time is its duration");
  expect(t.durations("child").size() == 3, "durations by name");
}

}  // namespace

int main() {
  test_percentiles();
  test_schedule();
  test_self_time();
  std::printf("%s\n", failures == 0 ? "selftest: all passed" : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}
