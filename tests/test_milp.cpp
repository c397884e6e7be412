#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "milp/branch_and_bound.hpp"

namespace safenn::milp {
namespace {

MilpResult solve(const Model& m, BnbOptions opt = {}) {
  return BranchAndBound(opt).solve(m);
}

TEST(Model, BinaryBoundsClamped) {
  Model m;
  const int b = m.add_variable(-5, 5, VarType::kBinary);
  EXPECT_DOUBLE_EQ(m.problem().variable(b).lower, 0.0);
  EXPECT_DOUBLE_EQ(m.problem().variable(b).upper, 1.0);
  EXPECT_EQ(m.var_type(b), VarType::kBinary);
  EXPECT_EQ(m.integral_variables().size(), 1u);
}

TEST(Model, IntegralityCheck) {
  Model m;
  m.add_variable(0, 10, VarType::kInteger);
  m.add_variable(0, 10, VarType::kContinuous);
  EXPECT_TRUE(m.is_integral({3.0, 2.5}, 1e-6));
  EXPECT_FALSE(m.is_integral({3.4, 2.0}, 1e-6));
}

TEST(BranchAndBound, PureLpPassesThrough) {
  Model m;
  m.set_maximize(true);
  const int x = m.add_variable(0, 4, VarType::kContinuous, 1.0);
  m.add_constraint({{x, 2.0}}, lp::Relation::kLe, 5.0);
  const MilpResult r = solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.5, 1e-6);
}

TEST(BranchAndBound, SmallKnapsack) {
  // max 10a + 13b + 7c with 3a + 4b + 2c <= 6, binary.
  // Best: a + c (w=5, v=17)? options: b+c (w=6, v=20) <- optimum.
  Model m;
  m.set_maximize(true);
  const int a = m.add_variable(0, 1, VarType::kBinary, 10.0);
  const int b = m.add_variable(0, 1, VarType::kBinary, 13.0);
  const int c = m.add_variable(0, 1, VarType::kBinary, 7.0);
  m.add_constraint({{a, 3.0}, {b, 4.0}, {c, 2.0}}, lp::Relation::kLe, 6.0);
  const MilpResult r = solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 20.0, 1e-6);
  EXPECT_NEAR(r.values[static_cast<std::size_t>(a)], 0.0, 1e-6);
  EXPECT_NEAR(r.values[static_cast<std::size_t>(b)], 1.0, 1e-6);
  EXPECT_NEAR(r.values[static_cast<std::size_t>(c)], 1.0, 1e-6);
}

TEST(BranchAndBound, IntegerRounding) {
  // max x s.t. 2x <= 7, x integer -> x = 3 (LP gives 3.5).
  Model m;
  m.set_maximize(true);
  const int x = m.add_variable(0, 100, VarType::kInteger, 1.0);
  m.add_constraint({{x, 2.0}}, lp::Relation::kLe, 7.0);
  const MilpResult r = solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-6);
}

TEST(BranchAndBound, MinimizationSense) {
  // min 3x + 2y s.t. x + y >= 3.5, x,y integer >= 0 -> x=0..? cheapest
  // integral combos: (0,4)=8, (1,3)=9, (2,2)=10, (3,1)=11 -> 8.
  Model m;
  const int x = m.add_variable(0, 10, VarType::kInteger, 3.0);
  const int y = m.add_variable(0, 10, VarType::kInteger, 2.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Relation::kGe, 3.5);
  const MilpResult r = solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 8.0, 1e-6);
}

TEST(BranchAndBound, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6, x binary: no integral point.
  Model m;
  const int x = m.add_variable(0, 1, VarType::kBinary, 1.0);
  m.add_constraint({{x, 1.0}}, lp::Relation::kGe, 0.4);
  m.add_constraint({{x, 1.0}}, lp::Relation::kLe, 0.6);
  EXPECT_EQ(solve(m).status, MilpStatus::kInfeasible);
}

TEST(BranchAndBound, InfeasibleLpRelaxation) {
  Model m;
  const int x = m.add_variable(0, 1, VarType::kBinary, 1.0);
  m.add_constraint({{x, 1.0}}, lp::Relation::kGe, 2.0);
  EXPECT_EQ(solve(m).status, MilpStatus::kInfeasible);
}

TEST(BranchAndBound, UnboundedRelaxation) {
  Model m;
  m.set_maximize(true);
  m.add_variable(0, lp::kInfinity, VarType::kContinuous, 1.0);
  const MilpResult r = solve(m);
  EXPECT_EQ(r.status, MilpStatus::kUnbounded);
}

TEST(BranchAndBound, EqualityWithBinaries) {
  // a + b + c = 2 (binary), max 5a + 4b + 3c -> a=b=1: 9.
  Model m;
  m.set_maximize(true);
  const int a = m.add_variable(0, 1, VarType::kBinary, 5.0);
  const int b = m.add_variable(0, 1, VarType::kBinary, 4.0);
  const int c = m.add_variable(0, 1, VarType::kBinary, 3.0);
  m.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, lp::Relation::kEq, 2.0);
  const MilpResult r = solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 9.0, 1e-6);
}

TEST(BranchAndBound, BigMDisjunction) {
  // Either x <= 1 or x >= 4 (binary d selects); max x, x <= 6.
  Model m;
  m.set_maximize(true);
  const double big_m = 100.0;
  const int x = m.add_variable(0, 6, VarType::kContinuous, 1.0);
  const int d = m.add_variable(0, 1, VarType::kBinary, 0.0);
  // d=0 -> x <= 1; d=1 -> x >= 4.
  m.add_constraint({{x, 1.0}, {d, -big_m}}, lp::Relation::kLe, 1.0);
  m.add_constraint({{x, -1.0}, {d, -big_m}}, lp::Relation::kLe, -4.0 + big_m);
  const MilpResult r = solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 6.0, 1e-6);
  EXPECT_NEAR(r.values[static_cast<std::size_t>(d)], 1.0, 1e-6);
}

TEST(BranchAndBound, NodeLimitReturnsHonestStatus) {
  // A knapsack big enough to need several nodes, capped at 1 node.
  Rng rng(3);
  Model m;
  m.set_maximize(true);
  lp::LinearTerms weight_terms;
  for (int i = 0; i < 12; ++i) {
    const int v = m.add_variable(0, 1, VarType::kBinary, rng.uniform(1, 10));
    weight_terms.emplace_back(v, rng.uniform(1, 5));
  }
  m.add_constraint(std::move(weight_terms), lp::Relation::kLe, 10.0);
  BnbOptions opt;
  opt.max_nodes = 1;
  opt.heuristic_interval = 0;  // no primal heuristic either
  const MilpResult r = solve(m, opt);
  EXPECT_TRUE(r.status == MilpStatus::kNodeLimit ||
              r.status == MilpStatus::kTimeLimitNoSolution ||
              r.status == MilpStatus::kOptimal);
  EXPECT_LE(r.nodes_explored, 2);
}

TEST(BranchAndBound, TimeLimitRespected) {
  // Adversarial equality knapsack; with a tiny deadline the solver must
  // return promptly with an honest status.
  Rng rng(5);
  Model m;
  m.set_maximize(true);
  lp::LinearTerms terms;
  for (int i = 0; i < 30; ++i) {
    const int v = m.add_variable(0, 1, VarType::kBinary, rng.uniform(1, 2));
    terms.emplace_back(v, std::round(rng.uniform(10, 30)));
  }
  m.add_constraint(std::move(terms), lp::Relation::kEq, 317.0);
  BnbOptions opt;
  opt.time_limit_seconds = 0.05;
  Stopwatch sw;
  const MilpResult r = solve(m, opt);
  EXPECT_LT(sw.seconds(), 5.0);
  // Status must be a time-limit status or a genuine answer.
  EXPECT_TRUE(r.status == MilpStatus::kTimeLimitFeasible ||
              r.status == MilpStatus::kTimeLimitNoSolution ||
              r.status == MilpStatus::kOptimal ||
              r.status == MilpStatus::kInfeasible);
}

TEST(BranchAndBound, IncumbentCallbackStreams) {
  Model m;
  m.set_maximize(true);
  Rng rng(6);
  lp::LinearTerms terms;
  for (int i = 0; i < 10; ++i) {
    const int v = m.add_variable(0, 1, VarType::kBinary, rng.uniform(1, 10));
    terms.emplace_back(v, rng.uniform(1, 6));
  }
  m.add_constraint(std::move(terms), lp::Relation::kLe, 12.0);
  BnbOptions opt;
  int calls = 0;
  double last = -1e100;
  opt.on_incumbent = [&](const MilpResult& r) {
    ++calls;
    EXPECT_GT(r.objective, last);  // strictly improving stream
    last = r.objective;
  };
  const MilpResult r = solve(m, opt);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_GE(calls, 1);
  EXPECT_NEAR(last, r.objective, 1e-9);
}

TEST(BranchAndBound, GapIsZeroAtOptimality) {
  Model m;
  m.set_maximize(true);
  const int x = m.add_variable(0, 1, VarType::kBinary, 2.0);
  m.add_constraint({{x, 1.0}}, lp::Relation::kLe, 1.0);
  const MilpResult r = solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.gap(), 0.0, 1e-9);
}

// Property: random knapsacks, MILP answer must match exhaustive search.
class KnapsackExhaustive : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnapsackExhaustive, MatchesBruteForce) {
  Rng rng(GetParam() + 77);
  const int n = 8 + static_cast<int>(rng.uniform_index(5));  // <= 12 items
  std::vector<double> value(static_cast<std::size_t>(n)),
      weight(static_cast<std::size_t>(n));
  double capacity = 0.0;
  for (int i = 0; i < n; ++i) {
    value[static_cast<std::size_t>(i)] = rng.uniform(1, 20);
    weight[static_cast<std::size_t>(i)] = rng.uniform(1, 10);
    capacity += weight[static_cast<std::size_t>(i)];
  }
  capacity *= 0.4;

  Model m;
  m.set_maximize(true);
  lp::LinearTerms terms;
  for (int i = 0; i < n; ++i) {
    const int v = m.add_variable(0, 1, VarType::kBinary,
                                 value[static_cast<std::size_t>(i)]);
    terms.emplace_back(v, weight[static_cast<std::size_t>(i)]);
  }
  m.add_constraint(std::move(terms), lp::Relation::kLe, capacity);
  const MilpResult r = solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal) << "seed " << GetParam();

  double brute = 0.0;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    double v = 0.0, w = 0.0;
    for (int i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        v += value[static_cast<std::size_t>(i)];
        w += weight[static_cast<std::size_t>(i)];
      }
    }
    if (w <= capacity + 1e-9) brute = std::max(brute, v);
  }
  EXPECT_NEAR(r.objective, brute, 1e-6) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackExhaustive,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(BranchAndBound, FullTableauBudgetOverflowStaysExact) {
  // Open nodes hold their parents' full tableaus up to kFullTableauBytes;
  // nodes branched past it hand their children a compact basis, which
  // each child refactors. A strongly correlated knapsack (value = weight
  // + 10) keeps a wide best-first frontier, about 5,500 nodes in all;
  // padding rows z_p <= x_k (z_p in [0, 1], no objective) leave its
  // optimum alone but make every tableau about 0.5 MB, so the frontier
  // overflows the tableau budget. The answer must still be the exact
  // optimum.
  Rng rng(2024);
  const int items = 40;
  const int padding = 170;
  std::vector<int> weight(items);
  int capacity = 0;
  for (int i = 0; i < items; ++i) {
    weight[static_cast<std::size_t>(i)] = 10 + static_cast<int>(rng.uniform_index(91));
    capacity += weight[static_cast<std::size_t>(i)];
  }
  capacity /= 2;
  Model m;
  m.set_maximize(true);
  lp::LinearTerms knapsack;
  for (int i = 0; i < items; ++i) {
    const double w = weight[static_cast<std::size_t>(i)];
    knapsack.emplace_back(m.add_variable(0, 1, VarType::kBinary, w + 10.0), w);
  }
  m.add_constraint(std::move(knapsack), lp::Relation::kLe, capacity);
  for (int p = 0; p < padding; ++p) {
    const int z = m.add_variable(0, 1, VarType::kContinuous);
    m.add_constraint({{z, 1.0}, {p % items, -1.0}}, lp::Relation::kLe, 0.0);
  }
  const MilpResult r = solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);

  // Exact optimum by dynamic programming over the integer capacity.
  std::vector<int> best(static_cast<std::size_t>(capacity) + 1, 0);
  for (int w : weight) {
    for (int c = capacity; c >= w; --c) {
      best[static_cast<std::size_t>(c)] = std::max(
          best[static_cast<std::size_t>(c)], best[static_cast<std::size_t>(c - w)] + w + 10);
    }
  }
  EXPECT_NEAR(r.objective, best.back(), 1e-6);
  EXPECT_GT(r.warm_state_peak_bytes, kFullTableauBytes * 9 / 10);
  EXPECT_LE(r.warm_state_peak_bytes, kWarmStateBudgetBytes);
  EXPECT_GT(r.compact_solves, 0) << "children past the tableau budget";
  EXPECT_LT(r.compact_solves, r.warm_solves);
  EXPECT_EQ(r.cold_solves, 1) << "only the root: compact bases fit";
}

}  // namespace
}  // namespace safenn::milp

// ---------------------------------------------------------------------------
// Warm starts and branch priorities (appended suite).
// ---------------------------------------------------------------------------
namespace safenn::milp {
namespace {

TEST(BranchAndBound, InitialSolutionBecomesIncumbent) {
  // Knapsack where the provided initial solution is feasible; even with a
  // node limit of 0 exploration the incumbent must be at least as good.
  Model m;
  m.set_maximize(true);
  const int a = m.add_variable(0, 1, VarType::kBinary, 5.0);
  const int b = m.add_variable(0, 1, VarType::kBinary, 4.0);
  m.add_constraint({{a, 1.0}, {b, 1.0}}, lp::Relation::kLe, 1.0);
  BnbOptions opt;
  opt.initial_solution = {0.0, 1.0};  // value 4
  opt.max_nodes = 1;
  opt.heuristic_interval = 0;
  const MilpResult r = BranchAndBound(opt).solve(m);
  EXPECT_TRUE(r.has_solution());
  EXPECT_GE(r.objective, 4.0 - 1e-9);
}

TEST(BranchAndBound, InfeasibleInitialSolutionIgnored) {
  Model m;
  m.set_maximize(true);
  const int a = m.add_variable(0, 1, VarType::kBinary, 5.0);
  m.add_constraint({{a, 1.0}}, lp::Relation::kLe, 0.0);  // a forced to 0
  BnbOptions opt;
  opt.initial_solution = {1.0};  // violates the row
  const MilpResult r = BranchAndBound(opt).solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(BranchAndBound, FractionalInitialSolutionIgnored) {
  Model m;
  m.set_maximize(true);
  const int a = m.add_variable(0, 1, VarType::kBinary, 1.0);
  m.add_constraint({{a, 1.0}}, lp::Relation::kLe, 1.0);
  BnbOptions opt;
  opt.initial_solution = {0.5};  // not integral: must be rejected
  const MilpResult r = BranchAndBound(opt).solve(m);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
}

TEST(BranchAndBound, BranchPrioritySameAnswer) {
  // Priorities change the search order, never the optimum.
  Rng rng(91);
  Model m;
  m.set_maximize(true);
  lp::LinearTerms terms;
  std::vector<double> prio;
  for (int i = 0; i < 14; ++i) {
    const int v = m.add_variable(0, 1, VarType::kBinary, rng.uniform(1, 9));
    terms.emplace_back(v, rng.uniform(1, 5));
    prio.push_back(rng.uniform(0, 10));
  }
  m.add_constraint(std::move(terms), lp::Relation::kLe, 14.0);
  const MilpResult plain = BranchAndBound().solve(m);
  BnbOptions opt;
  opt.branch_priority = prio;
  const MilpResult prioritized = BranchAndBound(opt).solve(m);
  ASSERT_EQ(plain.status, MilpStatus::kOptimal);
  ASSERT_EQ(prioritized.status, MilpStatus::kOptimal);
  EXPECT_NEAR(plain.objective, prioritized.objective, 1e-6);
}

}  // namespace
}  // namespace safenn::milp
