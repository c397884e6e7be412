#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace safenn::lp {
namespace {

Solution solve(const Problem& p) { return SimplexSolver().solve(p); }

TEST(Problem, MergesDuplicateTerms) {
  Problem p;
  const int x = p.add_variable(0, 10);
  p.add_constraint({{x, 1.0}, {x, 2.0}}, Relation::kLe, 6.0);
  EXPECT_EQ(p.constraint(0).terms.size(), 1u);
  EXPECT_DOUBLE_EQ(p.constraint(0).terms[0].second, 3.0);
}

TEST(Problem, ViolationMeasurement) {
  Problem p;
  const int x = p.add_variable(0, 10);
  p.add_constraint({{x, 1.0}}, Relation::kLe, 5.0);
  EXPECT_DOUBLE_EQ(p.max_violation({7.0}), 2.0);
  EXPECT_DOUBLE_EQ(p.max_violation({3.0}), 0.0);
}

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
  // Optimum: x=2, y=6, obj=36 (classic Dantzig example).
  Problem p;
  p.set_maximize(true);
  const int x = p.add_variable(0, kInfinity, 3.0);
  const int y = p.add_variable(0, kInfinity, 5.0);
  p.add_constraint({{x, 1.0}}, Relation::kLe, 4.0);
  p.add_constraint({{y, 2.0}}, Relation::kLe, 12.0);
  p.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLe, 18.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-6);
  EXPECT_NEAR(s.values[0], 2.0, 1e-6);
  EXPECT_NEAR(s.values[1], 6.0, 1e-6);
}

TEST(Simplex, SimpleMinimization) {
  // min x + y s.t. x + 2y >= 4, 3x + y >= 6, x,y >= 0.
  // Optimum at intersection: x=1.6, y=1.2, obj=2.8.
  Problem p;
  const int x = p.add_variable(0, kInfinity, 1.0);
  const int y = p.add_variable(0, kInfinity, 1.0);
  p.add_constraint({{x, 1.0}, {y, 2.0}}, Relation::kGe, 4.0);
  p.add_constraint({{x, 3.0}, {y, 1.0}}, Relation::kGe, 6.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.8, 1e-6);
  EXPECT_NEAR(s.values[0], 1.6, 1e-6);
  EXPECT_NEAR(s.values[1], 1.2, 1e-6);
}

TEST(Simplex, EqualityConstraints) {
  // min 2x + 3y s.t. x + y = 10, x - y = 2 -> x=6, y=4, obj=24.
  Problem p;
  const int x = p.add_variable(0, kInfinity, 2.0);
  const int y = p.add_variable(0, kInfinity, 3.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 10.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kEq, 2.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[0], 6.0, 1e-6);
  EXPECT_NEAR(s.values[1], 4.0, 1e-6);
  EXPECT_NEAR(s.objective, 24.0, 1e-6);
}

TEST(Simplex, DetectsInfeasibility) {
  Problem p;
  const int x = p.add_variable(0, kInfinity);
  p.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  p.add_constraint({{x, 1.0}}, Relation::kGe, 2.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleEqualitySystem) {
  Problem p;
  const int x = p.add_variable(0, kInfinity);
  const int y = p.add_variable(0, kInfinity);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 3.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Problem p;
  p.set_maximize(true);
  const int x = p.add_variable(0, kInfinity, 1.0);
  const int y = p.add_variable(0, kInfinity, 0.0);
  p.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kLe, 1.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, BoundedVariablesOnly) {
  // No rows at all: optimum sits at the bound favored by the objective.
  Problem p;
  p.set_maximize(true);
  p.add_variable(-2.0, 5.0, 3.0);
  p.add_variable(-4.0, 1.0, -2.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[0], 5.0, 1e-9);
  EXPECT_NEAR(s.values[1], -4.0, 1e-9);
  EXPECT_NEAR(s.objective, 23.0, 1e-9);
}

TEST(Simplex, UpperBoundsBind) {
  // max x + y, x <= 3 (bound), y <= 2 (bound), x + y <= 4 (row).
  Problem p;
  p.set_maximize(true);
  const int x = p.add_variable(0, 3, 1.0);
  const int y = p.add_variable(0, 2, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLe, 4.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-7);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x with x in [-5, 5] and x >= -3 as a row: optimum -3.
  Problem p;
  const int x = p.add_variable(-5, 5, 1.0);
  p.add_constraint({{x, 1.0}}, Relation::kGe, -3.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -3.0, 1e-7);
}

TEST(Simplex, FreeVariable) {
  // min x + y with y free, x in [0,inf), x + y = 3, y <= 10 row.
  // y free means optimum drives y to... objective min x+y with x+y=3 is 3
  // everywhere on the line; any feasible point gives 3.
  Problem p;
  const int x = p.add_variable(0, kInfinity, 1.0);
  const int y = p.add_variable(-kInfinity, kInfinity, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 3.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
}

TEST(Simplex, FreeVariableUnbounded) {
  Problem p;
  const int y = p.add_variable(-kInfinity, kInfinity, 1.0);
  p.add_constraint({{y, 1.0}}, Relation::kLe, 5.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kUnbounded);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Multiple constraints intersecting at the optimum (degeneracy).
  Problem p;
  p.set_maximize(true);
  const int x = p.add_variable(0, kInfinity, 1.0);
  const int y = p.add_variable(0, kInfinity, 1.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLe, 2.0);
  p.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  p.add_constraint({{y, 1.0}}, Relation::kLe, 1.0);
  p.add_constraint({{x, 2.0}, {y, 1.0}}, Relation::kLe, 3.0);
  p.add_constraint({{x, 1.0}, {y, 2.0}}, Relation::kLe, 3.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
}

TEST(Simplex, RedundantEqualityRows) {
  // Duplicated equality row must not break Phase 1 cleanup.
  Problem p;
  const int x = p.add_variable(0, kInfinity, 1.0);
  const int y = p.add_variable(0, kInfinity, 2.0);
  p.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 4.0);
  p.add_constraint({{x, 2.0}, {y, 2.0}}, Relation::kEq, 8.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-6);  // all weight on x
  EXPECT_NEAR(s.values[0], 4.0, 1e-6);
}

TEST(Simplex, NegativeRhs) {
  // min -x s.t. -x >= -7 (i.e. x <= 7), x >= 0 -> x = 7.
  Problem p;
  const int x = p.add_variable(0, kInfinity, -1.0);
  p.add_constraint({{x, -1.0}}, Relation::kGe, -7.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[0], 7.0, 1e-7);
}

TEST(Simplex, BigMStyleIndicatorRelaxation) {
  // The LP relaxation pattern produced by the ReLU encoder:
  // y >= z, y >= 0, y <= z + M(1-d), y <= M d with d in [0,1] relaxed.
  Problem p;
  p.set_maximize(true);
  const double big_m = 10.0;
  const int z = p.add_variable(-5, 5, 0.0);
  const int y = p.add_variable(0, big_m, 1.0);
  const int d = p.add_variable(0, 1, 0.0);
  p.add_constraint({{y, 1.0}, {z, -1.0}}, Relation::kGe, 0.0);
  p.add_constraint({{y, 1.0}, {z, -1.0}, {d, big_m}}, Relation::kLe, big_m);
  p.add_constraint({{y, 1.0}, {d, -big_m}}, Relation::kLe, 0.0);
  p.add_constraint({{z, 1.0}}, Relation::kLe, 3.0);
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  // Relaxation optimum: y as large as possible; y <= z + M(1-d), y <= Md.
  // Balance: z=3 -> y <= 3 + 10(1-d), y <= 10d -> d=1: y <= 3... but
  // equality at d where 3+10-10d = 10d -> d=0.65, y=6.5.
  EXPECT_NEAR(s.objective, 6.5, 1e-6);
}

TEST(Simplex, ReportsIterationCount) {
  Problem p;
  p.set_maximize(true);
  const int x = p.add_variable(0, 1, 1.0);
  p.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  const Solution s = solve(p);
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_GT(s.iterations, 0);
}

// A random feasible-by-construction LP: a random point `witness` in a box
// is picked, rows are generated to be satisfied by it strictly, so the LP
// is feasible.
Problem random_feasible_lp(std::uint64_t seed, std::vector<double>* witness) {
  Rng rng(seed);
  const int n = 2 + static_cast<int>(rng.uniform_index(6));
  const int m = 1 + static_cast<int>(rng.uniform_index(8));
  Problem p;
  witness->assign(static_cast<std::size_t>(n), 0.0);
  p.set_maximize(true);
  for (int j = 0; j < n; ++j) {
    const double lo = rng.uniform(-5, 0);
    const double hi = rng.uniform(0.5, 5);
    p.add_variable(lo, hi, rng.normal());
    (*witness)[static_cast<std::size_t>(j)] = rng.uniform(lo, hi);
  }
  for (int i = 0; i < m; ++i) {
    LinearTerms terms;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      const double coef = rng.normal();
      terms.emplace_back(j, coef);
      lhs += coef * (*witness)[static_cast<std::size_t>(j)];
    }
    // Slack it so the witness satisfies the row strictly.
    p.add_constraint(std::move(terms), Relation::kLe,
                     lhs + rng.uniform(0.1, 2.0));
  }
  return p;
}

// Property test: the solver must return kOptimal with a feasible point
// whose objective is at least as good as the witness's.
class RandomFeasibleLp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomFeasibleLp, OptimalBeatsWitnessPoint) {
  std::vector<double> witness;
  const Problem p = random_feasible_lp(GetParam(), &witness);
  const int n = p.num_variables();
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_LE(p.max_violation(s.values), 1e-6);
  EXPECT_GE(s.objective, p.objective_value(witness) - 1e-6);
  // All variable bounds respected.
  for (int j = 0; j < n; ++j) {
    EXPECT_GE(s.values[static_cast<std::size_t>(j)],
              p.variable(j).lower - 1e-7);
    EXPECT_LE(s.values[static_cast<std::size_t>(j)],
              p.variable(j).upper + 1e-7);
  }
}

// Re-solve from a parent's optimal state must answer exactly what a cold
// solve of the same child answers: same status, objective within 1e-9
// relative.
void expect_same_answer(const Solution& warm, const Solution& cold,
                        const std::string& what) {
  ASSERT_EQ(warm.status, cold.status) << what;
  if (cold.status != SolveStatus::kOptimal) return;
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-9 * std::max(1.0, std::abs(cold.objective)))
      << what;
}

TEST_P(RandomFeasibleLp, ResolveAfterBoundTighteningMatchesColdSolve) {
  std::vector<double> witness;
  const Problem parent = random_feasible_lp(GetParam(), &witness);
  SimplexState state;
  const Solution root = SimplexSolver().solve(parent, &state);
  ASSERT_EQ(root.status, SolveStatus::kOptimal);
  ASSERT_FALSE(state.empty());
  Rng rng(GetParam() + 7000);
  for (int j = 0; j < parent.num_variables(); ++j) {
    const double v = root.values[static_cast<std::size_t>(j)];
    const Variable& var = parent.variable(j);
    const bool at_bound =
        std::abs(v - var.lower) < 1e-9 || std::abs(v - var.upper) < 1e-9;
    Problem child = parent;
    if (at_bound) {
      // Nonbasic: move the bound it sits on inward.
      const double f = rng.uniform(0.1, 0.9);
      if (std::abs(v - var.lower) < 1e-9) {
        child.variable(j).lower = var.lower + f * (var.upper - var.lower);
      } else {
        child.variable(j).upper = var.upper - f * (var.upper - var.lower);
      }
    } else {
      // Basic (strictly inside its box): cut its current value off.
      if (rng.uniform() < 0.5) {
        child.variable(j).upper = var.lower + rng.uniform(0.0, 1.0) * (v - var.lower);
      } else {
        child.variable(j).lower = v + rng.uniform(0.0, 1.0) * (var.upper - v);
      }
    }
    const Solution warm = SimplexSolver().resolve(child, state);
    const Solution cold = SimplexSolver().solve(child);
    expect_same_answer(warm, cold, "seed " + std::to_string(GetParam()) +
                                       " column " + std::to_string(j));
    EXPECT_TRUE(warm.warm) << "one bound change needs no fallback";
    if (warm.status == SolveStatus::kOptimal) {
      EXPECT_LE(child.max_violation(warm.values), 1e-6);
    }
  }
}

TEST_P(RandomFeasibleLp, ResolveFromCompactStateMatchesColdSolve) {
  // The compact copy keeps only the basis and nonbasic values; a re-solve
  // from it refactors the basis from the rows and must answer exactly as
  // a cold solve does, for bound and objective changes alike.
  std::vector<double> witness;
  const Problem parent = random_feasible_lp(GetParam(), &witness);
  SimplexState full;
  const Solution root = SimplexSolver().solve(parent, &full);
  ASSERT_EQ(root.status, SolveStatus::kOptimal);
  const SimplexState compact = full.compact();
  ASSERT_FALSE(compact.empty());
  EXPECT_LT(compact.bytes(), full.bytes());
  EXPECT_TRUE(compact.is_compact());
  EXPECT_FALSE(full.is_compact());

  const Solution same = SimplexSolver().resolve(parent, compact);
  expect_same_answer(same, root, "unchanged, seed " + std::to_string(GetParam()));
  EXPECT_TRUE(same.warm);

  Rng rng(GetParam() + 8000);
  for (int j = 0; j < parent.num_variables(); ++j) {
    Problem child = parent;
    const Variable& var = parent.variable(j);
    const double v = root.values[static_cast<std::size_t>(j)];
    if (rng.uniform() < 0.5) {
      child.variable(j).upper = var.lower + rng.uniform(0.0, 1.0) * (v - var.lower);
    } else {
      child.variable(j).lower = v + rng.uniform(0.0, 1.0) * (var.upper - v);
    }
    if (j % 2 == 1) child.set_maximize(false);
    SimplexState next;
    const Solution warm = SimplexSolver().resolve(child, compact, &next);
    const Solution cold = SimplexSolver().solve(child);
    expect_same_answer(warm, cold, "seed " + std::to_string(GetParam()) +
                                       " column " + std::to_string(j));
    // The re-solve hands back a full state again.
    EXPECT_EQ(next.empty(), warm.status != SolveStatus::kOptimal);
  }
}

TEST_P(RandomFeasibleLp, ResolveFromStateOfOtherRowsMatchesColdSolve) {
  // A warm tableau is pivoted on across many re-solves and never
  // refactored, so it may drift from the problem's rows. A state taken
  // from the same problem with every row coefficient perturbed by a few
  // percent stands in for a tableau that has drifted that far: the warm
  // path pivots on wrong entries, and each answer it reaches (optimal or
  // infeasible) must be caught by its check against the problem's own
  // rows and fall back, so that the re-solve still answers exactly what a
  // cold solve answers.
  std::vector<double> witness;
  const Problem problem = random_feasible_lp(GetParam(), &witness);
  Problem drifted;
  drifted.set_maximize(problem.maximize());
  for (int j = 0; j < problem.num_variables(); ++j) {
    const Variable& var = problem.variable(j);
    drifted.add_variable(var.lower, var.upper, var.objective);
  }
  Rng rng(GetParam() + 8000);
  for (int i = 0; i < problem.num_constraints(); ++i) {
    const Constraint& row = problem.constraint(i);
    LinearTerms terms;
    for (const auto& [j, coef] : row.terms) {
      terms.emplace_back(j, coef * (1.0 + 0.05 * rng.normal()));
    }
    drifted.add_constraint(std::move(terms), row.relation, row.rhs);
  }
  SimplexState state;
  ASSERT_EQ(SimplexSolver().solve(drifted, &state).status, SolveStatus::kOptimal);

  const Solution same = SimplexSolver().resolve(problem, state);
  expect_same_answer(same, SimplexSolver().solve(problem),
                     "unchanged bounds, seed " + std::to_string(GetParam()));
  for (int j = 0; j < problem.num_variables(); ++j) {
    Problem child = problem;
    const Variable& var = problem.variable(j);
    const double v = witness[static_cast<std::size_t>(j)];
    if (rng.uniform() < 0.5) {
      child.variable(j).upper = var.lower + rng.uniform(0.0, 1.0) * (v - var.lower);
    } else {
      child.variable(j).lower = v + rng.uniform(0.0, 1.0) * (var.upper - v);
    }
    if (j % 3 == 1) {
      // Pinned just inside the feasible set, on the segment from the
      // witness toward row 0's worst corner: feasible, with every row
      // slack small, so rows whose drifted copies are violated there lead
      // the dual simplex to claim infeasibility.
      child = problem;
      std::vector<double> dir(witness.size());
      for (const auto& [k, coef] : problem.constraint(0).terms) {
        const Variable& vk = problem.variable(k);
        dir[static_cast<std::size_t>(k)] =
            (coef > 0.0 ? vk.upper : vk.lower) - witness[static_cast<std::size_t>(k)];
      }
      double t = 1.0;
      for (int i = 0; i < problem.num_constraints(); ++i) {
        double at = 0.0, rate = 0.0;
        for (const auto& [k, coef] : problem.constraint(i).terms) {
          at += coef * witness[static_cast<std::size_t>(k)];
          rate += coef * dir[static_cast<std::size_t>(k)];
        }
        if (rate > 0.0) t = std::min(t, (problem.constraint(i).rhs - at) / rate);
      }
      for (int k = 0; k < child.num_variables(); ++k) {
        const double x = witness[static_cast<std::size_t>(k)] +
                         0.999 * t * dir[static_cast<std::size_t>(k)];
        child.variable(k).lower = x;
        child.variable(k).upper = x;
      }
    } else if (j % 3 == 2) {
      // Pinned at row 0's worst corner: infeasible for most seeds.
      for (const auto& [k, coef] : problem.constraint(0).terms) {
        const double x = coef > 0.0 ? child.variable(k).upper : child.variable(k).lower;
        child.variable(k).lower = x;
        child.variable(k).upper = x;
      }
    }
    if (j % 2 == 1) child.set_maximize(false);
    const Solution warm = SimplexSolver().resolve(child, state);
    const Solution cold = SimplexSolver().solve(child);
    expect_same_answer(warm, cold, "seed " + std::to_string(GetParam()) +
                                       " column " + std::to_string(j));
    if (warm.status == SolveStatus::kOptimal) {
      EXPECT_LE(child.max_violation(warm.values), 1e-6);
    }
  }
}

TEST_P(RandomFeasibleLp, ResolveOfInfeasibleChildMatchesColdSolve) {
  std::vector<double> witness;
  const Problem parent = random_feasible_lp(GetParam(), &witness);
  SimplexState state;
  ASSERT_EQ(SimplexSolver().solve(parent, &state).status, SolveStatus::kOptimal);
  // Pin every column at the end of its box that pushes row 0 up: the
  // child is infeasible exactly when that corner violates row 0.
  Problem child = parent;
  double corner = 0.0;
  for (const auto& [j, coef] : parent.constraint(0).terms) {
    const Variable& var = parent.variable(j);
    const double x = coef > 0.0 ? var.upper : var.lower;
    child.variable(j).lower = x;
    child.variable(j).upper = x;
    corner += coef * x;
  }
  const Solution warm = SimplexSolver().resolve(child, state);
  const Solution cold = SimplexSolver().solve(child);
  expect_same_answer(warm, cold, "seed " + std::to_string(GetParam()));
  if (corner > parent.constraint(0).rhs + 1e-3) {
    EXPECT_EQ(warm.status, SolveStatus::kInfeasible);
    EXPECT_TRUE(warm.warm) << "the dual simplex proves infeasibility itself";
  }
}

TEST_P(RandomFeasibleLp, ResolveAfterObjectiveChangeMatchesColdSolve) {
  std::vector<double> witness;
  const Problem parent = random_feasible_lp(GetParam(), &witness);
  SimplexState state;
  ASSERT_EQ(SimplexSolver().solve(parent, &state).status, SolveStatus::kOptimal);
  // The other half of a min/max pair, then a fresh random objective.
  Problem flipped = parent;
  flipped.set_maximize(false);
  Problem fresh = parent;
  Rng rng(GetParam() + 9000);
  for (int j = 0; j < fresh.num_variables(); ++j) fresh.set_objective(j, rng.normal());
  for (const Problem* child : {&flipped, &fresh}) {
    const Solution warm = SimplexSolver().resolve(*child, state);
    const Solution cold = SimplexSolver().solve(*child);
    expect_same_answer(warm, cold, "seed " + std::to_string(GetParam()));
    EXPECT_TRUE(warm.warm) << "an objective change never needs the fallback";
  }
}

TEST(ResolveChain, LongObjectiveChainMatchesColdSolves) {
  // LP bound tightening re-solves every LP of a layer from the one before
  // it, min and max of each neuron in turn, so one tableau serves a long
  // chain of objective changes. Run 60 generations on a 30-column,
  // 24-row LP, each re-solving from the last one's state, and compare
  // every answer with a cold solve.
  Rng rng(4242);
  Problem p;
  std::vector<double> witness;
  for (int j = 0; j < 30; ++j) {
    p.add_variable(-3.0, 3.0);
    witness.push_back(rng.uniform(-2.0, 2.0));
  }
  for (int i = 0; i < 24; ++i) {
    LinearTerms terms;
    double lhs = 0.0;
    for (int j = 0; j < 30; ++j) {
      if (rng.uniform() < 0.5) continue;
      const double coef = rng.normal();
      terms.emplace_back(j, coef);
      lhs += coef * witness[static_cast<std::size_t>(j)];
    }
    p.add_constraint(std::move(terms), Relation::kLe, lhs + rng.uniform(0.1, 1.0));
  }
  SimplexState state;
  ASSERT_EQ(SimplexSolver().solve(p, &state).status, SolveStatus::kOptimal);
  int warm = 0;
  for (int gen = 0; gen < 60; ++gen) {
    for (int j = 0; j < 30; ++j) p.set_objective(j, 0.0);
    for (int k = 0; k < 4; ++k) {
      p.set_objective(static_cast<int>(rng.uniform_index(30)), rng.normal());
    }
    p.set_maximize(gen % 2 == 1);
    const Solution w = SimplexSolver().resolve(p, state, &state);
    expect_same_answer(w, solve(p), "generation " + std::to_string(gen));
    warm += w.warm ? 1 : 0;
  }
  EXPECT_GE(warm, 55) << "an objective change needs no fallback";
}

TEST(ResolveFallback, LostDualFeasibilityMatchesColdSolve) {
  // Halved bounds and a flipped objective at once: the old basis is
  // usually neither primal nor dual feasible (a nonbasic slack wants its
  // infinite bound), so the re-solve falls back to the cold solve. The
  // answer must not change, and the fallback still hands back a state to
  // continue from.
  int fallbacks = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    std::vector<double> witness;
    const Problem parent = random_feasible_lp(seed, &witness);
    SimplexState state;
    ASSERT_EQ(SimplexSolver().solve(parent, &state).status, SolveStatus::kOptimal);
    Problem child = parent;
    child.set_maximize(false);
    for (int j = 0; j < child.num_variables(); ++j) {
      const Variable& var = parent.variable(j);
      child.variable(j).upper = var.lower + 0.5 * (var.upper - var.lower);
    }
    SimplexState child_state;
    const Solution warm = SimplexSolver().resolve(child, state, &child_state);
    const Solution cold = SimplexSolver().solve(child);
    expect_same_answer(warm, cold, "seed " + std::to_string(seed));
    EXPECT_EQ(child_state.empty(), warm.status != SolveStatus::kOptimal);
    if (!warm.warm) ++fallbacks;
  }
  EXPECT_GE(fallbacks, 5);
}

TEST(ResolveFallback, TinyIterationCapFallsBackToColdSolve) {
  // Past its pivot cap the warm path gives up; the cold fallback runs
  // under the same max_iterations and reports exactly what a cold solve
  // with those options reports. A warm path that finishes inside the cap
  // must match an uncapped cold solve instead.
  SimplexOptions tiny;
  tiny.max_iterations = 2;
  const SimplexSolver solver(tiny);
  int fallbacks = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    std::vector<double> witness;
    const Problem parent = random_feasible_lp(seed, &witness);
    SimplexState state;
    ASSERT_EQ(SimplexSolver().solve(parent, &state).status, SolveStatus::kOptimal);
    Problem child = parent;
    child.set_maximize(false);
    const Solution warm = solver.resolve(child, state);
    const Solution cold = warm.warm ? SimplexSolver().solve(child) : solver.solve(child);
    expect_same_answer(warm, cold, "seed " + std::to_string(seed));
    if (!warm.warm) ++fallbacks;
  }
  EXPECT_GE(fallbacks, 30);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFeasibleLp,
                         ::testing::Range<std::uint64_t>(0, 40));

// Property test: equality-constrained random LPs built around a witness.
class RandomEqualityLp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomEqualityLp, FindsFeasiblePoint) {
  Rng rng(GetParam() + 1000);
  const int n = 3 + static_cast<int>(rng.uniform_index(4));
  Problem p;
  std::vector<double> witness(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    p.add_variable(-10, 10, rng.normal());
    witness[static_cast<std::size_t>(j)] = rng.uniform(-3, 3);
  }
  const int m = 1 + static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(n - 1)));
  for (int i = 0; i < m; ++i) {
    LinearTerms terms;
    double lhs = 0.0;
    for (int j = 0; j < n; ++j) {
      const double coef = rng.normal();
      terms.emplace_back(j, coef);
      lhs += coef * witness[static_cast<std::size_t>(j)];
    }
    p.add_constraint(std::move(terms), Relation::kEq, lhs);
  }
  const Solution s = solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_LE(p.max_violation(s.values), 1e-6);
  EXPECT_LE(s.objective, p.objective_value(witness) + 1e-6);  // minimize
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEqualityLp,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace safenn::lp
