#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sat/solver.hpp"

namespace safenn::sat {
namespace {

TEST(Cnf, VariableAllocation) {
  Cnf cnf;
  EXPECT_EQ(cnf.new_var(), 1);
  EXPECT_EQ(cnf.new_var(), 2);
  EXPECT_EQ(cnf.new_vars(3), 3);
  EXPECT_EQ(cnf.num_vars(), 5);
}

TEST(Cnf, RejectsUnknownVariables) {
  Cnf cnf;
  cnf.new_var();
  EXPECT_THROW(cnf.add_unit(2), Error);
  EXPECT_THROW(cnf.add_unit(0), Error);
}

TEST(Solver, TrivialSat) {
  Cnf cnf;
  const Var a = cnf.new_var();
  cnf.add_unit(a);
  Solver s;
  ASSERT_EQ(s.solve(cnf), SatResult::kSat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(Solver, TrivialUnsat) {
  Cnf cnf;
  const Var a = cnf.new_var();
  cnf.add_unit(a);
  cnf.add_unit(-a);
  EXPECT_EQ(Solver().solve(cnf), SatResult::kUnsat);
}

TEST(Solver, EmptyClauseIsUnsat) {
  Cnf cnf;
  cnf.new_var();
  cnf.add_clause({});
  EXPECT_EQ(Solver().solve(cnf), SatResult::kUnsat);
}

TEST(Solver, EmptyFormulaIsSat) {
  Cnf cnf;
  cnf.new_vars(3);
  EXPECT_EQ(Solver().solve(cnf), SatResult::kSat);
}

TEST(Solver, CancelFlagStopsSearchWithoutAnyConflict) {
  // A formula the solver satisfies by decisions alone never reaches a
  // conflict, so a conflict-only poll would return kSat; the per-decision
  // poll sees the flag before the first decision.
  Cnf cnf;
  const Var first = cnf.new_vars(64);
  for (Var v = first; v + 1 < first + 64; ++v) cnf.add_clause({v, v + 1});
  std::atomic<bool> cancel{true};
  SolverOptions options;
  options.cancel = &cancel;
  Solver s(options);
  EXPECT_EQ(s.solve(cnf), SatResult::kUnknown);
  EXPECT_EQ(s.stats().decisions, 0);
  EXPECT_EQ(s.stats().conflicts, 0);
  cancel.store(false);
  EXPECT_EQ(Solver(options).solve(cnf), SatResult::kSat);
}

TEST(Solver, ImplicationChainPropagates) {
  // a, a->b, b->c, c->d: all must be true.
  Cnf cnf;
  const Var a = cnf.new_var(), b = cnf.new_var(), c = cnf.new_var(),
            d = cnf.new_var();
  cnf.add_unit(a);
  cnf.add_binary(-a, b);
  cnf.add_binary(-b, c);
  cnf.add_binary(-c, d);
  Solver s;
  ASSERT_EQ(s.solve(cnf), SatResult::kSat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
  EXPECT_TRUE(s.model_value(c));
  EXPECT_TRUE(s.model_value(d));
}

TEST(Solver, XorChainSat) {
  // x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 0: satisfiable.
  Cnf cnf;
  const Var x1 = cnf.new_var(), x2 = cnf.new_var(), x3 = cnf.new_var();
  auto add_xor = [&](Var p, Var q, bool rhs) {
    if (rhs) {
      cnf.add_binary(p, q);
      cnf.add_binary(-p, -q);
    } else {
      cnf.add_binary(-p, q);
      cnf.add_binary(p, -q);
    }
  };
  add_xor(x1, x2, true);
  add_xor(x2, x3, true);
  add_xor(x1, x3, false);
  Solver s;
  ASSERT_EQ(s.solve(cnf), SatResult::kSat);
  EXPECT_NE(s.model_value(x1), s.model_value(x2));
  EXPECT_EQ(s.model_value(x1), s.model_value(x3));
}

TEST(Solver, XorChainUnsat) {
  // x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 1: odd cycle, unsat.
  Cnf cnf;
  const Var x1 = cnf.new_var(), x2 = cnf.new_var(), x3 = cnf.new_var();
  auto add_xor1 = [&](Var p, Var q) {
    cnf.add_binary(p, q);
    cnf.add_binary(-p, -q);
  };
  add_xor1(x1, x2);
  add_xor1(x2, x3);
  add_xor1(x1, x3);
  EXPECT_EQ(Solver().solve(cnf), SatResult::kUnsat);
}

/// Pigeonhole principle PHP(n+1, n): n+1 pigeons into n holes, UNSAT.
Cnf pigeonhole(int holes) {
  Cnf cnf;
  const int pigeons = holes + 1;
  // var(p, h): pigeon p sits in hole h.
  std::vector<std::vector<Var>> v(static_cast<std::size_t>(pigeons));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      v[static_cast<std::size_t>(p)].push_back(cnf.new_var());
    }
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> at_least;
    for (int h = 0; h < holes; ++h)
      at_least.push_back(v[static_cast<std::size_t>(p)][static_cast<std::size_t>(h)]);
    cnf.add_clause(at_least);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.add_binary(-v[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)],
                       -v[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)]);
      }
    }
  }
  return cnf;
}

TEST(Solver, PigeonholeUnsat) {
  for (int holes : {2, 3, 4, 5}) {
    EXPECT_EQ(Solver().solve(pigeonhole(holes)), SatResult::kUnsat)
        << "holes=" << holes;
  }
}

TEST(Solver, AssumptionsRestrictModels) {
  Cnf cnf;
  const Var a = cnf.new_var(), b = cnf.new_var();
  cnf.add_binary(a, b);  // a or b
  Solver s1;
  ASSERT_EQ(s1.solve(cnf, {-a}), SatResult::kSat);
  EXPECT_FALSE(s1.model_value(a));
  EXPECT_TRUE(s1.model_value(b));
  Solver s2;
  EXPECT_EQ(s2.solve(cnf, {-a, -b}), SatResult::kUnsat);
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
  SolverOptions opt;
  opt.max_conflicts = 1;
  const SatResult r = Solver(opt).solve(pigeonhole(6));
  EXPECT_TRUE(r == SatResult::kUnknown || r == SatResult::kUnsat);
}

TEST(Solver, StatsArePopulated) {
  Solver s;
  ASSERT_EQ(s.solve(pigeonhole(4)), SatResult::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0);
  EXPECT_GT(s.stats().propagations, 0);
}

TEST(Solver, TautologyAndDuplicateLiteralsHandled) {
  Cnf cnf;
  const Var a = cnf.new_var(), b = cnf.new_var();
  cnf.add_clause({a, -a});      // tautology: no constraint
  cnf.add_clause({b, b, b});    // same as unit b
  Solver s;
  ASSERT_EQ(s.solve(cnf), SatResult::kSat);
  EXPECT_TRUE(s.model_value(b));
}

/// Reference: brute-force satisfiability check over all assignments.
bool brute_force_sat(const Cnf& cnf) {
  const int n = cnf.num_vars();
  for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
    bool ok = true;
    for (const auto& clause : cnf.clauses()) {
      bool clause_sat = false;
      for (Lit l : clause) {
        const bool val = (mask >> (lit_var(l) - 1)) & 1;
        if (val != lit_sign(l)) {
          clause_sat = true;
          break;
        }
      }
      if (!clause_sat) {
        ok = false;
        break;
      }
    }
    if (ok) return true;
  }
  return false;
}

/// Verifies a model against the formula directly.
bool model_satisfies(const Solver& s, const Cnf& cnf) {
  for (const auto& clause : cnf.clauses()) {
    bool clause_sat = false;
    for (Lit l : clause) {
      if (s.model_value(lit_var(l)) != lit_sign(l)) {
        clause_sat = true;
        break;
      }
    }
    if (!clause_sat) return false;
  }
  return true;
}

// Property: random 3-SAT instances near the phase transition, checked
// against exhaustive enumeration.
class Random3Sat : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Random3Sat, AgreesWithBruteForce) {
  Rng rng(GetParam() + 31);
  const int n = 8 + static_cast<int>(rng.uniform_index(6));  // 8..13 vars
  const int m = static_cast<int>(4.3 * n);                   // near transition
  Cnf cnf;
  cnf.new_vars(n);
  for (int i = 0; i < m; ++i) {
    std::vector<Lit> clause;
    while (clause.size() < 3) {
      const Var v = 1 + static_cast<Var>(rng.uniform_index(
                            static_cast<std::uint64_t>(n)));
      const Lit l = rng.bernoulli(0.5) ? v : -v;
      bool dup = false;
      for (Lit existing : clause) {
        if (lit_var(existing) == v) dup = true;
      }
      if (!dup) clause.push_back(l);
    }
    cnf.add_clause(clause);
  }
  Solver s;
  const SatResult got = s.solve(cnf);
  const bool expected = brute_force_sat(cnf);
  ASSERT_NE(got, SatResult::kUnknown);
  EXPECT_EQ(got == SatResult::kSat, expected) << "seed " << GetParam();
  if (got == SatResult::kSat) {
    EXPECT_TRUE(model_satisfies(s, cnf)) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Random3Sat,
                         ::testing::Range<std::uint64_t>(0, 30));

}  // namespace
}  // namespace safenn::sat
