// Two-phase primal simplex for LPs with bounded variables, plus a warm
// re-solve from an earlier optimal state.
//
// Dense tableau implementation sized for the LP relaxations produced by
// the MILP encoding of ReLU networks (hundreds to a few thousand
// columns). Bounded-variable pivoting with bound flips, Dantzig pricing
// with a Bland's-rule anti-cycling fallback, and Phase-1 artificial
// variables for a feasible start.
//
// resolve() restarts from the optimal tableau of an earlier solve of a
// problem with the same rows and columns, as branch-and-bound does for
// every child node (only bounds change) and bound tightening does from
// one LP of a layer to the next (only the objective changes). Changed
// bounds are repaired by a bounded dual simplex, a changed objective by
// primal Phase 2; both keep the earlier basis. A warm answer is checked
// against the problem's own rows before it is returned (a Farkas
// certificate for infeasible, a Lagrangian bound for optimal), so drift
// in a tableau pivoted on over many re-solves leads to a cold solve, not
// to a wrong answer.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "lp/problem.hpp"

namespace safenn::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Objective in the problem's own sense (max problems report the max).
  double objective = 0.0;
  /// Values of the structural variables (empty unless kOptimal).
  std::vector<double> values;
  long iterations = 0;
  /// True when resolve() reached this answer from its earlier state;
  /// false for a cold solve, including a re-solve's fallback.
  bool warm = false;
};

struct SimplexOptions {
  long max_iterations = 200000;
  double feasibility_tol = 1e-7;
  double optimality_tol = 1e-7;
  double pivot_tol = 1e-9;
  /// Switch to Bland's rule after this many consecutive degenerate pivots.
  long degenerate_switch = 200;
  /// Recompute basic values from scratch every N pivots (numerical hygiene).
  long refresh_interval = 128;
};

struct Tableau;  // defined in simplex.cpp

/// The optimal tableau and basis a solve ended on, kept for resolve().
/// Move-only; the dense tableau dominates its size (see bytes()).
class SimplexState {
 public:
  SimplexState();
  ~SimplexState();
  SimplexState(SimplexState&&) noexcept;
  SimplexState& operator=(SimplexState&&) noexcept;

  bool empty() const { return tableau_ == nullptr; }
  /// True for a state made by compact().
  bool is_compact() const;
  /// Heap bytes held: about 8 * rows * (columns + rows) for a full state,
  /// about 8 * (columns + 2 * rows) for a compact one.
  std::size_t bytes() const;

  /// A copy that keeps only the basis and the nonbasic values. resolve()
  /// from it first refactors the basis from the problem's rows (about one
  /// pivot per basic structural column): slower than from the full
  /// tableau, far cheaper than a cold solve, for a fraction of the memory.
  SimplexState compact() const;

 private:
  friend class SimplexSolver;
  std::unique_ptr<Tableau> tableau_;
};

/// Solves LPs. Holds only options; safe to reuse across problems.
class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {});

  /// Cold two-phase solve. When the result is kOptimal and `final_state`
  /// is non-null, it receives the optimal tableau for a later resolve().
  Solution solve(const Problem& problem,
                 SimplexState* final_state = nullptr) const;

  /// Re-solves `problem` from `from`, the optimal state (full or
  /// compact) of an earlier solve of a problem with the same rows and the
  /// same number of columns; variable bounds and objective coefficients
  /// may differ. Falls back to solve() when the warm path runs into
  /// trouble: more pivots than a cold solve should need (4 * (rows +
  /// columns), or max_iterations if smaller), a start that is neither
  /// primal nor dual feasible, a compact basis that does not refactor, an
  /// unbounded Phase 2, or an answer that fails its check against the
  /// problem: an optimum whose row residual exceeds 1e-6, or whose
  /// objective the Lagrangian bound of its multipliers beats by more than
  /// 1e-9 relative; an infeasibility that the Farkas combination of the
  /// blocked row does not prove. Solution::warm tells which path
  /// answered. `final_state` may alias `from`.
  Solution resolve(const Problem& problem, const SimplexState& from,
                   SimplexState* final_state = nullptr) const;

 private:
  SimplexOptions options_;
};

}  // namespace safenn::lp
