// Branch-and-bound MILP solver.
//
// Best-bound node selection with depth tie-breaking, most-fractional
// branching, a fix-and-round primal heuristic, and wall-clock time limits
// (Table II's 4x60 row times out in the paper too — time-limit handling
// is part of the reproduced behaviour, not an afterthought).
//
// Every child node re-solves its LP from its parent's optimal tableau
// (lp::SimplexSolver::resolve: one bound changed, so a few dual simplex
// pivots), and the heuristic from its node's tableau. The warm state open
// nodes hold is capped: once their tableaus fill kFullTableauBytes, a
// node passes on only its compact basis, which the child refactors; once
// everything fills kWarmStateBudgetBytes, its children solve cold.
// Otherwise only the root, and re-solves that fall back, solve cold.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

#include "lp/simplex.hpp"
#include "milp/model.hpp"

namespace safenn::milp {

/// Bytes of parent LP state (SimplexState::bytes) that a solve's open
/// nodes may hold at once, and the part of it full tableaus may fill.
/// Fixed, not options. Best-first search on the Table II networks' full
/// region keeps about 3,000 nodes open after 2.5 s, at 50-350 KB per
/// tableau and a few KB per compact basis. Measured there over 10 s
/// (I4x8, I4x10): a tableau share of 32, 48 or 56 MiB explores the same
/// number of nodes within noise; 64 MiB, which leaves no room for
/// compact bases, explores 5-6x fewer.
inline constexpr std::size_t kWarmStateBudgetBytes = std::size_t{64} << 20;
inline constexpr std::size_t kFullTableauBytes = std::size_t{48} << 20;

enum class MilpStatus {
  kOptimal,            // incumbent proven optimal within gap_tol
  kInfeasible,         // no integral solution exists
  kUnbounded,          // LP relaxation unbounded
  kTimeLimitFeasible,  // deadline hit; best incumbent returned
  kTimeLimitNoSolution,// deadline hit before any incumbent was found
  kNodeLimit,
};

struct MilpResult {
  MilpStatus status = MilpStatus::kTimeLimitNoSolution;
  double objective = 0.0;   // incumbent objective (problem sense)
  double best_bound = 0.0;  // proven dual bound (problem sense)
  std::vector<double> values;
  long nodes_explored = 0;
  long lp_iterations = 0;
  /// Node LPs re-solved from the parent's optimal state (dual simplex).
  long warm_solves = 0;
  /// Of warm_solves, those from a compact basis (past kFullTableauBytes).
  long compact_solves = 0;
  /// Node LPs solved from scratch: the root, re-solves that fell back,
  /// and children of nodes branched while the warm-state budget was full.
  long cold_solves = 0;
  /// Most bytes of warm state open nodes held at once (at most
  /// kWarmStateBudgetBytes).
  std::size_t warm_state_peak_bytes = 0;
  double seconds = 0.0;
  /// True when the solve stopped because BnbOptions::cancel was set (the
  /// status is then one of the time-limit statuses). objective and
  /// best_bound remain sound snapshots of the interrupted search.
  bool cancelled = false;

  bool has_solution() const {
    return status == MilpStatus::kOptimal ||
           status == MilpStatus::kTimeLimitFeasible ||
           status == MilpStatus::kNodeLimit;
  }

  /// Relative optimality gap |objective - best_bound| / max(1, |objective|).
  double gap() const;
};

struct BnbOptions {
  double time_limit_seconds = 0.0;  // <= 0: unlimited
  long max_nodes = 0;               // <= 0: unlimited
  double integrality_tol = 1e-6;
  double relative_gap_tol = 1e-9;
  /// Run the fix-and-round primal heuristic every N nodes (0 disables).
  long heuristic_interval = 50;
  lp::SimplexOptions lp_options;
  /// Called whenever a better incumbent is found.
  std::function<void(const MilpResult&)> on_incumbent;
  /// Optional known-feasible full assignment used as the starting
  /// incumbent (e.g. a concrete network execution for ReLU encodings).
  /// Checked for row feasibility and integrality before use.
  std::vector<double> initial_solution;
  /// Optional per-variable branching priority (higher = branch earlier
  /// among fractional candidates; fractionality breaks ties). For ReLU
  /// encodings, early-layer phase binaries get high priority because
  /// fixing them stabilizes everything downstream.
  std::vector<double> branch_priority;
  /// Cooperative cancellation: polled (with the deadline) once per node
  /// at CancelToken's documented stride. When it fires, the solve
  /// returns a time-limit status with MilpResult::cancelled set.
  const std::atomic<bool>* cancel = nullptr;
  /// External objective cutoff (problem sense): a value proven feasible
  /// *outside* this solve — e.g. a concrete network execution found by a
  /// racing portfolio peer. Polled at the same stride as the deadline;
  /// nodes whose relaxation cannot beat it are pruned, exactly like an
  /// incumbent, but it never becomes `objective` (there is no assignment
  /// for it here). The reported best_bound is clamped so it stays a
  /// sound bound on the true optimum: a pruned subtree is dominated by
  /// the cutoff value, which is itself achievable. Return -inf (maximize)
  /// / +inf (minimize) when no external value is known.
  std::function<double()> external_cutoff;
};

class BranchAndBound {
 public:
  explicit BranchAndBound(BnbOptions options = {});

  MilpResult solve(const Model& model) const;

 private:
  BnbOptions options_;
};

}  // namespace safenn::milp
