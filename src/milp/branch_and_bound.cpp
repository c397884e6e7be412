#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "lp/simplex.hpp"

namespace safenn::milp {
namespace {

/// One node's optimal LP state (full tableau or compact basis), shared
/// by its two children, which re-solve from it with the dual simplex. It
/// counts itself against the solve's warm-state budget while alive.
class SharedState {
 public:
  SharedState(lp::SimplexState s, std::size_t& held)
      : state(std::move(s)), held_(held) {
    held_ += state.bytes();
  }
  ~SharedState() { held_ -= state.bytes(); }
  SharedState(const SharedState&) = delete;
  SharedState& operator=(const SharedState&) = delete;

  const lp::SimplexState state;

 private:
  std::size_t& held_;
};

/// A search node: bound overrides accumulated along its branch path plus
/// the parent's LP bound (an optimistic estimate until its own LP runs).
struct Node {
  std::vector<std::pair<int, double>> lower_overrides;
  std::vector<std::pair<int, double>> upper_overrides;
  double estimate = 0.0;  // parent LP objective (problem sense)
  int depth = 0;
  long id = 0;
  /// The parent's optimal LP state (null: solve cold).
  std::shared_ptr<const SharedState> warm;
};

/// Applies node bound overrides to a copy of the base problem.
lp::Problem build_node_problem(const lp::Problem& base, const Node& node) {
  lp::Problem p = base;
  for (const auto& [var, lo] : node.lower_overrides) {
    p.variable(var).lower = std::max(p.variable(var).lower, lo);
  }
  for (const auto& [var, hi] : node.upper_overrides) {
    p.variable(var).upper = std::min(p.variable(var).upper, hi);
  }
  return p;
}

}  // namespace

double MilpResult::gap() const {
  const double denom = std::max(1.0, std::abs(objective));
  return std::abs(objective - best_bound) / denom;
}

BranchAndBound::BranchAndBound(BnbOptions options)
    : options_(std::move(options)) {}

MilpResult BranchAndBound::solve(const Model& model) const {
  const lp::Problem& base = model.problem();
  const bool maximize = model.maximize();
  const double sign = maximize ? 1.0 : -1.0;
  // better(a, b): a is a strictly better objective than b in problem sense.
  auto better = [sign](double a, double b) { return sign * (a - b) > 0.0; };

  lp::SimplexSolver lp_solver(options_.lp_options);
  // Bytes held by open nodes' warm states; declared before `open` so it
  // outlives every SharedState.
  std::size_t warm_bytes = 0;
  Stopwatch clock;
  // Deadline + portfolio-cancel poll, amortized at the documented
  // default stride (one clock read per 16 nodes — the historical rate).
  CancelToken stop(options_.time_limit_seconds, options_.cancel);

  MilpResult result;
  bool have_incumbent = false;
  // Best external cutoff seen so far (problem sense); -sign*inf = none.
  // Refreshed at the same stride as the deadline so a peer's incumbent
  // tightens pruning within at most 16 nodes of being published.
  double external = -sign * lp::kInfinity;
  bool external_used = false;  // an external value ever pruned a node
  auto refresh_external = [&] {
    if (!options_.external_cutoff) return;
    const double v = options_.external_cutoff();
    if (std::isfinite(v) && better(v, external)) external = v;
  };

  // Best-first: larger sign*estimate first; ties broken by depth (deeper
  // first, diving toward incumbents), then LIFO on id for determinism.
  auto node_order = [sign](const Node& a, const Node& b) {
    const double ka = sign * a.estimate, kb = sign * b.estimate;
    if (ka != kb) return ka < kb;  // priority_queue: "less" => lower priority
    if (a.depth != b.depth) return a.depth < b.depth;
    return a.id < b.id;
  };
  std::priority_queue<Node, std::vector<Node>, decltype(node_order)> open(
      node_order);

  long next_id = 0;
  const double root_estimate =
      maximize ? lp::kInfinity : -lp::kInfinity;
  open.push(Node{{}, {}, root_estimate, 0, next_id++, nullptr});

  // Fix-and-round primal heuristic: fix every integral variable to the
  // rounded LP value and re-solve the continuous rest, warm from the
  // node's own optimal state.
  auto try_heuristic = [&](const std::vector<double>& relaxation,
                           const lp::SimplexState& node_state) {
    lp::Problem fixed = base;
    for (int idx : model.integral_variables()) {
      const double v =
          std::round(relaxation[static_cast<std::size_t>(idx)]);
      const double lo = fixed.variable(idx).lower;
      const double hi = fixed.variable(idx).upper;
      const double clamped = std::clamp(v, lo, hi);
      fixed.variable(idx).lower = clamped;
      fixed.variable(idx).upper = clamped;
    }
    const lp::Solution s = lp_solver.resolve(fixed, node_state);
    result.lp_iterations += s.iterations;
    if (s.status != lp::SolveStatus::kOptimal) return;
    if (base.max_violation(s.values) > 1e-6) return;
    if (!have_incumbent || better(s.objective, result.objective)) {
      have_incumbent = true;
      result.objective = s.objective;
      result.values = s.values;
      if (options_.on_incumbent) {
        result.seconds = clock.seconds();
        options_.on_incumbent(result);
      }
    }
  };

  // Seed the incumbent from a caller-provided feasible assignment.
  if (options_.initial_solution.size() ==
      static_cast<std::size_t>(base.num_variables())) {
    const std::vector<double>& x0 = options_.initial_solution;
    if (base.max_violation(x0) <= 1e-6 &&
        model.is_integral(x0, options_.integrality_tol)) {
      bool in_bounds = true;
      for (int j = 0; j < base.num_variables(); ++j) {
        const lp::Variable& v = base.variable(j);
        if (x0[static_cast<std::size_t>(j)] < v.lower - 1e-7 ||
            x0[static_cast<std::size_t>(j)] > v.upper + 1e-7) {
          in_bounds = false;
          break;
        }
      }
      if (in_bounds) {
        have_incumbent = true;
        result.objective = base.objective_value(x0);
        result.values = x0;
      }
    }
  }

  double global_bound = root_estimate;
  bool aborted_time = false;
  bool aborted_nodes = false;
  bool lp_trouble = false;

  while (!open.empty()) {
    // One should_stop() per node: the external flag every node, the
    // clock every 16th (CancelToken's stride) — the clock read is
    // measurable against the per-node LP cost.
    if (result.nodes_explored % 16 == 0) refresh_external();
    if (stop.should_stop()) {
      aborted_time = true;
      break;
    }
    if (options_.max_nodes > 0 && result.nodes_explored >= options_.max_nodes) {
      aborted_nodes = true;
      break;
    }

    Node node = open.top();
    open.pop();
    // The best remaining estimate bounds everything still open; combined
    // with the incumbent this is the proven global bound.
    global_bound = node.estimate;
    if (have_incumbent) {
      // `node.estimate` is the best bound over everything still open
      // (best-first order), so this is the true global optimality gap.
      const double denom = std::max(1.0, std::abs(result.objective));
      const double improvement = sign * (node.estimate - result.objective);
      if (improvement <= options_.relative_gap_tol * denom) {
        global_bound = result.objective;
        break;
      }
    }
    if (std::isfinite(external) && !better(node.estimate, external)) {
      // The externally-achieved value dominates this whole subtree (its
      // values are <= the estimate), so it can be dropped without an LP
      // solve. best_bound is clamped with `external` on exit, which keeps
      // the reported bound sound.
      external_used = true;
      continue;
    }

    ++result.nodes_explored;
    const lp::Problem node_problem = build_node_problem(base, node);
    lp::SimplexState state;
    const lp::Solution relax =
        node.warm ? lp_solver.resolve(node_problem, node.warm->state, &state)
                  : lp_solver.solve(node_problem, &state);
    if (relax.warm && node.warm->state.is_compact()) ++result.compact_solves;
    node.warm.reset();  // the sibling may still hold it; this node is done
    result.lp_iterations += relax.iterations;
    ++(relax.warm ? result.warm_solves : result.cold_solves);
    if (log_level() <= LogLevel::kDebug) {
      std::string fixes;
      for (const auto& [v, lo] : node.lower_overrides)
        fixes += " v" + std::to_string(v) + ">=" + std::to_string(lo);
      for (const auto& [v, hi] : node.upper_overrides)
        fixes += " v" + std::to_string(v) + "<=" + std::to_string(hi);
      log_debug("node ", node.id, " depth=", node.depth,
                " est=", node.estimate, " lp_status=", static_cast<int>(relax.status),
                " obj=", relax.objective, fixes);
    }

    if (relax.status == lp::SolveStatus::kInfeasible) continue;
    if (relax.status == lp::SolveStatus::kUnbounded) {
      if (node.depth == 0) {
        result.status = MilpStatus::kUnbounded;
        result.seconds = clock.seconds();
        return result;
      }
      // A bounded-root child cannot be unbounded; treat as numerical
      // trouble and skip conservatively.
      lp_trouble = true;
      continue;
    }
    if (relax.status == lp::SolveStatus::kIterationLimit) {
      log_warn("BranchAndBound: node LP hit iteration limit; aborting");
      lp_trouble = true;
      break;
    }

    // Prune by bound.
    if (have_incumbent && !better(relax.objective, result.objective)) {
      continue;
    }
    if (std::isfinite(external) && !better(relax.objective, external)) {
      external_used = true;
      continue;
    }

    // Integral solution: new incumbent.
    if (model.is_integral(relax.values, options_.integrality_tol)) {
      if (!have_incumbent || better(relax.objective, result.objective)) {
        have_incumbent = true;
        result.objective = relax.objective;
        result.values = relax.values;
        if (options_.on_incumbent) {
          result.seconds = clock.seconds();
          options_.on_incumbent(result);
        }
      }
      continue;
    }

    if (options_.heuristic_interval > 0 &&
        (result.nodes_explored == 1 ||
         result.nodes_explored % options_.heuristic_interval == 0)) {
      try_heuristic(relax.values, state);
    }

    // Branch on the highest-priority fractional variable (fractionality
    // itself acts as the priority when none is provided, and as the
    // tie-break otherwise).
    const bool has_priority =
        options_.branch_priority.size() ==
        static_cast<std::size_t>(base.num_variables());
    int branch_var = -1;
    double best_prio = 0.0;
    double best_frac_score = -1.0;
    for (int idx : model.integral_variables()) {
      const double v = relax.values[static_cast<std::size_t>(idx)];
      const double frac = v - std::floor(v);
      const double dist = std::min(frac, 1.0 - frac);
      if (dist <= options_.integrality_tol) continue;
      const double prio =
          has_priority ? options_.branch_priority[static_cast<std::size_t>(idx)]
                       : 0.0;
      if (branch_var < 0 || prio > best_prio ||
          (prio == best_prio && dist > best_frac_score)) {
        best_prio = prio;
        best_frac_score = dist;
        branch_var = idx;
      }
    }
    require(branch_var >= 0,
            "BranchAndBound: non-integral solution with no fractional "
            "variable (tolerance mismatch)");

    const double v = relax.values[static_cast<std::size_t>(branch_var)];
    if (warm_bytes + state.bytes() > kFullTableauBytes) state = state.compact();
    if (warm_bytes + state.bytes() <= kWarmStateBudgetBytes) {
      node.warm = std::make_shared<const SharedState>(std::move(state),
                                                      warm_bytes);
      result.warm_state_peak_bytes =
          std::max(result.warm_state_peak_bytes, warm_bytes);
    }
    Node down = node;
    down.upper_overrides.emplace_back(branch_var, std::floor(v));
    down.estimate = relax.objective;
    down.depth = node.depth + 1;
    down.id = next_id++;
    Node up = node;
    up.lower_overrides.emplace_back(branch_var, std::ceil(v));
    up.estimate = relax.objective;
    up.depth = node.depth + 1;
    up.id = next_id++;
    open.push(std::move(down));
    open.push(std::move(up));
  }

  result.seconds = clock.seconds();
  // Subtrees pruned against the external cutoff are dominated by it, so
  // the sound dual bound is the sign-wise max of the tree bound and the
  // cutoff value (which is itself achievable, just not by this search).
  auto clamp_external = [&] {
    if (external_used && better(external, result.best_bound)) {
      result.best_bound = external;
    }
  };
  if (aborted_time || lp_trouble) {
    result.status = have_incumbent ? MilpStatus::kTimeLimitFeasible
                                   : MilpStatus::kTimeLimitNoSolution;
    result.cancelled = stop.cause() == StopCause::kCancelled;
    // A timeout before the root node is processed leaves no dual bound at
    // all; report +/-inf honestly. Substituting the incumbent objective
    // here would pass a primal (lower) bound off as a dual bound and let
    // a caller "prove" thresholds the search never examined.
    result.best_bound = open.empty() ? global_bound : open.top().estimate;
    clamp_external();
    return result;
  }
  if (aborted_nodes) {
    result.status = have_incumbent ? MilpStatus::kNodeLimit
                                   : MilpStatus::kTimeLimitNoSolution;
    result.best_bound = open.empty() ? global_bound : open.top().estimate;
    clamp_external();
    return result;
  }
  if (!have_incumbent) {
    if (external_used) {
      // Every branch was dominated by the external cutoff: the search
      // proved optimum <= external without ever holding an assignment.
      result.status = MilpStatus::kTimeLimitNoSolution;
      result.best_bound = external;
      return result;
    }
    result.status = MilpStatus::kInfeasible;
    result.best_bound = result.objective;
    return result;
  }
  // With an external cutoff the incumbent is only proven optimal among
  // assignments beating the cutoff; best_bound still brackets the true
  // optimum after the clamp.
  result.status = MilpStatus::kOptimal;
  result.best_bound = result.objective;
  clamp_external();
  return result;
}

}  // namespace safenn::milp
