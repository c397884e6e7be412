#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace safenn::lp {

/// Dense bounded-variable simplex working state. Column layout:
/// [0, n)           structural variables
/// [n, n+m)         slacks (one per row; fixed to 0 for equalities)
/// [n+m, n+2m)      Phase-1 artificials
/// Phase 1 stores all n+2m columns. Once it ends the artificials are
/// locked at zero and never enter again, so their columns are dropped
/// from `a` (width n+m); their bounds, values and basis flags stay.
struct Tableau {
  int n = 0;       // structural count
  int m = 0;       // row count
  int ncols = 0;   // n + 2m
  int width = 0;   // columns stored per row of `a`
  std::vector<double> a;     // m x width, row-major: B^{-1} A maintained
  std::vector<double> rhs;   // B^{-1} b maintained
  std::vector<double> lo, hi;
  std::vector<double> cost;  // current phase costs
  std::vector<double> val;   // current value per column
  std::vector<int> basis;    // basic column per row
  std::vector<char> in_basis;
  /// A compact state (SimplexState::compact) keeps only n, m, ncols,
  /// basis and val; resolve() refactors the rest from the problem.
  bool compact = false;

  double& at(int r, int c) { return a[static_cast<std::size_t>(r) * width + c]; }
  double at(int r, int c) const {
    return a[static_cast<std::size_t>(r) * width + c];
  }
};

namespace {

constexpr double kInf = kInfinity;

/// Phase-1 artificials left above this sum mean the rows are infeasible;
/// a re-solve uses the same threshold so both paths agree on borderline
/// problems.
constexpr double kInfeasibleTol = 1e-6;

/// Largest row residual a re-solve's answer may show before it is
/// distrusted and the problem is solved cold.
constexpr double kResolveResidualTol = 1e-6;

/// Largest amount, relative to max(1, |objective|), by which a
/// re-solve's objective may fall short of the Lagrangian bound
/// recomputed from the problem before the answer is distrusted.
constexpr double kResolveBoundTol = 1e-9;

/// Snaps nonbasic starting value: finite lower bound preferred, then
/// finite upper, else 0 (free variable).
double initial_value(double lo, double hi) {
  if (std::isfinite(lo)) return lo;
  if (std::isfinite(hi)) return hi;
  return 0.0;
}

/// Bounds of row i's slack column: a <= row has slack >= 0, a >= row
/// slack <= 0, an equality a slack fixed at 0.
void set_slack_bounds(Tableau& t, int i, Relation relation) {
  const auto slack = static_cast<std::size_t>(t.n + i);
  switch (relation) {
    case Relation::kLe: t.lo[slack] = 0.0; t.hi[slack] = kInf; break;
    case Relation::kGe: t.lo[slack] = -kInf; t.hi[slack] = 0.0; break;
    case Relation::kEq: t.lo[slack] = 0.0; t.hi[slack] = 0.0; break;
  }
}

/// Recomputes basic variable values from the pivoted rhs and the nonbasic
/// assignment: x_B = (B^{-1}b) - sum_{j nonbasic} (B^{-1}A)_j x_j.
void refresh_basic_values(Tableau& t) {
  std::vector<double> beta = t.rhs;
  for (int j = 0; j < t.width; ++j) {
    if (t.in_basis[j] || t.val[j] == 0.0) continue;
    for (int r = 0; r < t.m; ++r) {
      const double coef = t.at(r, j);
      if (coef != 0.0) beta[static_cast<std::size_t>(r)] -= coef * t.val[j];
    }
  }
  for (int r = 0; r < t.m; ++r) t.val[t.basis[r]] = beta[static_cast<std::size_t>(r)];
}

/// Performs the elimination pivot making column `enter` basic in row `r`.
void pivot(Tableau& t, int r, int enter) {
  const double piv = t.at(r, enter);
  const double inv = 1.0 / piv;
  for (int c = 0; c < t.width; ++c) t.at(r, c) *= inv;
  t.rhs[static_cast<std::size_t>(r)] *= inv;
  for (int i = 0; i < t.m; ++i) {
    if (i == r) continue;
    const double f = t.at(i, enter);
    if (f == 0.0) continue;
    for (int c = 0; c < t.width; ++c) t.at(i, c) -= f * t.at(r, c);
    t.at(i, enter) = 0.0;  // kill residual rounding
    t.rhs[static_cast<std::size_t>(i)] -= f * t.rhs[static_cast<std::size_t>(r)];
  }
  t.in_basis[t.basis[r]] = 0;
  t.in_basis[enter] = 1;
  t.basis[r] = enter;
}

/// Drops the artificial columns from `a` once Phase 1 has locked them.
void drop_artificial_columns(Tableau& t) {
  const int keep = t.n + t.m;
  if (t.width == keep) return;
  for (int r = 0; r < t.m; ++r) {
    std::copy_n(t.a.begin() + static_cast<std::ptrdiff_t>(r) * t.width, keep,
                t.a.begin() + static_cast<std::ptrdiff_t>(r) * keep);
  }
  t.width = keep;
  t.a.resize(static_cast<std::size_t>(t.m) * keep);
  t.a.shrink_to_fit();
}

enum class PhaseResult { kOptimal, kUnbounded, kIterationLimit };

/// Runs primal simplex on the current costs until optimality or until
/// `iters` reaches `cap`. `allow_artificial` lets Phase-1 artificials
/// enter (Phase 2 bans them).
PhaseResult run_phase(Tableau& t, const SimplexOptions& opt, long& iters,
                      long cap, bool allow_artificial) {
  long degenerate_streak = 0;
  const int enter_limit = allow_artificial ? t.ncols : t.n + t.m;

  while (iters < cap) {
    ++iters;

    // Reduced costs d_j = c_j - c_B^T T_j, via y_r = cost of row r's basic.
    // Only rows whose basic column carries nonzero cost contribute.
    std::vector<std::pair<int, double>> priced_rows;
    priced_rows.reserve(static_cast<std::size_t>(t.m));
    for (int r = 0; r < t.m; ++r) {
      const double cb = t.cost[static_cast<std::size_t>(t.basis[r])];
      if (cb != 0.0) priced_rows.emplace_back(r, cb);
    }

    const bool bland = degenerate_streak >= opt.degenerate_switch;
    int enter = -1;
    int dir = +1;
    double best_score = opt.optimality_tol;
    for (int j = 0; j < enter_limit; ++j) {
      if (t.in_basis[j]) continue;
      if (t.lo[j] == t.hi[j]) continue;  // fixed column can never improve
      double d = t.cost[static_cast<std::size_t>(j)];
      for (const auto& [r, cb] : priced_rows) d -= cb * t.at(r, j);

      const bool at_lower = std::isfinite(t.lo[j]) && t.val[j] <= t.lo[j] + opt.feasibility_tol;
      const bool at_upper = std::isfinite(t.hi[j]) && t.val[j] >= t.hi[j] - opt.feasibility_tol;
      const bool is_free = !at_lower && !at_upper;

      int cand_dir = 0;
      double score = 0.0;
      if ((at_lower || is_free) && d < -opt.optimality_tol) {
        cand_dir = +1;
        score = -d;
      } else if ((at_upper || is_free) && d > opt.optimality_tol) {
        cand_dir = -1;
        score = d;
      }
      if (cand_dir == 0) continue;
      if (bland) {  // first eligible index
        enter = j;
        dir = cand_dir;
        break;
      }
      if (score > best_score) {
        best_score = score;
        enter = j;
        dir = cand_dir;
      }
    }
    if (enter < 0) return PhaseResult::kOptimal;

    // Ratio test: how far can the entering variable move before either it
    // hits its own opposite bound (bound flip) or a basic variable hits
    // one of its bounds (pivot).
    const double flip_limit =
        (std::isfinite(t.lo[enter]) && std::isfinite(t.hi[enter]))
            ? t.hi[enter] - t.lo[enter]
            : kInf;
    double row_limit = kInf;
    int leave_row = -1;
    double leave_pivot = 0.0;
    bool leave_hits_upper = false;
    for (int r = 0; r < t.m; ++r) {
      const double coef = t.at(r, enter);
      if (std::abs(coef) <= opt.pivot_tol) continue;
      const int b = t.basis[r];
      const double rate = -dir * coef;  // d(val_b)/d(theta)
      double limit;
      bool hits_upper;
      if (rate > 0.0) {
        if (!std::isfinite(t.hi[b])) continue;
        limit = (t.hi[b] - t.val[b]) / rate;
        hits_upper = true;
      } else {
        if (!std::isfinite(t.lo[b])) continue;
        limit = (t.val[b] - t.lo[b]) / (-rate);
        hits_upper = false;
      }
      if (limit < 0.0) limit = 0.0;  // shadow of feasibility tolerance
      bool take;
      if (leave_row < 0) {
        take = limit < row_limit;
      } else if (limit < row_limit - 1e-12) {
        take = true;
      } else if (limit < row_limit + 1e-12) {
        // Tie-break: Bland -> smallest basic index; else largest pivot.
        take = bland ? b < t.basis[leave_row]
                     : std::abs(coef) > std::abs(leave_pivot);
      } else {
        take = false;
      }
      if (take) {
        row_limit = std::min(row_limit, limit);
        leave_row = r;
        leave_pivot = coef;
        leave_hits_upper = hits_upper;
      }
    }

    const double theta = std::min(flip_limit, row_limit);
    if (!std::isfinite(theta)) return PhaseResult::kUnbounded;

    degenerate_streak =
        (theta <= opt.feasibility_tol) ? degenerate_streak + 1 : 0;

    // Apply the move to all basic values.
    if (theta != 0.0) {
      for (int r = 0; r < t.m; ++r) {
        const double coef = t.at(r, enter);
        if (coef != 0.0) t.val[t.basis[r]] -= dir * coef * theta;
      }
    }

    if (flip_limit <= row_limit) {
      // Bound flip: the entering variable jumps to its opposite bound and
      // the basis is unchanged.
      t.val[enter] = (dir > 0) ? t.hi[enter] : t.lo[enter];
      continue;
    }

    // Pivot: entering becomes basic, row's old basic leaves at a bound.
    const int leaving = t.basis[leave_row];
    t.val[enter] = t.val[enter] + dir * theta;
    pivot(t, leave_row, enter);
    t.val[leaving] = leave_hits_upper ? t.hi[leaving] : t.lo[leaving];

    if (iters % opt.refresh_interval == 0) refresh_basic_values(t);
  }
  return PhaseResult::kIterationLimit;
}

/// Phase-2 reduced costs d_j = c_j - c_B^T T_j of every stored column.
std::vector<double> reduced_costs(const Tableau& t) {
  std::vector<double> d(t.cost.begin(), t.cost.begin() + t.width);
  for (int r = 0; r < t.m; ++r) {
    const double cb = t.cost[static_cast<std::size_t>(t.basis[r])];
    if (cb == 0.0) continue;
    for (int j = 0; j < t.width; ++j) d[static_cast<std::size_t>(j)] -= cb * t.at(r, j);
  }
  return d;
}

enum class DualResult { kPrimalFeasible, kInfeasible, kTrouble };

/// Bounded dual simplex: from a dual-feasible basis (reduced costs `d`
/// sign-consistent with where each nonbasic sits), pivots primal-
/// infeasible basics out at the bound they violate until every basic is
/// within its bounds. Keeps `d` updated. kInfeasible leaves the row that
/// cannot be repaired in `*blocked_row`. kTrouble means "stop and solve
/// cold": the pivot cap was reached, or a row could not be repaired but
/// its shortfall is too small (or its blocked entries too tiny) to
/// conclude infeasibility.
DualResult run_dual(Tableau& t, std::vector<double>& d,
                    const SimplexOptions& opt, long& iters, long cap,
                    int* blocked_row) {
  const int enter_limit = t.n + t.m;  // artificials never re-enter
  struct Candidate {
    double ratio;  // dual step at which d_col reaches zero
    double abs_a;  // |pivot entry|
    int col;
  };
  std::vector<Candidate> candidates;
  while (true) {
    // Leaving row: the basic with the largest bound violation.
    int r = -1;
    double worst = opt.feasibility_tol;
    for (int i = 0; i < t.m; ++i) {
      const int b = t.basis[i];
      const double v = t.val[b];
      const double gap = std::max(t.lo[b] - v, v - t.hi[b]);
      if (gap > worst) {
        worst = gap;
        r = i;
      }
    }
    if (r < 0) return DualResult::kPrimalFeasible;
    if (iters >= cap) return DualResult::kTrouble;
    ++iters;

    const int b = t.basis[r];
    const bool raise = t.val[b] < t.lo[b];  // x_b must rise to its lower bound
    const double target = raise ? t.lo[b] : t.hi[b];

    // Candidates: x_b = rhs_r - sum_j a_rj x_j, so x_j must move in
    // direction s with -a_rj * s toward the target. Moving the dual by t
    // along this row sends d_j through zero at t_j = |d_j| / |a_rj|.
    candidates.clear();
    double tiny_reach = 0.0;  // what sub-pivot-tolerance entries could add
    for (int j = 0; j < enter_limit; ++j) {
      if (t.in_basis[j] || t.lo[j] == t.hi[j]) continue;
      const double a = t.at(r, j);
      if (a == 0.0) continue;
      const bool at_lower = std::isfinite(t.lo[j]) && t.val[j] <= t.lo[j] + opt.feasibility_tol;
      const bool at_upper = std::isfinite(t.hi[j]) && t.val[j] >= t.hi[j] - opt.feasibility_tol;
      const int s = (raise == (a < 0.0)) ? +1 : -1;
      if (s > 0 ? (at_upper && !at_lower) : (at_lower && !at_upper)) continue;
      if (std::abs(a) <= opt.pivot_tol) {
        // Too small to pivot on, as in the primal ratio test. Most are
        // elimination roundoff of exact zeros; only a bounded room
        // counts toward what they could still contribute.
        const double room = s > 0 ? t.hi[j] - t.val[j] : t.val[j] - t.lo[j];
        if (std::isfinite(room)) tiny_reach += std::abs(a) * room;
        continue;
      }
      candidates.push_back(
          {std::max(0.0, s * d[static_cast<std::size_t>(j)]) / std::abs(a),
           std::abs(a), j});
    }

    // Bound-flipping ratio test: walk the breakpoints in order. While the
    // row is still short of its bound after a boxed candidate jumps to its
    // other bound, the dual step passes that breakpoint and the candidate
    // just flips (its d_j changes sign with it); the first candidate that
    // would overshoot, or cannot flip, enters the basis. Ties go to the
    // larger pivot.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& x, const Candidate& y) {
                if (x.ratio != y.ratio) return x.ratio < y.ratio;
                return x.abs_a > y.abs_a;
              });
    double shortfall = worst;
    int q = -1;
    std::size_t flips = 0;
    for (const Candidate& c : candidates) {
      const double range = t.hi[c.col] - t.lo[c.col];
      const double reach = c.abs_a * range;
      if (!std::isfinite(range) || shortfall - reach <= opt.feasibility_tol) {
        q = c.col;
        break;
      }
      shortfall -= reach;
      ++flips;
    }
    if (q < 0) {
      // Even with every candidate on the bound that pushes x_b hardest
      // toward its own, the row stays short: the bounds are infeasible.
      if (shortfall <= tiny_reach + kInfeasibleTol) return DualResult::kTrouble;
      *blocked_row = r;
      return DualResult::kInfeasible;
    }
    for (std::size_t k = 0; k < flips; ++k) {
      const int j = candidates[k].col;
      const double to = t.val[j] - t.lo[j] < t.hi[j] - t.val[j] ? t.hi[j] : t.lo[j];
      const double move = to - t.val[j];
      for (int i = 0; i < t.m; ++i) {
        const double coef = t.at(i, j);
        if (coef != 0.0) t.val[t.basis[i]] -= coef * move;
      }
      t.val[j] = to;
    }

    const double step = (t.val[b] - target) / t.at(r, q);  // change in x_q
    for (int i = 0; i < t.m; ++i) {
      const double coef = t.at(i, q);
      if (coef != 0.0) t.val[t.basis[i]] -= coef * step;
    }
    t.val[q] += step;
    pivot(t, r, q);
    t.val[b] = target;
    const double dq = d[static_cast<std::size_t>(q)];
    if (dq != 0.0) {
      for (int j = 0; j < t.width; ++j) d[static_cast<std::size_t>(j)] -= dq * t.at(r, j);
    }
    d[static_cast<std::size_t>(q)] = 0.0;

    if (iters % opt.refresh_interval == 0) refresh_basic_values(t);
  }
}

/// Where a nonbasic column sits after its bounds change: a value still on
/// one of the new bounds stays, anything else moves to the nearer finite
/// bound (a free column keeps its value).
double place_nonbasic(double v, double lo, double hi) {
  if (v == lo || v == hi) return v;
  if (std::isfinite(lo) && (!std::isfinite(hi) || v - lo <= hi - v)) return lo;
  if (std::isfinite(hi)) return hi;
  return v;
}

/// Structural values, clamped into their bounds, and the objective of an
/// optimal tableau.
Solution optimal_solution(const Tableau& t, const Problem& problem) {
  Solution sol;
  sol.status = SolveStatus::kOptimal;
  sol.values.resize(static_cast<std::size_t>(t.n));
  for (int j = 0; j < t.n; ++j) {
    double v = t.val[static_cast<std::size_t>(j)];
    // Snap tiny bound violations introduced by finite tolerances.
    const Variable& var = problem.variable(j);
    v = std::clamp(v, var.lower, var.upper);
    sol.values[static_cast<std::size_t>(j)] = v;
  }
  sol.objective = problem.objective_value(sol.values);
  return sol;
}

/// Rebuilds the tableau of a compact state for `problem`'s rows: B^{-1}A
/// for the stored basis, factored afresh from the all-slack basis (B = I)
/// by pivoting each basic structural column into a row whose slack must
/// leave, largest entry first. The stored nonbasic values carry over;
/// objective and structural bounds are loaded by reoptimize(). Each pivot
/// counts as an iteration. False when the basis holds an artificial or is
/// numerically singular.
bool refactor(const Tableau& c, const Problem& problem,
              const SimplexOptions& opt, Tableau& t, long& iters) {
  const int n = c.n;
  const int m = c.m;
  t.n = n;
  t.m = m;
  t.ncols = c.ncols;
  t.width = n + m;
  t.a.assign(static_cast<std::size_t>(m) * t.width, 0.0);
  t.rhs.assign(static_cast<std::size_t>(m), 0.0);
  t.lo.assign(static_cast<std::size_t>(t.ncols), 0.0);  // artificials: fixed 0
  t.hi.assign(static_cast<std::size_t>(t.ncols), 0.0);
  t.cost.assign(static_cast<std::size_t>(t.ncols), 0.0);
  t.val = c.val;
  t.basis.resize(static_cast<std::size_t>(m));
  t.in_basis.assign(static_cast<std::size_t>(t.ncols), 0);
  for (int i = 0; i < m; ++i) {
    const Constraint& row = problem.constraint(i);
    for (const auto& [var, coef] : row.terms) t.at(i, var) = coef;
    t.at(i, n + i) = 1.0;
    set_slack_bounds(t, i, row.relation);
    t.rhs[static_cast<std::size_t>(i)] = row.rhs;
    t.basis[static_cast<std::size_t>(i)] = n + i;
    t.in_basis[static_cast<std::size_t>(n + i)] = 1;
  }
  std::vector<char> slack_leaves(static_cast<std::size_t>(m), 1);
  for (int b : c.basis) {
    if (b >= n + m) return false;  // a redundant row's artificial
    if (b >= n) slack_leaves[static_cast<std::size_t>(b - n)] = 0;
  }
  for (int col : c.basis) {
    if (col >= n) continue;
    int r = -1;
    double best = opt.pivot_tol;
    for (int i = 0; i < m; ++i) {
      if (slack_leaves[static_cast<std::size_t>(i)] && std::abs(t.at(i, col)) > best) {
        best = std::abs(t.at(i, col));
        r = i;
      }
    }
    if (r < 0) return false;
    pivot(t, r, col);
    slack_leaves[static_cast<std::size_t>(r)] = 0;
    ++iters;
  }
  return true;
}

enum class WarmResult { kOptimal, kInfeasible, kTrouble };

/// The warm path of resolve(): loads `problem`'s objective and bounds
/// into an optimal tableau of the same rows and re-optimizes it — dual
/// simplex while bounds are violated, then primal Phase 2 — within `cap`
/// iterations in all. kInfeasible leaves the dual simplex's blocked row in
/// `*blocked_row`; an unbounded Phase 2 (impossible from a bounded
/// parent unless the tableau has drifted) counts as trouble.
WarmResult reoptimize(Tableau& t, const Problem& problem,
                      const SimplexOptions& opt, long& iters, long cap,
                      int* blocked_row) {
  // Nonbasic columns move onto their new bounds; basic ones may now
  // violate theirs.
  const double obj_sign = problem.maximize() ? -1.0 : 1.0;
  for (int j = 0; j < t.n; ++j) {
    const Variable& v = problem.variable(j);
    t.cost[static_cast<std::size_t>(j)] = obj_sign * v.objective;
    t.lo[static_cast<std::size_t>(j)] = v.lower;
    t.hi[static_cast<std::size_t>(j)] = v.upper;
    if (!t.in_basis[static_cast<std::size_t>(j)]) {
      t.val[static_cast<std::size_t>(j)] =
          place_nonbasic(t.val[static_cast<std::size_t>(j)], v.lower, v.upper);
    }
  }
  refresh_basic_values(t);

  bool primal_feasible = true;
  for (int r = 0; r < t.m && primal_feasible; ++r) {
    const int b = t.basis[static_cast<std::size_t>(r)];
    primal_feasible = t.val[b] >= t.lo[b] - opt.feasibility_tol &&
                      t.val[b] <= t.hi[b] + opt.feasibility_tol;
  }
  if (!primal_feasible) {
    // Bound changes: repair primal feasibility with the dual simplex. Its
    // start must be dual feasible: a nonbasic on the wrong side for its
    // reduced cost moves to the bound it belongs on, and when that bound
    // is infinite (only possible after an objective change) the warm
    // start is given up.
    std::vector<double> d = reduced_costs(t);
    bool moved = false;
    for (int j = 0; j < t.n + t.m; ++j) {
      if (t.in_basis[static_cast<std::size_t>(j)] || t.lo[j] == t.hi[j]) continue;
      const double dj = d[static_cast<std::size_t>(j)];
      const bool at_lower = std::isfinite(t.lo[j]) && t.val[j] <= t.lo[j] + opt.feasibility_tol;
      const bool at_upper = std::isfinite(t.hi[j]) && t.val[j] >= t.hi[j] - opt.feasibility_tol;
      // Minimizing, a column with d_j > 0 belongs on its lower bound and
      // one with d_j < 0 on its upper bound.
      double want = t.val[j];
      if (dj < -opt.optimality_tol && !at_upper) want = t.hi[j];
      if (dj > opt.optimality_tol && !at_lower) want = t.lo[j];
      if (want == t.val[j]) continue;
      if (!std::isfinite(want)) return WarmResult::kTrouble;
      t.val[j] = want;
      moved = true;
    }
    if (moved) refresh_basic_values(t);
    switch (run_dual(t, d, opt, iters, cap, blocked_row)) {
      case DualResult::kPrimalFeasible: break;
      case DualResult::kInfeasible: return WarmResult::kInfeasible;
      case DualResult::kTrouble: return WarmResult::kTrouble;
    }
  }

  // Primal Phase 2 from the (now primal-feasible) basis: the whole job
  // for an objective change, a clean-up pass after the dual simplex.
  switch (run_phase(t, opt, iters, cap, /*allow_artificial=*/false)) {
    case PhaseResult::kOptimal: break;
    case PhaseResult::kUnbounded:
    case PhaseResult::kIterationLimit: return WarmResult::kTrouble;
  }
  refresh_basic_values(t);
  return WarmResult::kOptimal;
}

// A warm tableau is pivoted on from its parent's, generation after
// generation, and never refactored, so B^{-1}A may drift from the
// problem's rows. Neither warm verdict is taken from the tableau alone:
// each is rechecked against the problem's own rows, bounds and objective
// with multipliers read off the tableau. Any multipliers give a valid
// check, so drift can only make it fail (and the re-solve fall back to
// the cold solve), never pass a wrong answer. The slack columns of the
// tableau hold B^{-1} (the slacks are the identity part of [A I]).

/// The sign a multiplier y_i needs for y_i times row i's slack to be
/// bounded below over the slack's range (see set_slack_bounds); 0 when
/// either sign will do.
int slack_multiplier_sign(Relation relation) {
  switch (relation) {
    case Relation::kLe: return +1;  // slack in [0, inf)
    case Relation::kGe: return -1;  // slack in (-inf, 0]
    case Relation::kEq: return 0;   // slack fixed at 0
  }
  return 0;
}

/// True when row `r` of the tableau proves the problem infeasible. With
/// y = +-(row r of B^{-1}), each slack multiplier clipped to its allowed
/// sign, the combination y^T A x + y^T s = y^T b of the problem's rows
/// must have its smallest left-hand side over the bounds exceed y^T b by
/// more than kInfeasibleTol (a Farkas certificate, recomputed from the
/// problem, not from the tableau's own entries).
bool certifies_infeasible(const Tableau& t, int r, const Problem& problem) {
  const int n = t.n;
  const int m = t.m;
  std::vector<double> alpha(static_cast<std::size_t>(n));
  for (const double sign : {1.0, -1.0}) {
    double rhs = 0.0;
    std::fill(alpha.begin(), alpha.end(), 0.0);
    for (int i = 0; i < m; ++i) {
      const Constraint& row = problem.constraint(i);
      double yi = sign * t.at(r, n + i);
      const int allowed = slack_multiplier_sign(row.relation);
      if (allowed != 0 && yi * allowed < 0.0) yi = 0.0;
      if (yi == 0.0) continue;
      rhs += yi * row.rhs;
      for (const auto& [var, coef] : row.terms) {
        alpha[static_cast<std::size_t>(var)] += yi * coef;
      }
    }
    double lhs_min = 0.0;
    for (int j = 0; j < n; ++j) {
      const double a = alpha[static_cast<std::size_t>(j)];
      if (a == 0.0) continue;
      const Variable& v = problem.variable(j);
      lhs_min += a * (a > 0.0 ? v.lower : v.upper);
    }
    // An infinite bound on the side a term needs makes lhs_min -inf (or
    // NaN): no certificate in this direction.
    if (lhs_min - rhs > kInfeasibleTol) return true;
  }
  return false;
}

/// A lower bound on the problem's optimum in minimization form, from the
/// multipliers pi = c_B^T B^{-1} of an optimal tableau with each slack's
/// multiplier clipped to its allowed sign: by weak duality, for every
/// such pi,
///   min c^T x >= pi^T b + sum_j min over [l_j, u_j] of (c_j - pi^T A_j) x_j.
/// A column unbounded on the side its recomputed reduced cost favours
/// counts at its value in `x` when that reduced cost is within the
/// optimality tolerance (roundoff on a free basic column), and otherwise
/// makes the bound -inf.
double lagrangian_bound(const Tableau& t, const Problem& problem,
                        const std::vector<double>& x,
                        const SimplexOptions& opt) {
  const int n = t.n;
  const int m = t.m;
  std::vector<double> pi(static_cast<std::size_t>(m), 0.0);
  for (int r = 0; r < m; ++r) {
    const double cb = t.cost[static_cast<std::size_t>(t.basis[r])];
    if (cb == 0.0) continue;
    for (int i = 0; i < m; ++i) pi[static_cast<std::size_t>(i)] += cb * t.at(r, n + i);
  }
  const double obj_sign = problem.maximize() ? -1.0 : 1.0;
  std::vector<double> d(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) d[static_cast<std::size_t>(j)] = obj_sign * problem.variable(j).objective;
  double bound = 0.0;
  for (int i = 0; i < m; ++i) {
    const Constraint& row = problem.constraint(i);
    double p = pi[static_cast<std::size_t>(i)];
    // The slack's reduced cost is -p; at its finite bound it needs
    // -p >= 0 for a <= row and -p <= 0 for a >= row.
    const int allowed = -slack_multiplier_sign(row.relation);
    if (allowed != 0 && p * allowed < 0.0) p = 0.0;
    if (p == 0.0) continue;
    bound += p * row.rhs;
    for (const auto& [var, coef] : row.terms) d[static_cast<std::size_t>(var)] -= p * coef;
  }
  for (int j = 0; j < n; ++j) {
    const double dj = d[static_cast<std::size_t>(j)];
    if (dj == 0.0) continue;
    const Variable& v = problem.variable(j);
    const double at = dj > 0.0 ? v.lower : v.upper;
    if (std::isfinite(at)) {
      bound += dj * at;
    } else if (std::abs(dj) <= opt.optimality_tol) {
      bound += dj * x[static_cast<std::size_t>(j)];
    } else {
      return -kInf;
    }
  }
  return bound;
}

}  // namespace

SimplexState::SimplexState() = default;
SimplexState::~SimplexState() = default;
SimplexState::SimplexState(SimplexState&&) noexcept = default;
SimplexState& SimplexState::operator=(SimplexState&&) noexcept = default;

std::size_t SimplexState::bytes() const {
  if (!tableau_) return 0;
  const Tableau& t = *tableau_;
  return sizeof(Tableau) + sizeof(double) * (t.a.capacity() + t.rhs.capacity() +
                                             t.lo.capacity() + t.hi.capacity() +
                                             t.cost.capacity() + t.val.capacity()) +
         sizeof(int) * t.basis.capacity() + t.in_basis.capacity();
}

bool SimplexState::is_compact() const { return tableau_ && tableau_->compact; }

SimplexState SimplexState::compact() const {
  SimplexState out;
  if (!tableau_) return out;
  out.tableau_ = std::make_unique<Tableau>();
  Tableau& c = *out.tableau_;
  c.n = tableau_->n;
  c.m = tableau_->m;
  c.ncols = tableau_->ncols;
  c.basis = tableau_->basis;
  c.val = tableau_->val;
  c.compact = true;
  return out;
}

SimplexSolver::SimplexSolver(SimplexOptions options) : options_(options) {}

Solution SimplexSolver::solve(const Problem& problem,
                              SimplexState* final_state) const {
  const int n = problem.num_variables();
  const int m = problem.num_constraints();
  require(n > 0, "SimplexSolver: problem has no variables");
  if (final_state) final_state->tableau_.reset();

  Tableau t;
  t.n = n;
  t.m = m;
  t.ncols = n + 2 * m;
  t.width = t.ncols;
  t.a.assign(static_cast<std::size_t>(m) * t.ncols, 0.0);
  t.rhs.assign(static_cast<std::size_t>(m), 0.0);
  t.lo.assign(static_cast<std::size_t>(t.ncols), 0.0);
  t.hi.assign(static_cast<std::size_t>(t.ncols), 0.0);
  t.cost.assign(static_cast<std::size_t>(t.ncols), 0.0);
  t.val.assign(static_cast<std::size_t>(t.ncols), 0.0);
  t.basis.assign(static_cast<std::size_t>(m), -1);
  t.in_basis.assign(static_cast<std::size_t>(t.ncols), 0);

  const double obj_sign = problem.maximize() ? -1.0 : 1.0;

  for (int j = 0; j < n; ++j) {
    const Variable& v = problem.variable(j);
    t.lo[j] = v.lower;
    t.hi[j] = v.upper;
    t.val[j] = initial_value(v.lower, v.upper);
  }
  for (int i = 0; i < m; ++i) {
    const Constraint& c = problem.constraint(i);
    for (const auto& [var, coef] : c.terms) t.at(i, var) = coef;
    const int slack = n + i;
    t.at(i, slack) = 1.0;
    set_slack_bounds(t, i, c.relation);
    t.val[slack] = 0.0;
  }

  // Residuals with every structural/slack column at its start value give
  // the artificial signs and starting basis.
  for (int i = 0; i < m; ++i) {
    const Constraint& c = problem.constraint(i);
    double lhs = 0.0;
    for (const auto& [var, coef] : c.terms) lhs += coef * t.val[var];
    const double r = c.rhs - lhs;  // slack starts at 0
    const double sign = (r >= 0.0) ? 1.0 : -1.0;
    const int art = n + m + i;
    // Scale the whole row by sign so the artificial column is +1 and the
    // tableau equals B^{-1}A for the artificial basis.
    if (sign < 0.0) {
      for (int ccol = 0; ccol < n + m; ++ccol) t.at(i, ccol) = -t.at(i, ccol);
    }
    t.at(i, art) = 1.0;
    t.lo[art] = 0.0;
    t.hi[art] = kInf;
    t.rhs[static_cast<std::size_t>(i)] = sign * c.rhs;
    t.val[art] = std::abs(r);
    t.basis[static_cast<std::size_t>(i)] = art;
    t.in_basis[static_cast<std::size_t>(art)] = 1;
  }
  // rhs currently holds sign*b; fold in the nonbasic start values.
  refresh_basic_values(t);

  Solution sol;
  long iters = 0;

  // Phase 1: minimize the sum of artificials.
  for (int i = 0; i < m; ++i) t.cost[static_cast<std::size_t>(n + m + i)] = 1.0;
  PhaseResult p1 = run_phase(t, options_, iters, options_.max_iterations,
                             /*allow_artificial=*/true);
  if (p1 == PhaseResult::kIterationLimit) {
    sol.status = SolveStatus::kIterationLimit;
    sol.iterations = iters;
    return sol;
  }
  refresh_basic_values(t);
  double infeas = 0.0;
  for (int i = 0; i < m; ++i) infeas += std::max(0.0, t.val[n + m + i]);
  if (infeas > kInfeasibleTol) {
    sol.status = SolveStatus::kInfeasible;
    sol.iterations = iters;
    return sol;
  }

  // Drive any basic artificial (at value ~0) out of the basis when a
  // usable pivot exists; otherwise its row is redundant and the artificial
  // stays pinned at zero.
  for (int r = 0; r < m; ++r) {
    const int b = t.basis[static_cast<std::size_t>(r)];
    if (b < n + m) continue;
    int col = -1;
    for (int j = 0; j < n + m; ++j) {
      if (t.in_basis[static_cast<std::size_t>(j)]) continue;
      if (std::abs(t.at(r, j)) > 1e-7) {
        col = j;
        break;
      }
    }
    if (col >= 0) {
      const double keep = t.val[col];
      pivot(t, r, col);
      t.val[col] = keep;  // degenerate pivot: values unchanged
      t.val[b] = 0.0;
    }
  }
  // Lock artificials at zero for Phase 2.
  for (int i = 0; i < m; ++i) {
    const int art = n + m + i;
    t.lo[static_cast<std::size_t>(art)] = 0.0;
    t.hi[static_cast<std::size_t>(art)] = 0.0;
    if (!t.in_basis[static_cast<std::size_t>(art)]) t.val[static_cast<std::size_t>(art)] = 0.0;
  }
  drop_artificial_columns(t);
  refresh_basic_values(t);

  // Phase 2: the real objective.
  std::fill(t.cost.begin(), t.cost.end(), 0.0);
  for (int j = 0; j < n; ++j)
    t.cost[static_cast<std::size_t>(j)] = obj_sign * problem.variable(j).objective;

  PhaseResult p2 = run_phase(t, options_, iters, options_.max_iterations,
                             /*allow_artificial=*/false);
  sol.iterations = iters;
  if (p2 == PhaseResult::kIterationLimit) {
    sol.status = SolveStatus::kIterationLimit;
    return sol;
  }
  if (p2 == PhaseResult::kUnbounded) {
    sol.status = SolveStatus::kUnbounded;
    return sol;
  }

  refresh_basic_values(t);
  sol = optimal_solution(t, problem);
  sol.iterations = iters;
  if (final_state) final_state->tableau_ = std::make_unique<Tableau>(std::move(t));
  return sol;
}

Solution SimplexSolver::resolve(const Problem& problem, const SimplexState& from,
                                SimplexState* final_state) const {
  require(!from.empty(), "SimplexSolver::resolve: empty state");
  const Tableau& src = *from.tableau_;
  require(src.n == problem.num_variables() &&
              src.m == problem.num_constraints(),
          "SimplexSolver::resolve: state is from a problem of another shape");

  // A warm path still running after this many pivots is cycling or far
  // from home; a cold solve is the better bet.
  const long cap = std::min(options_.max_iterations, 4L * (src.n + src.m));
  long iters = 0;
  Tableau t;
  bool ready = true;
  if (src.compact) {
    ready = refactor(src, problem, options_, t, iters);
  } else if (final_state == &from) {
    t = std::move(*final_state->tableau_);  // replaced below anyway: no copy
  } else {
    t = src;
  }
  // `final_state` may alias `from`: `src` is dead from here on.
  if (final_state) final_state->tableau_.reset();
  int blocked_row = -1;
  switch (ready ? reoptimize(t, problem, options_, iters, cap, &blocked_row)
                : WarmResult::kTrouble) {
    case WarmResult::kOptimal: {
      Solution sol = optimal_solution(t, problem);
      if (problem.max_violation(sol.values) > kResolveResidualTol) break;
      // Optimal only if no multipliers prove a better objective possible.
      const double obj_sign = problem.maximize() ? -1.0 : 1.0;
      const double gap = obj_sign * sol.objective -
                         lagrangian_bound(t, problem, sol.values, options_);
      if (!(gap <= kResolveBoundTol * std::max(1.0, std::abs(sol.objective)))) break;
      sol.warm = true;
      sol.iterations = iters;
      if (final_state) final_state->tableau_ = std::make_unique<Tableau>(std::move(t));
      return sol;
    }
    case WarmResult::kInfeasible: {
      if (!certifies_infeasible(t, blocked_row, problem)) break;
      Solution sol;
      sol.status = SolveStatus::kInfeasible;
      sol.warm = true;
      sol.iterations = iters;
      return sol;
    }
    case WarmResult::kTrouble:
      break;
  }

  // Fallback: the cold two-phase solve, charged with the warm attempt.
  Solution sol = solve(problem, final_state);
  sol.iterations += iters;
  return sol;
}

}  // namespace safenn::lp
