#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"

namespace safenn::sat {
namespace {

// Internal literal encoding: variable v (0-based) -> 2v (positive),
// 2v+1 (negative).
using ILit = int;

inline ILit make_ilit(int var0, bool negated) {
  return 2 * var0 + (negated ? 1 : 0);
}
inline ILit neg(ILit l) { return l ^ 1; }
inline int ivar(ILit l) { return l >> 1; }
inline bool isign(ILit l) { return l & 1; }

constexpr int kUndef = -1;

/// Luby restart sequence value for index i (1-based): 1,1,2,1,1,2,4,...
/// luby(i) = 2^(k-1) when i = 2^k - 1, else luby(i - 2^(k-1) + 1) for the
/// largest k with 2^k - 1 < i; iterative form below.
std::int64_t luby(std::int64_t i) {
  std::int64_t x = i;
  while (true) {
    std::int64_t p = 1;
    while (p - 1 < x) p <<= 1;
    if (p - 1 == x) return p >> 1;
    x -= (p >> 1) - 1;
  }
}

struct Engine {
  // Problem.
  int nvars = 0;
  std::vector<std::vector<ILit>> clauses;      // problem + learned
  std::vector<std::vector<int>> watches;       // per ilit: clause indices
  // Assignment.
  std::vector<signed char> value;  // per var: -1 unassigned, 0 false, 1 true
  std::vector<int> reason;         // per var: clause index or kUndef
  std::vector<int> level;          // per var
  std::vector<ILit> trail;
  std::vector<int> trail_lim;
  std::size_t qhead = 0;
  // Heuristics.
  std::vector<double> activity;
  std::vector<signed char> saved_phase;
  double var_inc = 1.0;
  double var_decay = 0.95;
  // Conflict analysis scratch.
  std::vector<char> seen;

  SolverStats* stats = nullptr;

  int decision_level() const { return static_cast<int>(trail_lim.size()); }

  bool lit_true(ILit l) const {
    const signed char v = value[static_cast<std::size_t>(ivar(l))];
    return v != -1 && (v == 1) != isign(l);
  }
  bool lit_false(ILit l) const {
    const signed char v = value[static_cast<std::size_t>(ivar(l))];
    return v != -1 && (v == 1) == isign(l);
  }
  bool lit_unassigned(ILit l) const {
    return value[static_cast<std::size_t>(ivar(l))] == -1;
  }

  void enqueue(ILit l, int why) {
    const int v = ivar(l);
    value[static_cast<std::size_t>(v)] = isign(l) ? 0 : 1;
    reason[static_cast<std::size_t>(v)] = why;
    level[static_cast<std::size_t>(v)] = decision_level();
    trail.push_back(l);
  }

  void bump(int v) {
    activity[static_cast<std::size_t>(v)] += var_inc;
    if (activity[static_cast<std::size_t>(v)] > 1e100) {
      for (double& a : activity) a *= 1e-100;
      var_inc *= 1e-100;
    }
  }

  void decay() { var_inc /= var_decay; }

  /// Attaches clause `ci` to the watch lists of its first two literals.
  void attach(int ci) {
    const auto& c = clauses[static_cast<std::size_t>(ci)];
    watches[static_cast<std::size_t>(neg(c[0]))].push_back(ci);
    watches[static_cast<std::size_t>(neg(c[1]))].push_back(ci);
  }

  /// Unit propagation; returns conflicting clause index or kUndef.
  int propagate() {
    while (qhead < trail.size()) {
      const ILit p = trail[qhead++];
      ++stats->propagations;
      auto& wl = watches[static_cast<std::size_t>(p)];
      std::size_t keep = 0;
      for (std::size_t wi = 0; wi < wl.size(); ++wi) {
        const int ci = wl[wi];
        auto& c = clauses[static_cast<std::size_t>(ci)];
        // Normalize: watched literal being falsified is c[1].
        if (c[0] == neg(p)) std::swap(c[0], c[1]);
        if (lit_true(c[0])) {
          wl[keep++] = ci;  // clause already satisfied
          continue;
        }
        // Look for a replacement watch.
        bool moved = false;
        for (std::size_t k = 2; k < c.size(); ++k) {
          if (!lit_false(c[k])) {
            std::swap(c[1], c[k]);
            watches[static_cast<std::size_t>(neg(c[1]))].push_back(ci);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        // No replacement: clause is unit or conflicting.
        wl[keep++] = ci;
        if (lit_false(c[0])) {
          // Conflict: restore remaining watches and report.
          for (std::size_t rest = wi + 1; rest < wl.size(); ++rest) {
            wl[keep++] = wl[rest];
          }
          wl.resize(keep);
          qhead = trail.size();
          return ci;
        }
        enqueue(c[0], ci);
      }
      wl.resize(keep);
    }
    return kUndef;
  }

  /// First-UIP conflict analysis. Returns (learned clause, backjump level).
  std::pair<std::vector<ILit>, int> analyze(int confl) {
    std::vector<ILit> learned;
    learned.push_back(0);  // slot for the asserting literal
    int counter = 0;
    ILit p = kUndef;
    std::size_t index = trail.size();

    int ci = confl;
    while (true) {
      const auto& c = clauses[static_cast<std::size_t>(ci)];
      // Skip c[0] when it is the literal we are resolving on.
      for (std::size_t k = (p == kUndef ? 0 : 1); k < c.size(); ++k) {
        const ILit q = c[k];
        const int v = ivar(q);
        if (seen[static_cast<std::size_t>(v)] ||
            level[static_cast<std::size_t>(v)] == 0) {
          continue;
        }
        seen[static_cast<std::size_t>(v)] = 1;
        bump(v);
        if (level[static_cast<std::size_t>(v)] == decision_level()) {
          ++counter;
        } else {
          learned.push_back(q);
        }
      }
      // Pick the next trail literal at the current level to resolve on.
      while (!seen[static_cast<std::size_t>(ivar(trail[index - 1]))]) {
        --index;
      }
      --index;
      p = trail[index];
      seen[static_cast<std::size_t>(ivar(p))] = 0;
      --counter;
      if (counter == 0) break;
      ci = reason[static_cast<std::size_t>(ivar(p))];
    }
    learned[0] = neg(p);

    // Backjump level: highest level among the other literals.
    int back = 0;
    std::size_t back_idx = 1;
    for (std::size_t k = 1; k < learned.size(); ++k) {
      const int lv = level[static_cast<std::size_t>(ivar(learned[k]))];
      if (lv > back) {
        back = lv;
        back_idx = k;
      }
    }
    if (learned.size() > 1) std::swap(learned[1], learned[back_idx]);
    for (ILit l : learned) seen[static_cast<std::size_t>(ivar(l))] = 0;
    return {std::move(learned), back};
  }

  void backjump(int target_level) {
    while (decision_level() > target_level) {
      const std::size_t lim =
          static_cast<std::size_t>(trail_lim.back());
      for (std::size_t i = trail.size(); i-- > lim;) {
        const int v = ivar(trail[i]);
        saved_phase[static_cast<std::size_t>(v)] =
            value[static_cast<std::size_t>(v)];
        value[static_cast<std::size_t>(v)] = -1;
        reason[static_cast<std::size_t>(v)] = kUndef;
      }
      trail.resize(lim);
      trail_lim.pop_back();
    }
    qhead = trail.size();
  }

  /// Picks the unassigned variable with maximal activity (simple scan
  /// with a rotating hint; adequate for our instance sizes).
  int pick_branch_var() {
    int best = kUndef;
    double best_act = -1.0;
    for (int v = 0; v < nvars; ++v) {
      if (value[static_cast<std::size_t>(v)] != -1) continue;
      if (activity[static_cast<std::size_t>(v)] > best_act) {
        best_act = activity[static_cast<std::size_t>(v)];
        best = v;
      }
    }
    return best;
  }
};

}  // namespace

Solver::Solver(SolverOptions options) : options_(options) {}

SatResult Solver::solve(const Cnf& cnf, const std::vector<Lit>& assumptions) {
  stats_ = SolverStats{};
  Engine e;
  e.stats = &stats_;
  e.nvars = cnf.num_vars();
  e.var_decay = options_.var_decay;
  e.value.assign(static_cast<std::size_t>(e.nvars), -1);
  e.reason.assign(static_cast<std::size_t>(e.nvars), kUndef);
  e.level.assign(static_cast<std::size_t>(e.nvars), 0);
  e.activity.assign(static_cast<std::size_t>(e.nvars), 0.0);
  e.saved_phase.assign(static_cast<std::size_t>(e.nvars), 0);
  e.seen.assign(static_cast<std::size_t>(e.nvars), 0);
  e.watches.assign(static_cast<std::size_t>(2 * e.nvars), {});

  // Deadline + portfolio-cancel: the flag at every poll, the clock every
  // 256th (the documented SAT stride — conflicts and decisions are much
  // cheaper than BnB nodes). Polls come every 4096 loaded clauses, every
  // conflict and every decision: polling only on conflicts let a long
  // load or a conflict-free descent ignore a peer that had already
  // decided.
  CancelToken stop(options_.time_limit_seconds, options_.cancel, 256);

  // Load clauses: dedupe literals, drop tautologies, split units.
  std::vector<ILit> units;
  std::size_t loaded = 0;
  for (const auto& clause : cnf.clauses()) {
    if ((++loaded & 4095) == 0 && stop.should_stop()) {
      return SatResult::kUnknown;
    }
    std::vector<ILit> c;
    c.reserve(clause.size());
    for (Lit l : clause) {
      c.push_back(make_ilit(lit_var(l) - 1, lit_sign(l)));
    }
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    bool tautology = false;
    for (std::size_t k = 0; k + 1 < c.size(); ++k) {
      if (c[k + 1] == neg(c[k]) && ivar(c[k]) == ivar(c[k + 1])) {
        tautology = true;
        break;
      }
    }
    if (tautology) continue;
    if (c.empty()) return SatResult::kUnsat;
    if (c.size() == 1) {
      units.push_back(c[0]);
      continue;
    }
    e.clauses.push_back(std::move(c));
    e.attach(static_cast<int>(e.clauses.size()) - 1);
    // Seed activity toward variables that appear often.
    for (ILit l : e.clauses.back()) e.bump(ivar(l));
  }
  for (Lit l : assumptions) {
    require(l != 0 && lit_var(l) <= e.nvars,
            "Solver::solve: assumption references unknown variable");
    units.push_back(make_ilit(lit_var(l) - 1, lit_sign(l)));
  }

  // Level-0 units.
  for (ILit u : units) {
    if (e.lit_false(u)) return SatResult::kUnsat;
    if (e.lit_unassigned(u)) e.enqueue(u, kUndef);
  }
  if (e.propagate() != kUndef) return SatResult::kUnsat;

  std::int64_t restart_idx = 1;
  std::int64_t conflicts_until_restart = 100 * luby(restart_idx);

  while (true) {
    const int confl = e.propagate();
    if (confl != kUndef) {
      ++stats_.conflicts;
      if (e.decision_level() == 0) return SatResult::kUnsat;
      auto [learned, back] = e.analyze(confl);
      e.backjump(back);
      if (learned.size() == 1) {
        e.enqueue(learned[0], kUndef);
      } else {
        e.clauses.push_back(learned);
        const int ci = static_cast<int>(e.clauses.size()) - 1;
        e.attach(ci);
        ++stats_.learned_clauses;
        e.enqueue(learned[0], ci);
      }
      e.decay();

      if (options_.max_conflicts > 0 &&
          stats_.conflicts >= options_.max_conflicts) {
        return SatResult::kUnknown;
      }
      if (stop.should_stop()) {
        return SatResult::kUnknown;
      }
      if (--conflicts_until_restart <= 0) {
        ++stats_.restarts;
        ++restart_idx;
        conflicts_until_restart = 100 * luby(restart_idx);
        e.backjump(0);
      }
      continue;
    }

    // No conflict: decide.
    if (stop.should_stop()) {
      return SatResult::kUnknown;
    }
    const int v = e.pick_branch_var();
    if (v == kUndef) {
      // Full assignment: SAT. Extract the model.
      model_.assign(static_cast<std::size_t>(e.nvars) + 1, 0);
      for (int var = 0; var < e.nvars; ++var) {
        model_[static_cast<std::size_t>(var) + 1] =
            e.value[static_cast<std::size_t>(var)] == 1 ? 1 : 0;
      }
      return SatResult::kSat;
    }
    ++stats_.decisions;
    e.trail_lim.push_back(static_cast<int>(e.trail.size()));
    const bool phase = e.saved_phase[static_cast<std::size_t>(v)] == 1;
    e.enqueue(make_ilit(v, !phase), kUndef);
  }
}

bool Solver::model_value(Var v) const {
  require(v >= 1 && static_cast<std::size_t>(v) < model_.size(),
          "Solver::model_value: no model or variable out of range");
  return model_[static_cast<std::size_t>(v)] != 0;
}

}  // namespace safenn::sat
