// verify_table2: Table II's query -> verdict through the racing
// PortfolioVerifier (3 workers, cold VerificationCache, fixed deadline).
//
//   timed battery  full vehicle-on-left region at I4x4 and I4x6, and
//                  data-domain envelopes at I4x8 and I4x10, each at
//                  thresholds at fixed fractions of the root symbolic
//                  interval (jittered by the seed). Every query decides
//                  well before the deadline.
//   frontier       the full region at I4x8 and I4x10, where every engine
//                  runs to the deadline; bound_gap is what they leave.
//
// The battery is repeated on a fresh cold cache until the run's time is
// used, then replayed once against the warm cache of the last pass.
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "highway/dataset_builder.hpp"
#include "highway/safety_rules.hpp"
#include "highway/scene_encoder.hpp"
#include "lp/simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "nn/quantize.hpp"
#include "smt/qnn_encoder.hpp"
#include "verify/cache.hpp"
#include "verify/input_split.hpp"
#include "verify/milp_encoder.hpp"
#include "verify/portfolio.hpp"
#include "verify/symbolic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace safenn;

constexpr double kDeadline = 2.5;  // seconds per query
constexpr std::size_t kWidths[] = {4, 6, 8, 10};
constexpr double kEnvelope = 0.30;  // envelope half-width / domain half-width

// The timed battery: (network index, threshold as a fraction of the
// query's root symbolic interval [lo, hi]); the seed jitters each
// fraction by up to +-0.01. Fractions below about 0.5 are violated and
// found by the warm start or an early split; those above are proved. At
// I4x6 every proof below the root bound takes 2.6-3.9 s, close to the
// deadline and with a spread that would swamp the battery's sum, so I4x6
// gets only a violated query and one the root bound closes.
struct BatteryEntry {
  std::size_t net;
  double fraction;
};
constexpr BatteryEntry kBattery[] = {
    {0, 0.3}, {0, 0.6}, {0, 0.7}, {0, 0.8}, {0, 0.9},
    {1, 0.3}, {1, 1.02},
    {2, 0.3}, {2, 0.8}, {2, 0.9},
    {3, 0.3}, {3, 0.6}, {3, 0.7}, {3, 0.8}, {3, 0.9},
};

struct Query {
  std::string name;
  std::size_t net = 0;  // index into the predictors
  bool envelope = false;  // region: data-domain envelope, else full region
  verify::SafetyProperty prop;
};

verify::InputRegion envelope_region(const verify::Box& box, double fraction) {
  verify::InputRegion region;
  region.box = box;
  for (auto& iv : region.box) {
    const double mid = 0.5 * (iv.lo + iv.hi);
    const double half = 0.5 * (iv.hi - iv.lo) * fraction;
    iv = verify::Interval{mid - half, mid + half};
  }
  return region;
}

bool contradicts(verify::Verdict a, double ta, verify::Verdict b, double tb) {
  // proved(ta): max <= ta; violated(tb): max > tb.
  return a == verify::Verdict::kProved && b == verify::Verdict::kViolated &&
         tb >= ta;
}

class VerifyTable2 : public Workload {
 public:
  VerifyTable2(std::uint64_t seed, const std::filesystem::path& scratch)
      : seed_(seed), scratch_(scratch) {}

  void setup() override {
    highway::SceneEncoder encoder;
    highway::DatasetBuildConfig dcfg;
    dcfg.sample_steps = 120;
    dcfg.warmup_steps = 30;
    dcfg.seed = 7;
    const highway::BuiltDataset built =
        highway::build_highway_dataset(encoder, dcfg);
    const verify::Box domain = highway::data_domain_box(built.data, encoder);
    full_ = highway::make_vehicle_on_left_region(encoder, domain);
    envelope_ = envelope_region(domain, kEnvelope);
    nets_.clear();
    for (std::size_t w : kWidths) {
      core::PredictorConfig cfg;
      cfg.hidden_width = w;
      cfg.train.epochs = 10;
      cfg.weight_seed = 40 + w;
      nets_.push_back(core::train_motion_predictor(built.data, cfg));
    }

    // Inputs from the seed: battery thresholds.
    Rng rng(seed_, kThresholds);
    battery_.clear();
    frontier_.clear();
    for (const BatteryEntry& b : kBattery) {
      const bool wide = kWidths[b.net] >= 8;
      const verify::InputRegion& region = wide ? envelope_ : full_;
      const verify::Interval root = root_interval(b.net, region);
      const double fraction = b.fraction + 0.02 * (rng.uniform() - 0.5);
      Query q;
      q.net = b.net;
      q.envelope = wide;
      q.prop.region = region;
      q.prop.expr = lateral(b.net);
      q.prop.threshold = root.lo + fraction * (root.hi - root.lo);
      q.name = "I4x" + std::to_string(kWidths[b.net]) +
               (wide ? "/envelope@" : "/full@") + std::to_string(b.fraction);
      q.prop.name = q.name;
      battery_.push_back(q);
    }
    // Frontier: mid-interval on the full region, above every value the
    // warm-start sweep finds and far below what the root bound proves,
    // so no engine closes it within the deadline.
    for (std::size_t n = 2; n < nets_.size(); ++n) {
      const verify::Interval root = root_interval(n, full_);
      Query q;
      q.net = n;
      q.prop.region = full_;
      q.prop.expr = lateral(n);
      q.prop.threshold = root.lo + 0.5 * (root.hi - root.lo);
      q.name = "I4x" + std::to_string(kWidths[n]) + "/full-frontier";
      q.prop.name = q.name;
      frontier_.push_back(q);
    }
  }

  Outcome measure(double seconds, bool trace) override {
    Outcome out;
    const std::int64_t start = now_ns();
    // Frontier first: fixed cost, deadline-bound.
    std::vector<double> gaps;
    std::vector<verify::PortfolioResult> frontier_results;
    for (const Query& q : frontier_) {
      verify::PortfolioResult r = prove(q, nullptr);
      gaps.push_back(r.has_value ? r.upper_bound - r.max_value
                                 : std::numeric_limits<double>::quiet_NaN());
      check_result(out, q, r, /*may_stay_open=*/true);
      frontier_results.push_back(std::move(r));
    }
    out.check(std::isfinite(mean(gaps)), "a frontier query found no value");

    // Cold battery passes until the run's time is used.
    std::vector<double> times;
    std::vector<double> battery_sums;
    std::vector<verify::PortfolioResult> cold;
    std::map<std::string, double> engine_s;
    std::map<std::string, double> wins;
    std::filesystem::path cache_dir;
    int pass = 0;
    do {
      cache_dir = scratch_ / ("vcache-" + std::to_string(pass++));
      std::filesystem::remove_all(cache_dir);
      verify::VerificationCache cache(cache_dir.string());
      cold.clear();
      double total = 0.0;
      for (const Query& q : battery_) {
        verify::PortfolioResult r = prove(q, &cache);
        const double t = r.verdict == verify::Verdict::kUnknown
                             ? std::max(r.seconds, kDeadline)
                             : r.seconds;
        times.push_back(t);
        total += t;
        check_result(out, q, r, /*may_stay_open=*/false);
        for (const verify::EngineOutcome& e : r.engines) {
          engine_s[verify::to_string(e.engine)] += e.seconds;
        }
        wins[verify::to_string(r.winner)] += 1.0;
        cold.push_back(std::move(r));
      }
      battery_sums.push_back(total);
      if (pass > 1) std::filesystem::remove_all(scratch_ / ("vcache-" + std::to_string(pass - 2)));
    } while (1e-9 * double(now_ns() - start) < seconds);
    check_consistency(out, cold, frontier_results);

    // Warm replay against the last pass's cache directory.
    std::vector<double> hit_s;
    long hits = 0;
    {
      verify::VerificationCache warm(cache_dir.string());
      for (std::size_t i = 0; i < battery_.size(); ++i) {
        const std::int64_t t0 = now_ns();
        const verify::PortfolioResult w = prove(battery_[i], &warm);
        hit_s.push_back(1e-9 * double(now_ns() - t0));
        hits += w.from_cache ? 1 : 0;
        out.check(w.verdict == cold[i].verdict &&
                      w.upper_bound == cold[i].upper_bound &&
                      w.max_value == cold[i].max_value,
                  battery_[i].name + ": warm replay differs from the cold result");
      }
    }
    std::filesystem::remove_all(cache_dir);

    out.latency_ms = 1e3 * median(times);
    out.work_per_s = double(times.size()) / sum(times);
    out.named["battery_s"] = {median(battery_sums), "s", "lower", 0.25};
    out.named["query_p50_s"] = {median(times), "s", "lower", 0.25};
    out.named["bound_gap"] = {mean(gaps), "m/s", "lower", 0.25};
    out.notes["battery_passes"] = std::to_string(pass);
    out.notes["battery_queries"] = std::to_string(battery_.size());
    out.notes["deadline_s"] = std::to_string(kDeadline);
    std::string verdicts;
    for (std::size_t i = 0; i < cold.size(); ++i) {
      verdicts += battery_[i].name + "=" + to_string(cold[i].verdict) + ":" +
                  verify::to_string(cold[i].winner) + ":" + std::to_string(cold[i].seconds) + " ";
    }
    out.notes["battery_last_pass"] = verdicts;

    if (trace) {
      const double passes = double(pass);
      for (const char* e : {"root", "input_split", "milp", "sat_quantized"}) {
        out.layers[std::string("verify.engine_s.") + e] = engine_s[e] / passes;
        out.layers[std::string("verify.wins.") + e] = wins[e] / passes;
      }
      out.layers["verify.cache_hit_us"] = 1e6 * median(hit_s);
      out.layers["verify.cache_hit_frac"] = double(hits) / double(battery_.size());
      probe_layers(out);
    }
    return out;
  }

 private:
  verify::OutputExpr lateral(std::size_t n) const {
    verify::OutputExpr expr;
    expr.terms = {{static_cast<int>(nets_[n].head.mean_index(0, highway::kActionLateral)), 1.0}};
    return expr;
  }

  verify::Interval root_interval(std::size_t n, const verify::InputRegion& region) const {
    const verify::SymbolicPropagator sym(nets_[n].network);
    return verify::SymbolicPropagator::objective_interval(
        sym.propagate(region.box), region.box, lateral(n).terms);
  }

  verify::PortfolioResult prove(const Query& q, verify::VerificationCache* cache) const {
    verify::PortfolioOptions po;
    po.time_limit_seconds = kDeadline;
    po.num_workers = 3;
    po.split.num_workers = 1;
    return verify::PortfolioVerifier(po, cache).prove(nets_[q.net].network, q.prop);
  }

  /// Counts the query and checks a violation's witness. An undecided
  /// query is a failure unless it `may_stay_open` (the frontier).
  void check_result(Outcome& out, const Query& q, const verify::PortfolioResult& r,
                    bool may_stay_open) const {
    ++out.attempted;
    if (r.verdict == verify::Verdict::kUnknown) {
      if (!may_stay_open) ++out.failed;
      return;
    }
    if (r.verdict == verify::Verdict::kViolated) {
      const bool inside = q.prop.region.contains(r.witness);
      const double value =
          q.prop.expr.evaluate(nets_[q.net].network.forward(r.witness));
      out.check(inside, q.name + ": violation witness outside the region");
      out.check(value > q.prop.threshold,
                q.name + ": violation witness does not exceed the threshold");
    }
  }

  void check_consistency(Outcome& out, const std::vector<verify::PortfolioResult>& cold,
                         const std::vector<verify::PortfolioResult>& frontier) const {
    std::vector<std::pair<const Query*, const verify::PortfolioResult*>> all;
    for (std::size_t i = 0; i < cold.size(); ++i) all.emplace_back(&battery_[i], &cold[i]);
    for (std::size_t i = 0; i < frontier.size(); ++i) all.emplace_back(&frontier_[i], &frontier[i]);
    for (const auto& [qa, ra] : all) {
      for (const auto& [qb, rb] : all) {
        if (qa->net != qb->net || qa->envelope != qb->envelope) continue;
        out.check(!contradicts(ra->verdict, qa->prop.threshold, rb->verdict, qb->prop.threshold),
                  qa->name + " proved contradicts " + qb->name + " violated");
      }
    }
  }

  /// Per-layer probes: each layer's public call timed on this workload's
  /// own networks and regions.
  void probe_layers(Outcome& out) const {
    Trace tr;
    // Root symbolic pass on each battery and frontier region.
    for (const std::vector<Query>* qs : {&battery_, &frontier_}) {
      for (const Query& q : *qs) {
        ScopedSpan s(tr, "verify.root");
        const verify::SymbolicPropagator sym(nets_[q.net].network);
        sym.propagate(q.prop.region.box);
      }
    }
    out.layers["verify.root_ms"] = 1e3 * median(tr.durations("verify.root"));

    // Per-sample forward, as the warm-start sweep calls it.
    Rng rng(seed_, kSceneOrder);
    for (int i = 0; i < 400; ++i) {
      linalg::Vector x(full_.box.size());
      for (std::size_t d = 0; d < x.size(); ++d) {
        x[d] = full_.box[d].lo + rng.uniform() * (full_.box[d].hi - full_.box[d].lo);
      }
      ScopedSpan s(tr, "nn.forward");
      nets_[static_cast<std::size_t>(i) % nets_.size()].network.forward(x);
    }
    out.layers["nn.forward_us"] = 1e6 * median(tr.durations("nn.forward"));

    // Encoding and root LP relaxation per width, over its battery region.
    std::vector<double> lp_iters;
    std::vector<verify::EncodedNetwork> frontier_enc;
    for (std::size_t n = 0; n < nets_.size(); ++n) {
      const verify::InputRegion& region = kWidths[n] >= 8 ? envelope_ : full_;
      verify::EncodedNetwork enc = [&] {
        ScopedSpan s(tr, "verify.encode");
        return verify::encode_network(nets_[n].network, region);
      }();
      const int out_var = enc.output_vars[static_cast<std::size_t>(lateral(n).terms[0].first)];
      enc.model.set_objective(out_var, 1.0);
      enc.model.problem().set_maximize(true);
      lp::Solution sol;
      {
        ScopedSpan s(tr, "lp.solve");
        sol = lp::SimplexSolver().solve(enc.model.problem());
      }
      lp_iters.push_back(double(sol.iterations));
    }
    out.layers["verify.encode_ms"] = 1e3 * mean(tr.durations("verify.encode"));
    out.layers["lp.solve_ms"] = 1e3 * median(tr.durations("lp.solve"));
    out.layers["lp.iters"] = median(lp_iters);

    // Budgeted engines on the frontier queries.
    double nodes = 0, node_s = 0, node_lp = 0, boxes = 0, box_s = 0, pruned = 0;
    double conflicts = 0, sat_s = 0, clauses = 0;
    for (const Query& q : frontier_) {
      const nn::Network& net = nets_[q.net].network;
      verify::EncodedNetwork enc = verify::encode_network(net, q.prop.region);
      const int out_var = enc.output_vars[static_cast<std::size_t>(q.prop.expr.terms[0].first)];
      enc.model.set_objective(out_var, 1.0);
      enc.model.problem().set_maximize(true);
      milp::BnbOptions bo;
      bo.max_nodes = 150;
      bo.branch_priority = enc.branch_priority;
      const milp::MilpResult m = milp::BranchAndBound(bo).solve(enc.model);
      nodes += double(m.nodes_explored);
      node_s += m.seconds;
      node_lp += double(m.lp_iterations);

      verify::InputSplitOptions so;
      so.max_boxes = 400;
      const verify::InputSplitResult s =
          verify::InputSplitVerifier(so).maximize(net, q.prop.region, q.prop.expr);
      boxes += double(s.boxes_explored);
      box_s += s.seconds;
      pruned += double(s.boxes_pruned_symbolic);

      double bound = 1.0;
      for (const verify::Interval& iv : q.prop.region.box) {
        bound = std::max({bound, std::abs(iv.lo), std::abs(iv.hi)});
      }
      const nn::QuantizedNetwork qnet = nn::QuantizedNetwork::quantize(net, 4, bound);
      smt::QnnVerifierOptions qo;
      qo.solver.max_conflicts = 3000;
      const smt::QnnVerdict v = smt::prove_quantized_output_bound(
          qnet, q.prop.region.box, static_cast<std::size_t>(q.prop.expr.terms[0].first),
          q.prop.threshold, qo);
      conflicts += double(v.solver_stats.conflicts);
      sat_s += v.seconds;
      clauses += double(v.cnf_clauses);
    }
    const double nf = double(frontier_.size());
    out.layers["milp.nodes_per_s"] = node_s > 0 ? nodes / node_s : 0.0;
    out.layers["milp.lp_iters_per_node"] = nodes > 0 ? node_lp / nodes : 0.0;
    out.layers["verify.split_boxes_per_s"] = box_s > 0 ? boxes / box_s : 0.0;
    out.layers["verify.split_pruned_frac"] = boxes > 0 ? pruned / boxes : 0.0;
    out.layers["sat.conflicts_per_s"] = sat_s > 0 ? conflicts / sat_s : 0.0;
    out.layers["smt.cnf_clauses"] = clauses / nf;
  }

  std::uint64_t seed_;
  std::filesystem::path scratch_;
  verify::InputRegion full_, envelope_;
  std::vector<core::TrainedPredictor> nets_;
  std::vector<Query> battery_, frontier_;
};

}  // namespace

std::unique_ptr<Workload> make_verify_table2(std::uint64_t seed,
                                             const std::filesystem::path& scratch) {
  return std::make_unique<VerifyTable2>(seed, scratch);
}

}  // namespace perfbench
