#include "verify/milp_encoder.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "lp/simplex.hpp"
#include "verify/interval.hpp"
#include "verify/symbolic.hpp"

namespace safenn::verify {

std::vector<LayerBounds> lp_tightened_bounds(
    const nn::Network& net, const InputRegion& region,
    const std::vector<LayerBounds>* symbolic_seed,
    const std::atomic<bool>* cancel) {
  require(region.dims() == net.input_size(),
          "lp_tightened_bounds: region dimension mismatch");
  // Symbolic bounds seed the relaxation and cap the LP answers (the LP
  // can only tighten, never loosen, a sound bound). The tighter seed
  // also lets stable neurons skip their min/max LP pair below.
  const std::vector<LayerBounds> seed =
      symbolic_seed ? *symbolic_seed : symbolic_bounds(net, region.box);
  auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_acquire);
  };
  if (cancelled()) return seed;

  lp::Problem relaxation;
  std::vector<int> prev_vars;
  prev_vars.reserve(net.input_size());
  for (std::size_t i = 0; i < net.input_size(); ++i) {
    prev_vars.push_back(
        relaxation.add_variable(region.box[i].lo, region.box[i].hi));
  }
  for (const InputConstraint& c : region.constraints) {
    lp::LinearTerms terms;
    for (const auto& [idx, coef] : c.terms) {
      terms.emplace_back(prev_vars[static_cast<std::size_t>(idx)], coef);
    }
    relaxation.add_constraint(std::move(terms), c.relation, c.rhs);
  }

  lp::SimplexSolver solver;
  std::vector<LayerBounds> out;
  out.reserve(net.num_layers());

  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const nn::DenseLayer& layer = net.layer(li);
    LayerBounds lb = seed[li];
    std::vector<lp::LinearTerms> z_terms(layer.out_size());
    for (std::size_t r = 0; r < layer.out_size(); ++r) {
      for (std::size_t c = 0; c < layer.in_size(); ++c) {
        const double w = layer.weights()(r, c);
        if (w != 0.0) z_terms[r].emplace_back(prev_vars[c], w);
      }
    }

    // Tighten every neuron's pre-activation bound by LP over the
    // relaxation of the earlier layers. All LPs of a layer share that
    // feasible set and differ only in the objective, so each one after
    // the first re-solves (primal Phase 2) from the previous optimum.
    lp::Problem p = relaxation;
    lp::SimplexState state;
    const lp::LinearTerms* objective = nullptr;
    bool stopped = false;
    for (std::size_t r = 0; r < layer.out_size(); ++r) {
      // Only unstable ReLU neurons get LPs; the rest keep the seed's pre
      // and post. One the symbolic seed already proves stable encodes
      // without a binary no matter how much tighter the LP bound gets
      // (the big win of the symbolic seed: on typical boxes most neurons
      // are stable). An identity neuron's bound only ever bounds y = z,
      // which the relaxation (and the MILP's own LP relaxation) already
      // implies, so its LP pair would add nothing.
      Interval pre = seed[li].pre[r];
      if (layer.activation() != nn::Activation::kRelu ||
          classify(pre) != NeuronStability::kUnstable) {
        continue;
      }
      const double b = layer.biases()[r];
      for (int sense = 0; sense < 2; ++sense) {
        // A peer that already decided the query cancels the rest: the
        // neurons not yet bounded keep their (sound) symbolic seed.
        if (cancelled()) {
          stopped = true;
          break;
        }
        if (objective != &z_terms[r]) {
          if (objective != nullptr) {
            for (const auto& [var, coef] : *objective) p.set_objective(var, 0.0);
          }
          for (const auto& [var, coef] : z_terms[r]) p.set_objective(var, coef);
          objective = &z_terms[r];
        }
        p.set_maximize(sense == 1);
        const lp::Solution s = state.empty() ? solver.solve(p, &state)
                                             : solver.resolve(p, state, &state);
        if (s.status != lp::SolveStatus::kOptimal) continue;
        if (sense == 1) {
          pre.hi = std::min(pre.hi, s.objective + b + 1e-9);
        } else {
          pre.lo = std::max(pre.lo, s.objective + b - 1e-9);
        }
      }
      if (stopped) break;
      if (pre.lo > pre.hi) pre.lo = pre.hi;  // numerical guard
      lb.pre[r] = pre;
      lb.post[r] = pre.lo >= 0.0 ? pre : Interval{0.0, std::max(0.0, pre.hi)};
    }
    out.push_back(lb);
    if (stopped) {
      out.insert(out.end(), seed.begin() + static_cast<std::ptrdiff_t>(li) + 1,
                 seed.end());
      return out;
    }

    // Extend the relaxation with this layer for the layers after it.
    std::vector<int> layer_vars(layer.out_size(), -1);
    for (std::size_t r = 0; r < layer.out_size(); ++r) {
      const Interval pre = lb.pre[r];
      const double b = layer.biases()[r];
      if (layer.activation() == nn::Activation::kRelu && pre.hi <= 0.0) {
        layer_vars[r] = relaxation.add_variable(0.0, 0.0);  // stable inactive
        continue;
      }
      if (layer.activation() == nn::Activation::kIdentity || pre.lo >= 0.0) {
        // Identity or stable active: y = z.
        const int y = relaxation.add_variable(pre.lo, pre.hi);
        lp::LinearTerms eq{{y, 1.0}};
        for (const auto& [var, coef] : z_terms[r]) eq.emplace_back(var, -coef);
        relaxation.add_constraint(std::move(eq), lp::Relation::kEq, b);
        layer_vars[r] = y;
        continue;
      }
      // Unstable: triangle relaxation y >= z, y >= 0, y <= hi(z-lo)/(hi-lo).
      const int y = relaxation.add_variable(0.0, pre.hi);
      lp::LinearTerms ge{{y, 1.0}};
      for (const auto& [var, coef] : z_terms[r]) ge.emplace_back(var, -coef);
      relaxation.add_constraint(std::move(ge), lp::Relation::kGe, b);
      const double slope = pre.hi / (pre.hi - pre.lo);
      lp::LinearTerms le{{y, 1.0}};
      for (const auto& [var, coef] : z_terms[r]) {
        le.emplace_back(var, -slope * coef);
      }
      relaxation.add_constraint(std::move(le), lp::Relation::kLe,
                                slope * (b - pre.lo));
      layer_vars[r] = y;
    }
    prev_vars = layer_vars;
  }
  return out;
}

linalg::Vector EncodedNetwork::extract_input(
    const std::vector<double>& values) const {
  linalg::Vector x(input_vars.size());
  for (std::size_t i = 0; i < input_vars.size(); ++i) {
    x[i] = values[static_cast<std::size_t>(input_vars[i])];
  }
  return x;
}

std::vector<double> EncodedNetwork::assignment_from_input(
    const nn::Network& net, const linalg::Vector& x) const {
  require(x.size() == input_vars.size(),
          "assignment_from_input: input width mismatch");
  std::vector<double> values(
      static_cast<std::size_t>(model.num_variables()), 0.0);
  for (std::size_t i = 0; i < input_vars.size(); ++i) {
    values[static_cast<std::size_t>(input_vars[i])] = x[i];
  }
  const nn::ForwardTrace trace = net.forward_trace(x);
  for (std::size_t li = 0; li < post_vars.size(); ++li) {
    for (std::size_t r = 0; r < post_vars[li].size(); ++r) {
      values[static_cast<std::size_t>(post_vars[li][r])] =
          trace.post_activations[li][r];
      const int d = phase_binaries[li][r];
      if (d >= 0) {
        values[static_cast<std::size_t>(d)] =
            trace.pre_activations[li][r] > 0.0 ? 1.0 : 0.0;
      }
    }
  }
  return values;
}

EncodedNetwork encode_network(const nn::Network& net,
                              const InputRegion& region,
                              const EncoderOptions& options) {
  require(region.dims() == net.input_size(),
          "encode_network: region dimension mismatch");
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    require(nn::is_piecewise_linear(net.layer(li).activation()),
            "encode_network: only ReLU/identity layers admit MILP "
            "encodings; use the interval verifier for smooth activations");
  }

  // Neuron bounds (big-M constants) per the configured tightening method.
  std::vector<LayerBounds> bounds;
  switch (options.tightening) {
    case BoundTightening::kInterval:
      bounds = propagate_bounds(net, region.box);
      break;
    case BoundTightening::kSymbolic:
      bounds = options.precomputed_symbolic
                   ? *options.precomputed_symbolic
                   : symbolic_bounds(net, region.box);
      break;
    case BoundTightening::kLpTighten:
      bounds = lp_tightened_bounds(net, region, options.precomputed_symbolic,
                                   options.cancel);
      break;
    case BoundTightening::kLooseBigM: {
      const double m = options.loose_big_m;
      bounds.reserve(net.num_layers());
      for (std::size_t li = 0; li < net.num_layers(); ++li) {
        LayerBounds lb;
        const std::size_t width = net.layer(li).out_size();
        lb.pre.assign(width, Interval{-m, m});
        for (std::size_t r = 0; r < width; ++r) {
          lb.post.push_back(
              net.layer(li).activation() == nn::Activation::kRelu
                  ? Interval{0.0, m}
                  : Interval{-m, m});
        }
        bounds.push_back(std::move(lb));
      }
      break;
    }
  }

  EncodedNetwork enc;
  milp::Model& model = enc.model;

  // Input variables constrained to the region.
  enc.input_vars.reserve(net.input_size());
  for (std::size_t i = 0; i < net.input_size(); ++i) {
    enc.input_vars.push_back(
        model.add_variable(region.box[i].lo, region.box[i].hi,
                           milp::VarType::kContinuous, 0.0,
                           "x" + std::to_string(i)));
  }
  for (const InputConstraint& c : region.constraints) {
    lp::LinearTerms terms;
    terms.reserve(c.terms.size());
    for (const auto& [idx, coef] : c.terms) {
      require(idx >= 0 && static_cast<std::size_t>(idx) < net.input_size(),
              "encode_network: input constraint index out of range");
      terms.emplace_back(enc.input_vars[static_cast<std::size_t>(idx)], coef);
    }
    model.add_constraint(std::move(terms), c.relation, c.rhs);
  }

  std::vector<int> prev_vars = enc.input_vars;
  enc.post_vars.resize(net.num_layers());
  enc.phase_binaries.resize(net.num_layers());

  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const nn::DenseLayer& layer = net.layer(li);
    const LayerBounds& lb = bounds[li];
    auto& layer_post = enc.post_vars[li];
    auto& layer_bin = enc.phase_binaries[li];
    layer_post.assign(layer.out_size(), -1);
    layer_bin.assign(layer.out_size(), -1);

    for (std::size_t r = 0; r < layer.out_size(); ++r) {
      const Interval pre = lb.pre[r];
      const std::string tag =
          "l" + std::to_string(li) + "n" + std::to_string(r);

      // Pre-activation as linear terms over the previous layer.
      auto pre_terms = [&](double y_coef, int y_var,
                           double d_coef = 0.0, int d_var = -1) {
        lp::LinearTerms terms;
        terms.reserve(layer.in_size() + 2);
        terms.emplace_back(y_var, y_coef);
        for (std::size_t c = 0; c < layer.in_size(); ++c) {
          const double w = layer.weights()(r, c);
          if (w != 0.0) terms.emplace_back(prev_vars[c], -w);
        }
        if (d_var >= 0) terms.emplace_back(d_var, d_coef);
        return terms;
      };

      if (layer.activation() == nn::Activation::kIdentity) {
        const int y = model.add_variable(pre.lo, pre.hi,
                                         milp::VarType::kContinuous, 0.0,
                                         "y_" + tag);
        // y - w.y_prev = b
        model.add_constraint(pre_terms(1.0, y), lp::Relation::kEq,
                             layer.biases()[r]);
        layer_post[r] = y;
        continue;
      }

      // ReLU neuron.
      const NeuronStability stability = classify(pre);
      if (stability == NeuronStability::kStableInactive) {
        // Output pinned to zero; no rows needed.
        layer_post[r] = model.add_variable(0.0, 0.0,
                                           milp::VarType::kContinuous, 0.0,
                                           "y_" + tag);
        ++enc.num_stable_inactive;
        continue;
      }
      if (stability == NeuronStability::kStableActive) {
        const int y = model.add_variable(std::max(0.0, pre.lo), pre.hi,
                                         milp::VarType::kContinuous, 0.0,
                                         "y_" + tag);
        model.add_constraint(pre_terms(1.0, y), lp::Relation::kEq,
                             layer.biases()[r]);
        layer_post[r] = y;
        ++enc.num_stable_active;
        continue;
      }

      // Unstable: big-M disjunction with per-neuron constants.
      const double lo = pre.lo;
      const double hi = pre.hi;
      const int y = model.add_variable(0.0, std::max(0.0, hi),
                                       milp::VarType::kContinuous, 0.0,
                                       "y_" + tag);
      const int d = model.add_variable(0.0, 1.0, milp::VarType::kBinary, 0.0,
                                       "d_" + tag);
      const double b = layer.biases()[r];
      // y - w.y_prev >= b              (y >= z)
      model.add_constraint(pre_terms(1.0, y), lp::Relation::kGe, b);
      // y - w.y_prev - lo*d <= b - lo  (y <= z - lo(1-d))
      model.add_constraint(pre_terms(1.0, y, -lo, d), lp::Relation::kLe,
                           b - lo);
      // y - hi*d <= 0                  (y <= hi*d)
      model.add_constraint({{y, 1.0}, {d, -hi}}, lp::Relation::kLe, 0.0);
      layer_post[r] = y;
      layer_bin[r] = d;
      ++enc.num_binaries;
    }
    prev_vars = layer_post;
  }

  // Early-layer binaries get the highest branching priority: fixing them
  // stabilizes every downstream neuron.
  enc.branch_priority.assign(
      static_cast<std::size_t>(enc.model.num_variables()), 0.0);
  for (std::size_t li = 0; li < enc.phase_binaries.size(); ++li) {
    for (int d : enc.phase_binaries[li]) {
      if (d >= 0) {
        enc.branch_priority[static_cast<std::size_t>(d)] =
            static_cast<double>(net.num_layers() - li);
      }
    }
  }

  enc.output_vars = enc.post_vars.back();
  return enc;
}

}  // namespace safenn::verify
