// MILP encoding of ReLU networks.
//
// Implements the method of Cheng, Nührenberg, Ruess, "Maximum resilience
// of artificial neural networks" (ATVA 2017), which the paper applies in
// its case study: "encodes the structure of a neural network into a set
// of mixed integer linear constraints".
//
// Per unstable ReLU neuron (interval pre-activation bounds lo < 0 < hi)
// with pre-activation z = w.y_prev + b, post-activation variable y and
// phase binary d:
//     y >= z                     (y - w.y_prev        >= b)
//     y <= z - lo*(1 - d)        (y - w.y_prev - lo*d <= b - lo)
//     y <= hi*d
//     y in [0, max(0, hi)], d in {0, 1}
// Stable-active neurons collapse to the equality y = z; stable-inactive
// neurons are pinned to y = 0 and need no row at all. The identity output
// layer contributes one equality per output.
#pragma once

#include <atomic>
#include <vector>

#include "milp/model.hpp"
#include "nn/network.hpp"
#include "verify/property.hpp"

namespace safenn::verify {

/// How per-neuron pre-activation bounds (the big-M constants) are
/// obtained. Tighter bounds mean fewer binaries and a tighter relaxation;
/// bench_bigm_ablation measures the effect.
enum class BoundTightening {
  /// Every ReLU neuron gets the loose symmetric bound
  /// [-loose_big_m, +loose_big_m] and a binary (ablation baseline).
  kLooseBigM,
  /// Interval arithmetic through the layers (cheap, layer-wise sound).
  kInterval,
  /// Symbolic (Neurify/DeepPoly-style) linear bounds in the input
  /// variables, concretized per neuron. Never looser than kInterval,
  /// still LP-free.
  kSymbolic,
  /// Per-neuron min/max LPs over the triangle relaxation of all earlier
  /// layers (slower to build, much tighter; the default). Seeded by
  /// kSymbolic bounds: neurons the seed already proves stable, and
  /// identity neurons, skip their LP pair entirely.
  kLpTighten,
};

struct EncoderOptions {
  BoundTightening tightening = BoundTightening::kLpTighten;
  double loose_big_m = 1000.0;
  /// Optional pre-computed symbolic bounds for exactly (net, region.box),
  /// e.g. hoisted once per query by the portfolio. Used as the kSymbolic
  /// result and as the kLpTighten seed instead of re-deriving them. Must
  /// outlive the encode_network call; null re-derives locally.
  const std::vector<LayerBounds>* precomputed_symbolic = nullptr;
  /// Cooperative cancellation for kLpTighten (a racing portfolio peer
  /// decided): polled before every LP; see lp_tightened_bounds.
  const std::atomic<bool>* cancel = nullptr;
};

/// Per-neuron bounds via layer-by-layer LP tightening: each unstable ReLU
/// neuron's pre-activation is minimized/maximized over an LP containing
/// the input region and the triangle relaxation of all earlier layers;
/// stable and identity neurons keep their symbolic seed bound. Always at
/// least as tight as propagate_bounds. `symbolic_seed`, when non-null,
/// must be symbolic_bounds(net, region.box) (the caller hoisted it); null
/// derives the seed here. `cancel` is polled before every LP: once set,
/// every neuron not yet bounded keeps its symbolic seed bound (sound,
/// just looser), so a flag set before the call returns the seed itself.
std::vector<LayerBounds> lp_tightened_bounds(
    const nn::Network& net, const InputRegion& region,
    const std::vector<LayerBounds>* symbolic_seed = nullptr,
    const std::atomic<bool>* cancel = nullptr);

/// The encoded model plus the variable maps needed to read answers back.
struct EncodedNetwork {
  milp::Model model;
  std::vector<int> input_vars;                 // one per input dim
  std::vector<int> output_vars;                // one per output dim
  std::vector<std::vector<int>> post_vars;     // per layer, per neuron
  std::vector<std::vector<int>> phase_binaries;  // -1 where no binary
  /// Branch priorities for BnbOptions (early layers first).
  std::vector<double> branch_priority;
  std::size_t num_binaries = 0;
  std::size_t num_stable_active = 0;
  std::size_t num_stable_inactive = 0;

  /// Input assignment extracted from a MILP solution vector.
  linalg::Vector extract_input(const std::vector<double>& values) const;

  /// Full MILP variable assignment corresponding to a concrete network
  /// execution at input `x` — always feasible for the encoding, so it
  /// seeds branch-and-bound with an incumbent (warm start).
  std::vector<double> assignment_from_input(const nn::Network& net,
                                            const linalg::Vector& x) const;
};

/// Builds the MILP for `net` constrained to `region`. Only piecewise-
/// linear activations (ReLU hidden, identity output) are supported;
/// throws safenn::Error otherwise. No objective is set — callers add one.
EncodedNetwork encode_network(const nn::Network& net,
                              const InputRegion& region,
                              const EncoderOptions& options = {});

}  // namespace safenn::verify
