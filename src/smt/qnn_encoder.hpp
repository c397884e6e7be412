// Quantized-network verification via bit-blasting (paper Sec. IV(ii)).
//
// The quantized network's exact integer semantics (nn/quantize.hpp) is
// compiled gate-for-gate into CNF: constant-weight multiplies, a
// ripple-carry accumulation tree, arithmetic shift back to the working
// format, and a mux-based ReLU. A safety query "output[o] <= threshold
// for all inputs in the box" becomes one SAT call: assert the negation
// (output > threshold) and ask for a model — UNSAT proves the property,
// a model is a concrete counterexample input.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "nn/quantize.hpp"
#include "sat/solver.hpp"
#include "verify/interval.hpp"

namespace safenn::smt {

struct QnnVerdict {
  sat::SatResult sat = sat::SatResult::kUnknown;
  /// When SAT (property violated): the counterexample input, real units.
  std::optional<linalg::Vector> counterexample;
  /// Output value the quantized network produces at the counterexample.
  double output_value = 0.0;
  int cnf_variables = 0;
  std::size_t cnf_clauses = 0;
  double seconds = 0.0;
  sat::SolverStats solver_stats;
};

struct QnnVerifierOptions {
  sat::SolverOptions solver;
};

/// Verifies "forall x in box: quantized_net(x)[output_index] <= threshold".
/// Returns UNSAT (=> property proved for the quantized network), SAT with
/// counterexample, or Unknown on budget exhaustion or cancellation
/// (options.solver.cancel is also polled per neuron while the circuit is
/// built; a cancelled build reports no CNF: zero variables and clauses).
QnnVerdict prove_quantized_output_bound(
    const nn::QuantizedNetwork& qnet, const verify::Box& input_box,
    std::size_t output_index, double threshold,
    const QnnVerifierOptions& options = {});

/// Exact maximum of the quantized output over the box, found by binary
/// search over thresholds with repeated SAT calls. Intended for small
/// networks (each probe is one SAT solve).
struct QnnMaxResult {
  bool exact = false;         // false when a probe returned Unknown
  double max_value = 0.0;     // highest SAT-witnessed value
  /// Sound upper bound on the quantized maximum: the tightest UNSAT-proved
  /// threshold so far, or the caller's search_hi when no probe proved one.
  /// Valid even when a probe returned Unknown (exact == false), which is
  /// what lets a racing portfolio use an interrupted search's partial
  /// result.
  double upper_bound = 0.0;
  int probes = 0;
  double seconds = 0.0;
};

QnnMaxResult maximize_quantized_output(const nn::QuantizedNetwork& qnet,
                                       const verify::Box& input_box,
                                       std::size_t output_index,
                                       double search_lo, double search_hi,
                                       const QnnVerifierOptions& options = {});

/// Replays one already-quantized input through the CNF circuit: every
/// input bit-vector is pinned to the given fixed-point value (lo == hi),
/// the circuit is solved (trivially satisfiable), and the decoded output
/// words are returned in frac_bits format. This closes the serving loop:
/// a deployed quantized artifact's served outputs can be replayed
/// gate-for-gate through the very circuit the SMT stack verifies —
/// bench_quantized_serve demands bitwise equality with the served bits.
std::vector<std::int64_t> eval_quantized_through_cnf(
    const nn::QuantizedNetwork& qnet,
    const std::vector<std::int64_t>& input_fixed,
    const QnnVerifierOptions& options = {});

}  // namespace safenn::smt
