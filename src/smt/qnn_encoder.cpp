#include "smt/qnn_encoder.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "smt/bitvector.hpp"

namespace safenn::smt {
namespace {

/// Builds the full network circuit; returns the input and output vectors.
struct Circuit {
  sat::Cnf cnf;
  std::vector<BitVec> inputs;
  std::vector<BitVec> outputs;
  std::size_t word_width = 0;
};

/// Circuit over explicit fixed-point input ranges (in_lo[i] <= x[i] <=
/// in_hi[i], frac_bits format). Equal bounds pin the input exactly —
/// the replay path — without a double round trip. `cancel` is polled
/// before every neuron; once set, the build stops and returns nothing.
std::optional<Circuit> build_circuit_fixed(
    const nn::QuantizedNetwork& qnet, const std::vector<std::int64_t>& in_lo,
    const std::vector<std::int64_t>& in_hi,
    const std::atomic<bool>* cancel = nullptr) {
  auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_acquire);
  };
  require(in_lo.size() == qnet.input_size() &&
              in_hi.size() == qnet.input_size(),
          "build_circuit: input bound dimension mismatch");
  std::int64_t max_in_mag = 1;
  for (std::size_t i = 0; i < in_lo.size(); ++i) {
    require(in_lo[i] <= in_hi[i],
            "build_circuit: box empty after quantization");
    max_in_mag = std::max(
        {max_in_mag, static_cast<std::int64_t>(std::llabs(in_lo[i])),
         static_cast<std::int64_t>(std::llabs(in_hi[i]))});
  }

  // Word width: large enough for the worst accumulator anywhere.
  const auto acc_bounds = qnet.accumulator_bounds(max_in_mag);
  std::int64_t worst = max_in_mag;
  for (std::int64_t b : acc_bounds) worst = std::max(worst, b);
  const std::size_t width = bits_for_magnitude(worst) + 1;
  require(width <= 62, "build_circuit: accumulators exceed 62 bits");

  if (cancelled()) return std::nullopt;
  auto circuit = Circuit{};
  GateBuilder gates(circuit.cnf);
  BitVecBuilder bv(gates);
  circuit.word_width = width;

  circuit.inputs.reserve(qnet.input_size());
  std::vector<BitVec> layer_values;
  for (std::size_t i = 0; i < qnet.input_size(); ++i) {
    // Pinned inputs (lo == hi, the replay path) become constants, so the
    // whole circuit unit-propagates instead of being searched.
    BitVec x = in_lo[i] == in_hi[i] ? bv.constant(in_lo[i], width)
                                    : bv.input(width);
    if (in_lo[i] != in_hi[i]) bv.assert_in_range(x, in_lo[i], in_hi[i]);
    circuit.inputs.push_back(x);
    layer_values.push_back(std::move(x));
  }

  for (std::size_t li = 0; li < qnet.num_layers(); ++li) {
    const nn::QuantizedLayer& layer = qnet.layer(li);
    std::vector<BitVec> next;
    next.reserve(layer.out_size());
    for (std::size_t r = 0; r < layer.out_size(); ++r) {
      if (cancelled()) return std::nullopt;
      BitVec acc = bv.constant(0, width);
      bool first = true;
      for (std::size_t c = 0; c < layer.in_size(); ++c) {
        const std::int64_t w = layer.weights[r][c];
        if (w == 0) continue;
        BitVec term = bv.mul_const(layer_values[c], w, width);
        if (first) {
          acc = std::move(term);
          first = false;
        } else {
          acc = bv.add(acc, term);
        }
      }
      if (layer.biases[r] != 0) {
        acc = bv.add(acc, bv.constant(layer.biases[r], width));
      } else if (first) {
        // all-zero row with zero bias: acc is already the zero constant
      }
      BitVec z = bv.ashr(acc, static_cast<std::size_t>(qnet.frac_bits()));
      next.push_back(layer.activation == nn::Activation::kRelu ? bv.relu(z)
                                                               : z);
    }
    layer_values = std::move(next);
  }
  circuit.outputs = layer_values;
  return circuit;
}

std::optional<Circuit> build_circuit(const nn::QuantizedNetwork& qnet,
                                     const verify::Box& input_box,
                                     const std::atomic<bool>* cancel) {
  require(input_box.size() == qnet.input_size(),
          "build_circuit: box dimension mismatch");
  // Fixed-point input ranges (round inward so the box is honored).
  std::vector<std::int64_t> in_lo(input_box.size()), in_hi(input_box.size());
  const double scale = std::ldexp(1.0, qnet.frac_bits());
  for (std::size_t i = 0; i < input_box.size(); ++i) {
    in_lo[i] = static_cast<std::int64_t>(std::ceil(input_box[i].lo * scale));
    in_hi[i] = static_cast<std::int64_t>(std::floor(input_box[i].hi * scale));
  }
  return build_circuit_fixed(qnet, in_lo, in_hi, cancel);
}

}  // namespace

QnnVerdict prove_quantized_output_bound(const nn::QuantizedNetwork& qnet,
                                        const verify::Box& input_box,
                                        std::size_t output_index,
                                        double threshold,
                                        const QnnVerifierOptions& options) {
  require(output_index < qnet.output_size(),
          "prove_quantized_output_bound: output index out of range");
  Stopwatch clock;
  QnnVerdict verdict;
  // A racing peer may decide while the circuit is being built; the build
  // then stops without a CNF and the query is kUnknown, like a timeout.
  std::optional<Circuit> built =
      build_circuit(qnet, input_box, options.solver.cancel);
  if (!built) {
    verdict.seconds = clock.seconds();
    return verdict;
  }
  Circuit& circuit = *built;

  // Negated property: output > threshold, i.e. output >= floor(t*2^F)+1.
  GateBuilder gates(circuit.cnf);
  BitVecBuilder bv(gates);
  const std::int64_t t_fixed = static_cast<std::int64_t>(
      std::floor(threshold * std::ldexp(1.0, qnet.frac_bits())));
  const BitVec& out = circuit.outputs[output_index];
  // Widen enough for both the output and the threshold constant.
  const std::size_t w = std::max(
      out.width() + 1, bits_for_magnitude(std::llabs(t_fixed)) + 1);
  gates.assert_true(
      bv.less_than(bv.constant(t_fixed, w), bv.sign_extend(out, w)));

  verdict.cnf_variables = circuit.cnf.num_vars();
  verdict.cnf_clauses = circuit.cnf.num_clauses();

  sat::Solver solver(options.solver);
  verdict.sat = solver.solve(circuit.cnf);
  verdict.solver_stats = solver.stats();
  if (verdict.sat == sat::SatResult::kSat) {
    linalg::Vector x(qnet.input_size());
    for (std::size_t i = 0; i < qnet.input_size(); ++i) {
      x[i] = qnet.from_fixed(bv.decode(circuit.inputs[i], solver));
    }
    verdict.counterexample = x;
    verdict.output_value = qnet.forward_real(x)[output_index];
  }
  verdict.seconds = clock.seconds();
  return verdict;
}

QnnMaxResult maximize_quantized_output(const nn::QuantizedNetwork& qnet,
                                       const verify::Box& input_box,
                                       std::size_t output_index,
                                       double search_lo, double search_hi,
                                       const QnnVerifierOptions& options) {
  require(search_lo <= search_hi,
          "maximize_quantized_output: empty search interval");
  Stopwatch clock;
  QnnMaxResult result;
  result.exact = true;
  const double resolution = std::ldexp(1.0, -qnet.frac_bits());

  double lo = search_lo;  // highest witnessed value (or floor)
  double hi = search_hi;  // above every witnessed value once proven
  bool any_sat = false;
  while (hi - lo > resolution / 2) {
    const double mid = 0.5 * (lo + hi);
    ++result.probes;
    const QnnVerdict v =
        prove_quantized_output_bound(qnet, input_box, output_index, mid,
                                     options);
    if (v.sat == sat::SatResult::kSat) {
      if (!any_sat || v.output_value > result.max_value) {
        result.max_value = v.output_value;
      }
      any_sat = true;
      lo = std::max(v.output_value, mid + resolution / 4);
    } else if (v.sat == sat::SatResult::kUnsat) {
      hi = mid;
    } else {
      result.exact = false;
      break;
    }
  }
  if (!any_sat) {
    // Never witnessed above search_lo; the maximum is at most search_lo.
    result.max_value = search_lo;
  }
  result.upper_bound = hi;
  result.seconds = clock.seconds();
  return result;
}

std::vector<std::int64_t> eval_quantized_through_cnf(
    const nn::QuantizedNetwork& qnet,
    const std::vector<std::int64_t>& input_fixed,
    const QnnVerifierOptions& options) {
  require(input_fixed.size() == qnet.input_size(),
          "eval_quantized_through_cnf: input dimension mismatch");
  Circuit circuit = *build_circuit_fixed(qnet, input_fixed, input_fixed);
  sat::Solver solver(options.solver);
  const sat::SatResult res = solver.solve(circuit.cnf);
  // Every input is pinned to a single value, so the circuit has exactly
  // one model; anything but SAT means the encoding itself is broken.
  require(res == sat::SatResult::kSat,
          "eval_quantized_through_cnf: pinned circuit unsatisfiable");
  GateBuilder gates(circuit.cnf);
  BitVecBuilder bv(gates);
  std::vector<std::int64_t> out;
  out.reserve(circuit.outputs.size());
  for (const BitVec& o : circuit.outputs) {
    out.push_back(bv.decode(o, solver));
  }
  return out;
}

}  // namespace safenn::smt
