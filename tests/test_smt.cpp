#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/quantize.hpp"
#include "smt/bitvector.hpp"
#include "smt/qnn_encoder.hpp"

namespace safenn::smt {
namespace {

using linalg::Vector;
using nn::Activation;
using nn::Network;
using sat::SatResult;
using sat::Solver;

TEST(Gates, ConstantsFold) {
  sat::Cnf cnf;
  GateBuilder g(cnf);
  EXPECT_EQ(g.land(g.true_lit(), g.true_lit()), g.true_lit());
  EXPECT_EQ(g.land(g.true_lit(), g.false_lit()), g.false_lit());
  EXPECT_EQ(g.lor(g.false_lit(), g.false_lit()), g.false_lit());
  EXPECT_EQ(g.lxor(g.true_lit(), g.true_lit()), g.false_lit());
  EXPECT_EQ(g.lxor(g.true_lit(), g.false_lit()), g.true_lit());
  const sat::Lit a = cnf.new_var();
  EXPECT_EQ(g.land(g.true_lit(), a), a);
  EXPECT_EQ(g.lxor(g.false_lit(), a), a);
  EXPECT_EQ(g.lxor(g.true_lit(), a), -a);
  EXPECT_EQ(g.mux(g.true_lit(), a, g.false_lit()), a);
}

TEST(Gates, TruthTablesViaSat) {
  // For every gate and every input combination, assert inputs and check
  // the output literal is forced to the expected value.
  for (int av = 0; av <= 1; ++av) {
    for (int bv = 0; bv <= 1; ++bv) {
      sat::Cnf cnf;
      GateBuilder g(cnf);
      const sat::Lit a = cnf.new_var();
      const sat::Lit b = cnf.new_var();
      const sat::Lit and_ab = g.land(a, b);
      const sat::Lit or_ab = g.lor(a, b);
      const sat::Lit xor_ab = g.lxor(a, b);
      g.assert_true(av ? a : -a);
      g.assert_true(bv ? b : -b);
      Solver s;
      ASSERT_EQ(s.solve(cnf), SatResult::kSat);
      auto lit_value = [&s](sat::Lit l) {
        const bool var_val = s.model_value(sat::lit_var(l));
        return sat::lit_sign(l) ? !var_val : var_val;
      };
      EXPECT_EQ(lit_value(and_ab), av && bv);
      EXPECT_EQ(lit_value(or_ab), av || bv);
      EXPECT_EQ(lit_value(xor_ab), (av ^ bv) != 0);
    }
  }
}

/// Helper: evaluate a constant circuit expression via one SAT call.
std::int64_t eval_const_expr(
    const std::function<BitVec(BitVecBuilder&)>& build) {
  sat::Cnf cnf;
  GateBuilder g(cnf);
  BitVecBuilder bv(g);
  const BitVec result = build(bv);
  Solver s;
  // Constant circuits still need the true-literal unit to be solvable.
  if (s.solve(cnf) != SatResult::kSat) {
    ADD_FAILURE() << "constant circuit unsatisfiable";
    return 0;
  }
  return bv.decode(result, s);
}

TEST(BitVector, ConstantRoundTrip) {
  for (std::int64_t v : {0ll, 1ll, -1ll, 5ll, -7ll, 100ll, -128ll, 127ll}) {
    const std::int64_t got = eval_const_expr(
        [&](BitVecBuilder& bv) { return bv.constant(v, 9); });
    EXPECT_EQ(got, v);
  }
}

TEST(BitVector, BitsForMagnitude) {
  EXPECT_EQ(bits_for_magnitude(0), 1u);
  EXPECT_EQ(bits_for_magnitude(1), 2u);
  EXPECT_EQ(bits_for_magnitude(127), 8u);
  EXPECT_EQ(bits_for_magnitude(128), 9u);
}

TEST(BitVector, AdditionOnConstants) {
  Rng rng(1);
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t a = static_cast<std::int64_t>(rng.uniform(-500, 500));
    const std::int64_t b = static_cast<std::int64_t>(rng.uniform(-500, 500));
    const std::int64_t got = eval_const_expr([&](BitVecBuilder& bv) {
      return bv.add(bv.constant(a, 12), bv.constant(b, 12));
    });
    EXPECT_EQ(got, a + b) << a << " + " << b;
  }
}

TEST(BitVector, SubtractionAndNegation) {
  Rng rng(2);
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t a = static_cast<std::int64_t>(rng.uniform(-500, 500));
    const std::int64_t b = static_cast<std::int64_t>(rng.uniform(-500, 500));
    EXPECT_EQ(eval_const_expr([&](BitVecBuilder& bv) {
                return bv.sub(bv.constant(a, 12), bv.constant(b, 12));
              }),
              a - b);
    EXPECT_EQ(eval_const_expr([&](BitVecBuilder& bv) {
                return bv.negate(bv.constant(a, 12));
              }),
              -a);
  }
}

TEST(BitVector, ConstantMultiplication) {
  Rng rng(3);
  for (int trial = 0; trial < 60; ++trial) {
    const std::int64_t a = static_cast<std::int64_t>(rng.uniform(-60, 60));
    const std::int64_t c = static_cast<std::int64_t>(rng.uniform(-60, 60));
    const std::int64_t got = eval_const_expr([&](BitVecBuilder& bv) {
      return bv.mul_const(bv.constant(a, 8), c, 16);
    });
    EXPECT_EQ(got, a * c) << a << " * " << c;
  }
}

TEST(BitVector, ArithmeticShiftRightIsFloorDivision) {
  for (std::int64_t v : {37ll, -37ll, 64ll, -64ll, 1ll, -1ll, 0ll, -100ll}) {
    for (std::size_t k : {1u, 2u, 4u}) {
      const std::int64_t got = eval_const_expr([&](BitVecBuilder& bv) {
        return bv.ashr(bv.constant(v, 12), k);
      });
      // Arithmetic shift = floor division by 2^k, including negatives.
      const std::int64_t expected = static_cast<std::int64_t>(
          std::floor(static_cast<double>(v) / std::ldexp(1.0, static_cast<int>(k))));
      EXPECT_EQ(got, expected) << v << " >> " << k;
    }
  }
}

TEST(BitVector, ReluSemantics) {
  for (std::int64_t v : {17ll, -17ll, 0ll, -1ll, 255ll}) {
    const std::int64_t got = eval_const_expr([&](BitVecBuilder& bv) {
      return bv.relu(bv.constant(v, 10));
    });
    EXPECT_EQ(got, std::max<std::int64_t>(0, v)) << v;
  }
}

TEST(BitVector, SignedComparisons) {
  Rng rng(4);
  for (int trial = 0; trial < 40; ++trial) {
    const std::int64_t a = static_cast<std::int64_t>(rng.uniform(-200, 200));
    const std::int64_t b = static_cast<std::int64_t>(rng.uniform(-200, 200));
    sat::Cnf cnf;
    GateBuilder g(cnf);
    BitVecBuilder bv(g);
    const sat::Lit lt = bv.less_than(bv.constant(a, 10), bv.constant(b, 10));
    // Constant folding may make this a constant literal.
    if (g.is_const(lt)) {
      EXPECT_EQ(g.const_value(lt), a < b);
    } else {
      Solver s;
      ASSERT_EQ(s.solve(cnf), SatResult::kSat);
      const bool val = sat::lit_sign(lt) ? !s.model_value(sat::lit_var(lt))
                                         : s.model_value(sat::lit_var(lt));
      EXPECT_EQ(val, a < b) << a << " < " << b;
    }
  }
}

TEST(BitVector, RangeAssertionRestrictsInputs) {
  sat::Cnf cnf;
  GateBuilder g(cnf);
  BitVecBuilder bv(g);
  const BitVec x = bv.input(10);
  bv.assert_in_range(x, -3, 5);
  // Force x > 5: must be UNSAT.
  g.assert_true(bv.less_than(bv.constant(5, 11), bv.sign_extend(x, 11)));
  EXPECT_EQ(Solver().solve(cnf), SatResult::kUnsat);
}

/// Builds a small random ReLU network and its quantization.
nn::QuantizedNetwork small_qnet(std::uint64_t seed, int frac_bits,
                                Network* out_net = nullptr) {
  Rng rng(seed);
  Network net = Network::make_mlp({2, 4, 2}, Activation::kRelu,
                                  Activation::kIdentity, rng);
  nn::QuantizedNetwork q = nn::QuantizedNetwork::quantize(net, frac_bits);
  if (out_net) *out_net = std::move(net);
  return q;
}

// The pivotal equivalence property: the SAT circuit reproduces the exact
// integer semantics of QuantizedNetwork::forward_fixed. We check it
// indirectly: the prove-query must agree with exhaustive input sampling.
class QnnSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QnnSoundness, ProveAgreesWithExhaustiveCheck) {
  const int frac_bits = 3;  // coarse grid keeps exhaustive check feasible
  const nn::QuantizedNetwork q = small_qnet(GetParam(), frac_bits);
  verify::Box box(2, verify::Interval{-1.0, 1.0});

  // Exhaustive scan of the quantized input lattice.
  const std::int64_t lo = q.to_fixed(-1.0), hi = q.to_fixed(1.0);
  double true_max = -1e100;
  for (std::int64_t i = lo; i <= hi; ++i) {
    for (std::int64_t j = lo; j <= hi; ++j) {
      const auto out = q.forward_fixed({i, j});
      true_max = std::max(true_max, q.from_fixed(out[0]));
    }
  }

  // Property with threshold above the true maximum must be UNSAT (proved).
  {
    const QnnVerdict v = prove_quantized_output_bound(
        q, box, 0, true_max + 0.5);
    EXPECT_EQ(v.sat, SatResult::kUnsat) << "seed " << GetParam();
  }
  // Threshold strictly below the true maximum must yield a counterexample.
  {
    const QnnVerdict v = prove_quantized_output_bound(
        q, box, 0, true_max - 0.26);
    ASSERT_EQ(v.sat, SatResult::kSat) << "seed " << GetParam();
    ASSERT_TRUE(v.counterexample.has_value());
    // Counterexample must be inside the box and actually exceed the bound.
    const Vector& x = *v.counterexample;
    EXPECT_GE(x[0], -1.0 - 1e-9);
    EXPECT_LE(x[0], 1.0 + 1e-9);
    EXPECT_GT(v.output_value, true_max - 0.26);
    // And the reported output value must match a replay of the quantized
    // network at the witness.
    EXPECT_NEAR(q.forward_real(x)[0], v.output_value, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QnnSoundness,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST(QnnEncoder, BinarySearchFindsMaximum) {
  const int frac_bits = 3;
  const nn::QuantizedNetwork q = small_qnet(99, frac_bits);
  verify::Box box(2, verify::Interval{-1.0, 1.0});

  const std::int64_t lo = q.to_fixed(-1.0), hi = q.to_fixed(1.0);
  double true_max = -1e100;
  for (std::int64_t i = lo; i <= hi; ++i) {
    for (std::int64_t j = lo; j <= hi; ++j) {
      const auto out = q.forward_fixed({i, j});
      true_max = std::max(true_max, q.from_fixed(out[0]));
    }
  }

  const QnnMaxResult r =
      maximize_quantized_output(q, box, 0, true_max - 4.0, true_max + 4.0);
  EXPECT_TRUE(r.exact);
  EXPECT_NEAR(r.max_value, true_max, std::ldexp(1.0, -frac_bits) + 1e-9);
  EXPECT_GT(r.probes, 0);
}

TEST(QnnEncoder, ReportsCnfSize) {
  const nn::QuantizedNetwork q = small_qnet(5, 4);
  verify::Box box(2, verify::Interval{-1.0, 1.0});
  const QnnVerdict v = prove_quantized_output_bound(q, box, 0, 1000.0);
  EXPECT_GT(v.cnf_variables, 10);
  EXPECT_GT(v.cnf_clauses, 10u);
  EXPECT_EQ(v.sat, SatResult::kUnsat);  // bound far above anything reachable
}

TEST(QnnEncoder, CancelledBeforeStartBuildsNoCnf) {
  // A racing peer that decided before the SAT engine started: the build
  // polls the flag before the first neuron, so no clause is ever made.
  const nn::QuantizedNetwork q = small_qnet(5, 4);
  verify::Box box(2, verify::Interval{-1.0, 1.0});
  std::atomic<bool> cancel{true};
  QnnVerifierOptions options;
  options.solver.cancel = &cancel;
  const QnnVerdict v = prove_quantized_output_bound(q, box, 0, 1000.0, options);
  EXPECT_EQ(v.sat, SatResult::kUnknown);
  EXPECT_EQ(v.cnf_variables, 0);
  EXPECT_EQ(v.cnf_clauses, 0u);
  EXPECT_FALSE(v.counterexample.has_value());
  EXPECT_EQ(v.solver_stats.decisions, 0);
}

TEST(QnnEncoder, RejectsBadOutputIndex) {
  const nn::QuantizedNetwork q = small_qnet(6, 4);
  verify::Box box(2, verify::Interval{-1.0, 1.0});
  EXPECT_THROW(prove_quantized_output_bound(q, box, 7, 0.0), safenn::Error);
}

TEST(QnnEncoder, CnfReplayBitwiseMatchesForwardFixed) {
  // The serving replay gate: pin the inputs, solve, decode — the CNF
  // circuit must reproduce forward_fixed bit for bit on every lattice
  // point we throw at it, across several networks.
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    const int frac_bits = 4;
    const nn::QuantizedNetwork q = small_qnet(seed, frac_bits);
    Rng rng(seed * 31 + 5);
    const std::int64_t lo = q.to_fixed(-1.0), hi = q.to_fixed(1.0);
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<std::int64_t> in(q.input_size());
      for (auto& v : in) {
        v = lo + static_cast<std::int64_t>(
                     rng.uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
      }
      EXPECT_EQ(eval_quantized_through_cnf(q, in), q.forward_fixed(in))
          << "seed " << seed << " trial " << trial;
    }
  }
}

TEST(QnnEncoder, CnfReplayRejectsDimensionMismatch) {
  const nn::QuantizedNetwork q = small_qnet(6, 4);
  EXPECT_THROW(eval_quantized_through_cnf(q, {1, 2, 3}), safenn::Error);
}

}  // namespace
}  // namespace safenn::smt
