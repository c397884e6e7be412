// Brute-force oracle for the verifiers on tiny ReLU networks.
//
// A network with 2-3 inputs and at most 6 hidden ReLUs is linear on each
// activation pattern's region of the input box. Enumerating every
// pattern, and solving the pattern's LP (maximize the output over the box
// and the pattern's sign constraints) by vertex enumeration, gives the
// true maximum without any of the code under test: no simplex, no
// relaxation, no branching. Every engine must agree with it: the
// warm-started branch-and-bound finds it, input splitting never reports
// a value above it or a bound below it, and the portfolio never proves a
// threshold below it nor finds a violation of one above it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "milp/branch_and_bound.hpp"
#include "verify/input_split.hpp"
#include "verify/milp_encoder.hpp"
#include "verify/portfolio.hpp"

namespace safenn::verify {
namespace {

using nn::Activation;
using nn::Network;

/// sum_i coef[i] * x[i] + c over the network inputs.
struct Affine {
  std::vector<double> coef;
  double c = 0.0;
};

/// The half-space a.x <= b.
struct HalfSpace {
  std::vector<double> a;
  double b = 0.0;
};

/// Solves the d x d system rows * x = rhs by Gaussian elimination with
/// partial pivoting; nullopt when it is (numerically) singular.
std::optional<std::vector<double>> solve_square(
    std::vector<std::vector<double>> rows, std::vector<double> rhs) {
  const std::size_t d = rhs.size();
  for (std::size_t col = 0; col < d; ++col) {
    std::size_t piv = col;
    for (std::size_t r = col + 1; r < d; ++r) {
      if (std::abs(rows[r][col]) > std::abs(rows[piv][col])) piv = r;
    }
    if (std::abs(rows[piv][col]) < 1e-12) return std::nullopt;
    std::swap(rows[piv], rows[col]);
    std::swap(rhs[piv], rhs[col]);
    for (std::size_t r = 0; r < d; ++r) {
      if (r == col) continue;
      const double f = rows[r][col] / rows[col][col];
      for (std::size_t c = col; c < d; ++c) rows[r][c] -= f * rows[col][c];
      rhs[r] -= f * rhs[col];
    }
  }
  std::vector<double> x(d);
  for (std::size_t i = 0; i < d; ++i) x[i] = rhs[i] / rows[i][i];
  return x;
}

/// Maximum of f over the bounded polytope {x : h.a.x <= h.b for all h},
/// by enumerating every vertex (d linearly independent tight
/// constraints). nullopt when the polytope is empty.
std::optional<double> max_over_polytope(const Affine& f,
                                        const std::vector<HalfSpace>& hs) {
  const std::size_t d = f.coef.size();
  std::optional<double> best;
  std::vector<std::size_t> pick(d);
  // Visits every d-subset of the constraints in lexicographic order.
  auto visit = [&](auto&& self, std::size_t depth, std::size_t start) -> void {
    if (depth == d) {
      std::vector<std::vector<double>> rows;
      std::vector<double> rhs;
      for (std::size_t k : pick) {
        rows.push_back(hs[k].a);
        rhs.push_back(hs[k].b);
      }
      const auto x = solve_square(std::move(rows), std::move(rhs));
      if (!x) return;
      for (const HalfSpace& h : hs) {
        double lhs = 0.0;
        for (std::size_t i = 0; i < d; ++i) lhs += h.a[i] * (*x)[i];
        if (lhs > h.b + 1e-9) return;
      }
      double v = f.c;
      for (std::size_t i = 0; i < d; ++i) v += f.coef[i] * (*x)[i];
      if (!best || v > *best) best = v;
      return;
    }
    for (std::size_t k = start; k < hs.size(); ++k) {
      pick[depth] = k;
      self(self, depth + 1, k + 1);
    }
  };
  visit(visit, 0, 0);
  return best;
}

/// True maximum of output 0 over the box: the best pattern LP.
double oracle_maximum(const Network& net, const Box& box) {
  const std::size_t d = net.input_size();
  std::size_t hidden = 0;
  for (std::size_t li = 0; li + 1 < net.num_layers(); ++li) {
    hidden += net.layer(li).out_size();
  }
  std::vector<HalfSpace> box_faces;
  for (std::size_t i = 0; i < d; ++i) {
    HalfSpace up{std::vector<double>(d, 0.0), box[i].hi};
    up.a[i] = 1.0;
    HalfSpace down{std::vector<double>(d, 0.0), -box[i].lo};
    down.a[i] = -1.0;
    box_faces.push_back(up);
    box_faces.push_back(down);
  }

  double best = -std::numeric_limits<double>::infinity();
  for (std::uint64_t pattern = 0; pattern < (std::uint64_t{1} << hidden);
       ++pattern) {
    std::vector<HalfSpace> hs = box_faces;
    std::vector<Affine> prev(d);
    for (std::size_t i = 0; i < d; ++i) {
      prev[i].coef.assign(d, 0.0);
      prev[i].coef[i] = 1.0;
    }
    std::size_t neuron = 0;
    for (std::size_t li = 0; li < net.num_layers(); ++li) {
      const nn::DenseLayer& layer = net.layer(li);
      std::vector<Affine> next(layer.out_size());
      for (std::size_t r = 0; r < layer.out_size(); ++r) {
        Affine z{std::vector<double>(d, 0.0), layer.biases()[r]};
        for (std::size_t c = 0; c < layer.in_size(); ++c) {
          const double w = layer.weights()(r, c);
          for (std::size_t i = 0; i < d; ++i) z.coef[i] += w * prev[c].coef[i];
          z.c += w * prev[c].c;
        }
        if (layer.activation() == Activation::kIdentity) {
          next[r] = z;
          continue;
        }
        const bool active = (pattern >> neuron++) & 1U;
        HalfSpace sign{z.coef, -z.c};  // inactive: z <= 0
        if (active) {                  // active: -z <= 0
          for (double& a : sign.a) a = -a;
          sign.b = z.c;
        }
        hs.push_back(sign);
        next[r] = active ? z : Affine{std::vector<double>(d, 0.0), 0.0};
      }
      prev = std::move(next);
    }
    if (const auto v = max_over_polytope(prev[0], hs)) best = std::max(best, *v);
  }
  return best;
}

/// Tiny network from a fixed seed: 2-3 inputs, 1-3 hidden ReLU layers with
/// at most 6 neurons in all, one identity output, random biases.
Network tiny_network(std::uint64_t seed, Box* box) {
  Rng rng(seed * 7919 + 17);
  const std::size_t inputs = 2 + rng.uniform_index(2);
  static const std::vector<std::vector<std::size_t>> kHidden = {
      {6}, {3, 3}, {4, 2}, {2, 2, 2}, {2, 4}, {5}};
  std::vector<std::size_t> widths{inputs};
  for (std::size_t w : kHidden[seed % kHidden.size()]) widths.push_back(w);
  widths.push_back(1);
  Network net = Network::make_mlp(widths, Activation::kRelu,
                                  Activation::kIdentity, rng);
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    for (std::size_t r = 0; r < net.layer(li).out_size(); ++r) {
      net.layer(li).biases()[r] = 0.5 * rng.normal();
    }
  }
  *box = Box(inputs, Interval{-1.0, 1.0});
  for (std::size_t i = 0; i < inputs; ++i) {
    (*box)[i] = Interval{-rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)};
  }
  return net;
}

class TinyNetworkOracle : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    net_ = tiny_network(GetParam(), &region_.box);
    expr_.terms = {{0, 1.0}};
    truth_ = oracle_maximum(net_, region_.box);
    tol_ = 1e-6 * std::max(1.0, std::abs(truth_));
    ASSERT_TRUE(std::isfinite(truth_));
  }

  Network net_;
  InputRegion region_;
  OutputExpr expr_;
  double truth_ = 0.0;
  double tol_ = 0.0;
};

TEST_P(TinyNetworkOracle, OracleIsAttainedByTheNetwork) {
  // Sanity for the oracle itself: no sampled input beats it.
  Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 2000; ++trial) {
    linalg::Vector x(region_.box.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.uniform(region_.box[i].lo, region_.box[i].hi);
    }
    ASSERT_LE(net_.forward(x)[0], truth_ + tol_);
  }
}

TEST_P(TinyNetworkOracle, WarmStartedBranchAndBoundFindsTheMaximum) {
  EncodedNetwork enc = encode_network(net_, region_);
  enc.model.set_objective(enc.output_vars[0], 1.0);
  enc.model.set_maximize(true);
  milp::BnbOptions bo;
  bo.branch_priority = enc.branch_priority;
  bo.heuristic_interval = 1;  // the heuristic re-solves warm on every node
  const milp::MilpResult r = milp::BranchAndBound(bo).solve(enc.model);
  ASSERT_EQ(r.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, truth_, tol_);
  EXPECT_GE(r.best_bound, truth_ - tol_);
  const linalg::Vector x = enc.extract_input(r.values);
  EXPECT_NEAR(net_.forward(x)[0], truth_, 1e-5 * std::max(1.0, std::abs(truth_)));
  EXPECT_EQ(r.warm_solves + r.cold_solves, r.nodes_explored);
  EXPECT_GE(r.cold_solves, 1);  // the root
}

TEST_P(TinyNetworkOracle, InputSplitNeverContradicts) {
  InputSplitOptions so;
  so.max_boxes = 20000;
  const InputSplitResult r =
      InputSplitVerifier(so).maximize(net_, region_, expr_);
  EXPECT_GE(r.upper_bound, truth_ - tol_);
  if (r.has_value) {
    EXPECT_LE(r.max_value, truth_ + tol_);
    EXPECT_TRUE(region_.contains(r.witness));
  }
  if (r.exact) {
    EXPECT_NEAR(r.max_value, truth_, so.gap_tol + tol_);
  }
}

TEST_P(TinyNetworkOracle, PortfolioNeverContradicts) {
  const double scale = std::max(1.0, std::abs(truth_));
  for (const bool deterministic : {true, false}) {
    PortfolioOptions po;
    po.deterministic = deterministic;
    po.num_workers = deterministic ? 1 : 3;
    po.time_limit_seconds = deterministic ? 0.0 : 10.0;
    for (const double offset : {-0.2, -1e-3, 1e-3, 0.2}) {
      SafetyProperty prop;
      prop.name = "oracle";
      prop.region = region_;
      prop.expr = expr_;
      prop.threshold = truth_ + offset * scale;
      const PortfolioResult r = PortfolioVerifier(po).prove(net_, prop);
      const std::string where = std::string(deterministic ? "det" : "racing") +
                                " offset " + std::to_string(offset);
      if (offset > 0.0) {
        EXPECT_NE(r.verdict, Verdict::kViolated) << where;
      } else {
        EXPECT_NE(r.verdict, Verdict::kProved) << where;
      }
      EXPECT_GE(r.upper_bound, truth_ - tol_) << where;
      if (r.has_value) {
        EXPECT_LE(r.max_value, truth_ + tol_) << where;
      }
      if (r.verdict == Verdict::kViolated) {
        ASSERT_TRUE(region_.contains(r.witness)) << where;
        EXPECT_GT(net_.forward(r.witness)[0], prop.threshold) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TinyNetworkOracle,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace safenn::verify
