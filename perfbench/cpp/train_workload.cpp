// train_i4x32: dataset -> trained weights. The timed loop trains the I4x32
// predictor for one epoch on the fused sequential engine (1 worker), again
// and again from the same initial weights and shuffle; every round must end
// on the same weights. After it, an untimed check trains kEpochs on the
// 1-worker and on the sharded 3-worker engine; the two weight checksums
// must agree.
//
// The gated metrics time the 1-worker engine. The 3-worker engine
// synchronizes every mini-batch, so one contended CPU stalls all three:
// on the shared 4-CPU host one run in five trained it 3x slower from start
// to end while the 1-worker engine was unaffected. Its rate is reported
// as samples_per_s_w3 and judged by compare.py, not gated.
//
// The gated epoch is the run's fastest. Every epoch does the same work,
// and on that host other tenants slow it, by up to 2x, for seconds to
// minutes at a time; they can only slow it. The fastest epoch is the least
// disturbed estimate of the trainer's speed: in two sets of ten 30 s runs
// it spread 17% and 13% (interquartile range over median) where the median
// epoch spread 33% and 20%.
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/task_pool.hpp"
#include "core/pipeline.hpp"
#include "highway/dataset_builder.hpp"
#include "highway/scene_encoder.hpp"
#include "nn/serialize.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace safenn;

constexpr std::size_t kWidth = 32;
constexpr std::size_t kEpochs = 2;
constexpr std::size_t kBatch = 32;

highway::BuiltDataset build(int workers) {
  highway::SceneEncoder encoder;
  highway::DatasetBuildConfig cfg;  // default battery: 35,180 rows
  cfg.num_workers = workers;
  return highway::build_highway_dataset(encoder, cfg);
}

class TrainI4x32 : public Workload {
 public:
  explicit TrainI4x32(std::uint64_t seed) : seed_(seed) {}

  void setup() override { data_ = build(1).data; }

  Outcome measure(double seconds, bool trace) override {
    Outcome out;
    core::PredictorConfig cfg;
    cfg.hidden_width = kWidth;
    cfg.weight_seed = 40 + kWidth;
    cfg.train.epochs = kEpochs;
    cfg.train.batch_size = kBatch;
    cfg.train.shuffle_seed = Rng(seed_, kSceneOrder).next();

    const double rows = double(data_.size());
    // Timed: one-epoch trainings at 1 worker, from the same initial weights
    // and shuffle, so every round must end on the same weights.
    std::vector<double> t1;
    std::uint64_t first_checksum = 0;
    {
      core::PredictorConfig c = cfg;
      c.train.epochs = 1;
      c.train.num_workers = 1;
      const std::int64_t start = now_ns();
      do {
        const std::int64_t t0 = now_ns();
        const core::TrainedPredictor p = core::train_motion_predictor(data_, c);
        t1.push_back(1e-9 * double(now_ns() - t0));
        const std::uint64_t checksum = nn::network_checksum(p.network);
        if (t1.size() == 1) first_checksum = checksum;
        const bool finite = std::isfinite(p.final_loss);
        ++out.attempted;
        if (!finite || checksum != first_checksum) ++out.failed;
        out.check(finite, "final loss is not finite");
        out.check(checksum == first_checksum,
                  "repeated 1-worker trainings end on different weights");
      } while (1e-9 * double(now_ns() - start) < seconds);
    }

    // Untimed check: kEpochs at 1 and at 3 workers must give equal weights.
    std::uint64_t checksum[2] = {0, 0};
    double t3 = 0.0;
    for (int k = 0; k < 2; ++k) {
      cfg.train.num_workers = k == 0 ? 1 : 3;
      const std::int64_t t0 = now_ns();
      const core::TrainedPredictor p = core::train_motion_predictor(data_, cfg);
      if (k == 1) t3 = 1e-9 * double(now_ns() - t0);
      checksum[k] = nn::network_checksum(p.network);
      ++out.attempted;
      if (!std::isfinite(p.final_loss)) {
        ++out.failed;
        out.check(false, "final loss is not finite");
      }
    }
    out.check(checksum[0] == checksum[1], "weights at 1 and 3 workers differ");

    // latency_ms: fastest epoch at 1 worker; work_per_s: samples_per_s_w1
    // in that epoch.
    const double epoch_w1 = percentile(t1, 0.0);
    out.latency_ms = 1e3 * epoch_w1;
    out.work_per_s = rows / epoch_w1;
    out.notes["epoch_ms_median"] = std::to_string(1e3 * median(t1));
    out.named["samples_per_s_w3"] = {rows * kEpochs / t3, "1/s", "higher", 0.25};
    out.notes["train_rows"] = std::to_string(data_.size());
    out.notes["train_rounds"] = std::to_string(t1.size());
    std::string each;
    for (double t : t1) {
      if (!each.empty()) each += ' ';
      each += std::to_string(1e3 * t);
    }
    out.notes["epoch_ms_each"] = each;

    if (trace) {
      Trace tr;
      {
        ScopedSpan s(tr, "highway.build.w1");
        build(1);
      }
      {
        ScopedSpan s(tr, "highway.build.w3");
        build(3);
      }
      out.layers["highway.build_s.w1"] = median(tr.durations("highway.build.w1"));
      out.layers["highway.build_s.w3"] = median(tr.durations("highway.build.w3"));

      // The trainer's per-batch layer calls, timed from outside on the
      // workload's own mini-batches and network shape.
      const core::TrainedPredictor p = [&] {
        core::PredictorConfig c = cfg;
        c.train.epochs = 1;
        c.train.num_workers = 1;
        return core::train_motion_predictor(data_, c);
      }();
      const std::vector<std::uint32_t> order = scene_order(seed_, data_.size(), 200 * kBatch);
      nn::BatchTrace bt;
      nn::Gradients grads = p.network.zero_gradients();
      const linalg::Matrix out_grads(kBatch, p.network.output_size(), 1e-3);
      for (std::size_t b = 0; b < 200; ++b) {
        linalg::Matrix x(kBatch, data_.input(0).size());
        for (std::size_t r = 0; r < kBatch; ++r) {
          const linalg::Vector& row = data_.input(order[b * kBatch + r]);
          for (std::size_t c = 0; c < row.size(); ++c) x(r, c) = row[c];
        }
        {
          ScopedSpan s(tr, "nn.forward_trace");
          p.network.forward_trace_batch(x, bt);
        }
        ScopedSpan s(tr, "nn.backward");
        p.network.backward_batch(bt, out_grads, grads);
      }
      const double fwd = median(tr.durations("nn.forward_trace"));
      const double bwd = median(tr.durations("nn.backward"));
      out.layers["nn.fwd_trace_us.b32"] = 1e6 * fwd;
      out.layers["nn.backward_us.b32"] = 1e6 * bwd;
      out.layers["nn.trainer_other_frac"] =
          1.0 - (fwd + bwd) * std::ceil(rows / kBatch) / median(t1);

      TaskPool pool(3);
      const std::vector<std::function<void()>> empty(3, [] {});
      for (int i = 0; i < 2000; ++i) {
        ScopedSpan s(tr, "common.pool_round");
        pool.run(empty);
      }
      out.layers["common.pool_round_us"] = 1e6 * median(tr.durations("common.pool_round"));
    }
    return out;
  }

 private:
  std::uint64_t seed_;
  data::Dataset data_;
};

}  // namespace

std::unique_ptr<Workload> make_train_i4x32(std::uint64_t seed) {
  return std::make_unique<TrainI4x32>(seed);
}

}  // namespace perfbench
