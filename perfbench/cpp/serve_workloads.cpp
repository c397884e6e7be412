// Serving workloads: serve_trickle (open loop, per-request path) and
// serve_flood (closed loop, batched path plus hot swaps from a packed
// registry). Both drive a two-model MultiModelServer with 2 workers and
// check every response against a replay outside the server.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor.hpp"
#include "core/pipeline.hpp"
#include "highway/dataset_builder.hpp"
#include "highway/safety_rules.hpp"
#include "highway/scene_encoder.hpp"
#include "nn/qengine.hpp"
#include "registry/registry.hpp"
#include "serve/engine.hpp"
#include "serve/multi_model.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace safenn;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMaxBatch = 16;
constexpr std::size_t kScenePool = 4096;
// Low enough that the shield intervenes on the replay mix, so the
// per-version counter check is not vacuous.
constexpr double kLateralThreshold = -0.2;
// Each run is cut into segments, each served by a fresh server and fresh
// threads; a serving metric is the median over segments. Within a process
// the figures hold steady, across processes they differed by up to 25%
// (trickle p50 20-28 us), so re-rolling the threads within a run steadies
// the run's figure.
constexpr std::size_t kSegments = 5;

struct Fleet {
  std::vector<linalg::Vector> scenes;  // the pool requests draw from
  registry::MonitorConfig monitor;
  core::TrainedPredictor alpha;  // I4x32
  core::TrainedPredictor beta;   // I4x16
};

/// Dataset, the two served predictors and their monitor configuration.
/// Models are trained briefly: serving cost depends on the layer shapes,
/// not on how well the weights fit. Set-up runs on one thread, where one
/// contended CPU of the host cannot stall it.
Fleet make_fleet() {
  highway::SceneEncoder encoder;
  highway::DatasetBuildConfig dcfg;
  dcfg.sample_steps = 60;
  dcfg.warmup_steps = 30;
  dcfg.seed = 7;
  const highway::BuiltDataset built =
      highway::build_highway_dataset(encoder, dcfg);
  Fleet f;
  for (std::size_t i = 0; i < std::min(kScenePool, built.data.size()); ++i) {
    f.scenes.push_back(built.data.input(i));
  }
  f.monitor.region = highway::make_vehicle_on_left_region(
      encoder, highway::data_domain_box(built.data, encoder));
  f.monitor.lateral_threshold = kLateralThreshold;
  const auto train = [&](std::size_t width) {
    core::PredictorConfig cfg;
    cfg.hidden_width = width;
    cfg.train.epochs = 2;
    cfg.weight_seed = 40 + width;
    return core::train_motion_predictor(built.data, cfg);
  };
  f.alpha = train(32);
  f.beta = train(16);
  return f;
}

/// Version k of a model: a lateral bias shift gives each version its own
/// intervention profile, so "the right version answered" shows in the
/// counters and not only in the response tags.
core::TrainedPredictor variant(const core::TrainedPredictor& base,
                               std::size_t k) {
  core::TrainedPredictor p = base;
  const std::size_t lat = p.head.mean_index(0, highway::kActionLateral);
  nn::DenseLayer& out = p.network.layer(p.network.num_layers() - 1);
  out.biases()[lat] += 0.15 * static_cast<double>(k);
  return p;
}

/// Multiply-adds of one forward pass at batch `b`, times two.
double forward_flops(const nn::Network& net, std::size_t b) {
  double f = 0.0;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    f += 2.0 * double(net.layer(i).in_size()) * double(net.layer(i).out_size());
  }
  return f * double(b);
}

linalg::Matrix pack(const std::vector<linalg::Vector>& pool, std::size_t b,
                    std::size_t offset) {
  std::vector<linalg::Vector> rows;
  for (std::size_t r = 0; r < b; ++r) rows.push_back(pool[(offset + r) % pool.size()]);
  return core::pack_scenes(rows);
}

// Measuring threads poll without sleeping (a sleep's granularity would
// swamp a ~25 us latency) but yield, so that on a busy host a server
// worker that needs this CPU gets it at once, not at the next tick.
inline void cpu_relax() { std::this_thread::yield(); }

/// One served request as the benchmark keeps it for the audit.
struct Record {
  std::uint32_t scene = 0;
  std::uint8_t model = 0;    // index into the fleet's model ids
  std::uint8_t version = 0;  // index into the version table
  std::uint8_t outcome = 0;
  std::uint8_t backend = 0;
  bool intervened = false;
  bool assumption_hit = false;
  bool tagged = false;  // model id echoed and version non-empty
  std::uint8_t action_size = 0;
  double action[2] = {0.0, 0.0};
  float queue_s = 0.0f;
  float infer_s = 0.0f;
};

Record to_record(const serve::ServeResponse& r, std::uint32_t scene,
                 std::uint8_t model, const std::string& model_id,
                 std::map<std::string, std::uint8_t>& versions) {
  Record rec;
  rec.scene = scene;
  rec.model = model;
  auto it = versions.find(r.model_version);
  if (it == versions.end()) {
    it = versions.emplace(r.model_version, static_cast<std::uint8_t>(versions.size())).first;
  }
  rec.version = it->second;
  rec.outcome = static_cast<std::uint8_t>(r.outcome);
  rec.backend = static_cast<std::uint8_t>(r.backend);
  rec.intervened = r.intervened;
  rec.assumption_hit = r.assumption_hit;
  rec.tagged = r.model_id == model_id && !r.model_version.empty();
  rec.action_size = static_cast<std::uint8_t>(std::min<std::size_t>(r.action.size(), 255));
  for (std::size_t d = 0; d < std::min<std::size_t>(2, r.action.size()); ++d) {
    rec.action[d] = r.action[d];
  }
  rec.queue_s = static_cast<float>(r.queue_seconds);
  rec.infer_s = static_cast<float>(r.infer_seconds);
  return rec;
}

/// How a served (scene, version) pair must have been decided.
struct Expected {
  bool intervened = false;
  bool assumption_hit = false;
  linalg::Vector action;
};

/// Audits one pass: tagging, outcome accounting, batch purity, and per
/// (model, version) decisions and counters against `replay`, which maps
/// a version label and the distinct scene indices it served to the
/// decisions a sequential replay makes. `bitwise` compares actions
/// exactly; otherwise within 1e-9 (the kSimd tolerance contract).
void audit(
    Outcome& out, const std::vector<Record>& records,
    const std::map<std::string, std::uint8_t>& versions,
    serve::MultiModelServer& server, std::size_t submitted,
    const std::function<std::vector<Expected>(
        const std::string&, const std::vector<std::uint32_t>&)>& replay,
    const std::function<bool(const std::string&, std::uint8_t)>& backend_ok,
    bool bitwise) {
  const serve::MetricsRegistry& m = server.metrics();
  out.check(m.mixed_batches.load() == 0, "mixed_batches != 0");
  out.check(m.submitted.load() == submitted, "metrics.submitted != requests sent");
  out.check(m.served.load() + m.clamped.load() + m.degraded.load() +
                    m.rejected.load() ==
                m.submitted.load(),
            "outcome counts do not sum to submitted");
  out.check(records.size() == submitted, "not every request got a response");
  long failed = 0, untagged = 0, wrong_backend = 0;
  std::vector<std::string> names(versions.size());
  for (const auto& [label, idx] : versions) names[idx] = label;
  // version -> scene -> multiplicity
  std::vector<std::map<std::uint32_t, std::uint64_t>> served(versions.size());
  for (const Record& r : records) {
    const auto outcome = static_cast<serve::ServeOutcome>(r.outcome);
    if (outcome == serve::ServeOutcome::kDegraded ||
        outcome == serve::ServeOutcome::kRejected) {
      ++failed;
      continue;
    }
    if (!r.tagged) ++untagged;
    if (!backend_ok(names[r.version], r.backend)) ++wrong_backend;
    ++served[r.version][r.scene];
  }
  out.attempted += static_cast<long>(submitted);
  out.failed += failed;
  out.check(untagged == 0, std::to_string(untagged) + " responses not tagged with (model, version)");
  out.check(wrong_backend == 0, std::to_string(wrong_backend) + " responses from an unexpected backend");

  long mismatched = 0;
  for (std::size_t v = 0; v < names.size(); ++v) {
    if (served[v].empty()) continue;
    std::vector<std::uint32_t> distinct;
    for (const auto& [scene, n] : served[v]) distinct.push_back(scene);
    const std::vector<Expected> expect = replay(names[v], distinct);
    std::map<std::uint32_t, const Expected*> by_scene;
    std::uint64_t interventions = 0, hits = 0;
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      by_scene[distinct[i]] = &expect[i];
      interventions += expect[i].intervened ? served[v][distinct[i]] : 0;
      hits += expect[i].assumption_hit ? served[v][distinct[i]] : 0;
    }
    serve::VersionCounters& slice =
        server.metrics().version_counters(names[v]);
    out.check(slice.interventions.load() == interventions,
              names[v] + ": interventions differ from the sequential replay");
    out.check(slice.assumption_hits.load() == hits,
              names[v] + ": assumption hits differ from the sequential replay");
    for (const Record& r : records) {
      if (r.version != v) continue;
      const auto outcome = static_cast<serve::ServeOutcome>(r.outcome);
      if (outcome == serve::ServeOutcome::kDegraded ||
          outcome == serve::ServeOutcome::kRejected) {
        continue;
      }
      const Expected& e = *by_scene.at(r.scene);
      bool same = r.intervened == e.intervened &&
                  r.assumption_hit == e.assumption_hit &&
                  r.action_size == e.action.size() && r.action_size <= 2;
      for (std::size_t d = 0; same && d < r.action_size; ++d) {
        same = bitwise ? r.action[d] == e.action[d]
                       : std::abs(r.action[d] - e.action[d]) <= 1e-9;
      }
      if (!same) ++mismatched;
    }
  }
  out.check(mismatched == 0, std::to_string(mismatched) +
                                 " served actions differ from the replay");
}

// ---------------------------------------------------------------------------
// serve_trickle
// ---------------------------------------------------------------------------

// Light enough that micro-batches stay about one request long, so the
// fixed per-request path dominates. Each request wakes a parked worker,
// and on a busy host waking an idle CPU slows down: at 20k rps the
// workers then fell behind (mean batch 1.7-2.7, p50 40-200 us instead of
// 22-25 us) in bursts lasting minutes; in one such burst 5k rps read
// 42-55 us where 20k read 73-86 us.
constexpr double kTrickleRate = 5000.0;

class ServeTrickle : public Workload {
 public:
  explicit ServeTrickle(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    fleet_ = make_fleet();
    artifacts_.clear();
    artifacts_.emplace("alpha-v1", registry::make_artifact(
                                       "alpha-v1", fleet_.alpha, fleet_.monitor));
    artifacts_.emplace("beta-v1", registry::make_artifact(
                                      "beta-v1", fleet_.beta, fleet_.monitor));
  }

  Outcome measure(double seconds, bool trace) override {
    Outcome out;
    const std::size_t count =
        static_cast<std::size_t>(kTrickleRate * seconds * 1.1) + 16;
    const std::vector<double> sched = poisson_schedule(seed_, kTrickleRate, count);
    std::size_t n = 0;
    while (n < count && sched[n] <= seconds) ++n;
    const std::vector<std::uint32_t> order =
        scene_order(seed_, fleet_.scenes.size(), n);
    Rng mix(seed_, kModelMix);
    std::vector<std::uint8_t> model(n);
    for (auto& m : model) m = mix.uniform() < 0.5 ? 0 : 1;

    // Per request, over all segments.
    std::vector<std::int64_t> due(n), submit_start(n), submit_end(n), ready(n);
    std::vector<Record> records(n);
    std::vector<double> segment_p50, elapsed;
    std::string backend;
    const double length = seconds / kSegments;
    std::size_t lo = 0;
    for (std::size_t k = 0; k < kSegments; ++k) {
      std::size_t hi = lo;
      while (hi < n && sched[hi] < length * double(k + 1)) ++hi;
      if (k + 1 == kSegments) hi = n;
      backend = run_segment(out, sched, order, model, lo, hi, length * double(k),
                            due, submit_start, submit_end, ready, records);
      // Failed requests count as missing: they enter the percentile at +inf.
      std::vector<double> latency;
      for (std::size_t i = lo; i < hi; ++i) latency.push_back(request_latency(records[i], due[i], ready[i]));
      segment_p50.push_back(median(latency));
      elapsed.push_back(1e-9 * double(ready[hi - 1] - due[lo]));
      lo = hi;
    }

    std::vector<double> latency(n), lateness(n);
    for (std::size_t i = 0; i < n; ++i) {
      latency[i] = request_latency(records[i], due[i], ready[i]);
      lateness[i] = 1e-9 * double(submit_start[i] - due[i]);
    }
    out.latency_ms = 1e3 * median(segment_p50);
    out.work_per_s = double(n) / sum(elapsed);
    out.named["latency_p50_us"] = {1e6 * median(segment_p50), "us", "lower", 0.25};
    out.notes["trickle_rate_rps"] = std::to_string(kTrickleRate);
    out.notes["trickle_requests"] = std::to_string(n);
    out.notes["trickle_backend"] = backend;
    char buf[160];
    std::snprintf(buf, sizeof buf, "p99 %.1f us, generator lateness p50 %.1f us max %.1f us",
                  1e6 * percentile(latency, 0.99), 1e6 * median(lateness),
                  1e6 * percentile(lateness, 1.0));
    out.notes["trickle_diagnostics"] = buf;

    if (trace) {
      Trace tr;
      tr.reserve(2 * n);
      std::vector<double> queue, infer;
      for (std::size_t i = 0; i < n; ++i) {
        const int req = tr.add("serve.request", submit_start[i], ready[i]);
        tr.add("serve.submit", submit_start[i], submit_end[i], req);
        queue.push_back(records[i].queue_s);
        infer.push_back(records[i].infer_s);
      }
      // Handoff: request self time (after submit returned) minus the
      // server's own queue and infer shares.
      std::vector<double> handoff = tr.self_times("serve.request");
      for (std::size_t i = 0; i < n; ++i) handoff[i] -= queue[i] + infer[i];
      out.layers["serve.submit_us"] = 1e6 * median(tr.durations("serve.submit"));
      out.layers["serve.queue_us"] = 1e6 * median(queue);
      out.layers["serve.infer_us"] = 1e6 * median(infer);
      out.layers["serve.handoff_us"] = 1e6 * median(handoff);
      // Side probe: the float SIMD forward at batch 1, as the trickle's
      // workers run it for alpha.
      Trace pt;
      for (std::size_t i = 0; i < 2000; ++i) {
        const linalg::Matrix x = pack(fleet_.scenes, 1, order[i % n]);
        ScopedSpan span(pt, "nn.predict");
        fleet_.alpha.predict_batch(x, linalg::KernelBackend::kSimd);
      }
      const double t = median(pt.durations("nn.predict"));
      out.layers["nn.predict_us.simd.b1"] = 1e6 * t;
      out.layers["linalg.gflops.simd.b1"] = 1e-9 * forward_flops(fleet_.alpha.network, 1) / t;
    }
    return out;
  }

 private:
  static double request_latency(const Record& r, std::int64_t due, std::int64_t ready) {
    const auto o = static_cast<serve::ServeOutcome>(r.outcome);
    if (o == serve::ServeOutcome::kDegraded || o == serve::ServeOutcome::kRejected) return 1e9;
    return 1e-9 * double(ready - due);
  }

  /// Sends requests [lo, hi) on their schedule (offsets from `offset`) to
  /// a fresh server, collects and audits them; returns the backend alpha
  /// was admitted to.
  std::string run_segment(Outcome& out, const std::vector<double>& sched,
                          const std::vector<std::uint32_t>& order,
                          const std::vector<std::uint8_t>& model, std::size_t lo,
                          std::size_t hi, double offset, std::vector<std::int64_t>& due,
                          std::vector<std::int64_t>& submit_start,
                          std::vector<std::int64_t>& submit_end,
                          std::vector<std::int64_t>& ready, std::vector<Record>& records) {
    const std::string ids[2] = {"alpha", "beta"};
    serve::MultiModelConfig cfg;
    cfg.pool.workers = kWorkers;
    cfg.pool.max_batch = kMaxBatch;
    cfg.backend = linalg::KernelBackend::kSimd;
    serve::MultiModelServer server({{"alpha", artifacts_.at("alpha-v1")},
                                    {"beta", artifacts_.at("beta-v1")}},
                                   cfg);
    const linalg::KernelBackend served_backend[2] = {server.backend("alpha"),
                                                     server.backend("beta")};
    std::vector<std::future<serve::ServeResponse>> futures(hi - lo);
    std::map<std::string, std::uint8_t> versions;

    // One thread sends on schedule and, between sends, timestamps each
    // response as it becomes ready: a second polling thread would keep a
    // third of the four CPUs busy, leaving the two workers at most one
    // idle CPU to wake on.
    std::vector<std::size_t> pending;  // sent, response not yet seen
    const std::int64_t start = now_ns() + 1000000;  // 1 ms lead-in
    for (std::size_t i = lo; i < hi; ++i) {
      due[i] = start + static_cast<std::int64_t>((sched[i] - offset) * 1e9);
    }
    std::size_t next = lo;
    linalg::Vector scene = fleet_.scenes[order[next]];  // copied before it is due
    while (next < hi || !pending.empty()) {
      for (std::size_t k = 0; k < pending.size();) {
        const std::size_t i = pending[k];
        std::future<serve::ServeResponse>& f = futures[i - lo];
        if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++k;
          continue;
        }
        ready[i] = now_ns();
        records[i] = to_record(f.get(), order[i], model[i], ids[model[i]], versions);
        pending[k] = pending.back();
        pending.pop_back();
      }
      const std::int64_t t = now_ns();
      if (next < hi && t >= due[next]) {
        submit_start[next] = t;
        futures[next - lo] = server.submit(ids[model[next]], std::move(scene));
        submit_end[next] = now_ns();
        pending.push_back(next++);
        if (next < hi) scene = fleet_.scenes[order[next]];
      } else {
        cpu_relax();
      }
    }
    server.stop();
    out.notes["mean_batch"] = std::to_string(server.metrics().mean_batch_size());

    const std::vector<Record> segment(records.begin() + lo, records.begin() + hi);
    audit(out, segment, versions, server, hi - lo,
          [&](const std::string& version, const std::vector<std::uint32_t>& scenes) {
            const registry::ModelArtifact& a = artifacts_.at(version);
            const core::TrainedPredictor p = a.predictor();
            const core::SafetyMonitor monitor = a.monitor.make_monitor();
            const linalg::KernelBackend backend =
                version == "alpha-v1" ? served_backend[0] : served_backend[1];
            std::vector<Expected> e;
            for (std::uint32_t s : scenes) {
              const linalg::Vector& x = fleet_.scenes[s];
              const linalg::Vector mean =
                  p.predict_batch(std::vector<linalg::Vector>{x}, backend)[0].mean();
              const core::GuardDecision d = monitor.guard_action(x, mean);
              e.push_back({d.intervened, d.assumption_hit, d.action});
            }
            return e;
          },
          [&](const std::string& version, std::uint8_t backend) {
            return backend == static_cast<std::uint8_t>(
                                  version == "alpha-v1" ? served_backend[0]
                                                        : served_backend[1]);
          },
          /*bitwise=*/false);
    return linalg::to_string(served_backend[0]);
  }

  std::uint64_t seed_;
  Fleet fleet_;
  std::map<std::string, registry::ModelArtifact> artifacts_;
};

// ---------------------------------------------------------------------------
// serve_flood
// ---------------------------------------------------------------------------

// Requests in flight: enough that micro-batches fill (about 10 rows).
constexpr std::size_t kWindow = 256;
// Completed requests between hot swaps of beta, give or take a quarter:
// about ten swaps per 3 s segment.
constexpr std::uint64_t kSwapInterval = 50000;
constexpr int kQuantFracBits = 6;

class ServeFlood : public Workload {
 public:
  ServeFlood(std::uint64_t seed, const std::filesystem::path& scratch)
      : seed_(seed), dir_(scratch / "registry") {}

  void setup() override {
    fleet_ = make_fleet();
    double limit = 0.0;
    for (const linalg::Vector& s : fleet_.scenes) {
      for (std::size_t j = 0; j < s.size(); ++j) limit = std::max(limit, std::abs(s[j]));
    }
    std::filesystem::remove_all(dir_);
    registry_ = std::make_unique<registry::ModelRegistry>(dir_.string());
    registry::ModelArtifact alpha =
        registry::make_artifact("alpha-v1", fleet_.alpha, fleet_.monitor);
    registry_->save(alpha, registry::ArtifactEncoding::kPacked);
    for (std::size_t k = 1; k <= 2; ++k) {
      registry::ModelArtifact beta = registry::make_artifact(
          "beta-v" + std::to_string(k), variant(fleet_.beta, k - 1), fleet_.monitor);
      registry::attach_quantized(beta, kQuantFracBits, limit * 1.05);
      registry_->save(beta, registry::ArtifactEncoding::kPacked);
    }
    // What the server starts from, and what replays use, is read back
    // from the packed bytes.
    artifacts_.clear();
    for (const char* v : {"alpha-v1", "beta-v1", "beta-v2"}) {
      artifacts_.emplace(v, registry_->load(v));
    }
  }

  Outcome measure(double seconds, bool trace) override {
    Outcome out;
    // A 4M-request input stream; a long run wraps around and starts it
    // again, so the run ends on time, not on inputs.
    const std::size_t cap = 4000000;
    const std::vector<std::uint32_t> order = scene_order(seed_, fleet_.scenes.size(), cap);
    Rng mix(seed_, kModelMix);
    std::vector<std::uint8_t> model(cap);
    for (auto& m : model) m = mix.uniform() < 0.5 ? 0 : 1;
    const std::vector<std::uint64_t> swaps = swap_points(seed_, kSwapInterval, 64);

    FloodStats st;
    std::size_t next = 0;
    for (std::size_t k = 0; k < kSegments; ++k) {
      run_segment(out, seconds / kSegments, trace, order, model, swaps, next, st);
    }
    out.check(!st.reload_s.empty(), "no hot swap happened during the run");
    out.latency_ms = 1e3 * median(st.p50);
    out.work_per_s = median(st.throughput);
    out.named["throughput_rps"] = {out.work_per_s, "1/s", "higher", 0.25};
    out.named["reload_ms"] = {1e3 * median(st.reload_s), "ms", "lower", 0.25};
    const double batch = mean(st.batch);
    out.notes["mean_batch"] = std::to_string(batch);
    out.notes["hot_swaps"] = std::to_string(st.reload_s.size());
    out.notes["flood_requests"] = std::to_string(next);

    if (trace) {
      out.layers["serve.submit_us"] = 1e6 * median(st.submit);
      out.layers["serve.queue_us"] = 1e6 * median(st.queue);
      out.layers["serve.infer_us"] = 1e6 * median(st.infer);
      out.layers["serve.handoff_us"] = 1e6 * median(st.handoff);
      out.layers["serve.batch_mean"] = batch;
      out.layers["serve.reload_gate_ms"] = 1e3 * median(st.gate_s);
      out.layers["registry.load_ms"] = 1e3 * median(st.load_s);
      // Side probes at the observed batch size.
      const std::size_t bn = std::max<std::size_t>(1, static_cast<std::size_t>(batch + 0.5));
      const registry::ModelArtifact& beta = artifacts_.at("beta-v1");
      const nn::QuantizedEngine qengine(beta.quantized->network, beta.quantized->input_limit,
                                        linalg::KernelBackend::kQuantized);
      const core::SafetyMonitor monitor = fleet_.monitor.make_monitor();
      nn::QuantizedEngine::Scratch scratch;
      linalg::Matrix raw;
      Trace pt;
      for (std::size_t i = 0; i < 1000; ++i) {
        const linalg::Matrix x = pack(fleet_.scenes, bn, order[i]);
        {
          ScopedSpan span(pt, "nn.predict");
          fleet_.alpha.predict_batch(x, linalg::KernelBackend::kReference);
        }
        {
          ScopedSpan span(pt, "nn.qforward");
          qengine.forward_real_batch(x, scratch, raw);
        }
        std::vector<linalg::Vector> rows;
        for (std::size_t r = 0; r < bn; ++r) rows.push_back(fleet_.scenes[(order[i] + r) % fleet_.scenes.size()]);
        ScopedSpan span(pt, "core.guard");
        monitor.guard_batch(fleet_.alpha, rows);
      }
      // The per-request forward: float SIMD at batch 1.
      for (std::size_t i = 0; i < 2000; ++i) {
        const linalg::Matrix x = pack(fleet_.scenes, 1, order[i]);
        ScopedSpan span(pt, "nn.predict.b1");
        fleet_.alpha.predict_batch(x, linalg::KernelBackend::kSimd);
      }
      const double t1 = median(pt.durations("nn.predict.b1"));
      out.layers["nn.predict_us.simd.b1"] = 1e6 * t1;
      out.layers["linalg.gflops.simd.b1"] = 1e-9 * forward_flops(fleet_.alpha.network, 1) / t1;
      const double t = median(pt.durations("nn.predict"));
      out.layers["nn.predict_us.ref.bN"] = 1e6 * t;
      out.layers["nn.qforward_us.bN"] = 1e6 * median(pt.durations("nn.qforward"));
      out.layers["core.guard_us.bN"] = 1e6 * median(pt.durations("core.guard"));
      out.layers["linalg.gflops.ref.bN"] = 1e-9 * forward_flops(fleet_.alpha.network, bn) / t;
    }
    return out;
  }

 private:
  /// Per-segment figures and pooled samples of one run.
  struct FloodStats {
    std::vector<double> throughput, p50, batch;  // one per segment
    std::vector<double> reload_s, load_s, gate_s;  // one per hot swap
    std::vector<double> queue, infer, submit, handoff;  // per request, traced
  };

  /// One closed-loop segment on a fresh server that starts from beta-v1,
  /// with hot swaps at the seeded request counts. Requests continue the
  /// run's input sequence from `next`.
  void run_segment(Outcome& out, double seconds, bool trace,
                   const std::vector<std::uint32_t>& order,
                   const std::vector<std::uint8_t>& model,
                   const std::vector<std::uint64_t>& swaps, std::size_t& next,
                   FloodStats& st) {
    const std::string ids[2] = {"alpha", "beta"};
    serve::MultiModelConfig cfg;
    cfg.pool.workers = kWorkers;
    cfg.pool.max_batch = kMaxBatch;
    cfg.queue_capacity = 256;
    cfg.admission_budget = 512;
    cfg.backend = linalg::KernelBackend::kQuantized;
    serve::MultiModelServer server({{"alpha", artifacts_.at("alpha-v1")},
                                    {"beta", artifacts_.at("beta-v1")}},
                                   cfg);

    std::atomic<bool> done{false};
    std::string control_error;
    std::thread control([&] {
      try {
        std::size_t k = 0;
        while (!done.load(std::memory_order_acquire) && k < swaps.size()) {
          if (server.metrics().completed() < swaps[k]) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            continue;
          }
          const std::string version = k % 2 == 0 ? "beta-v2" : "beta-v1";
          const std::int64_t t0 = now_ns();
          const registry::ModelArtifact a = registry_->load(version);
          const std::int64_t t1 = now_ns();
          server.reload("beta", a);
          const std::int64_t t2 = now_ns();
          st.reload_s.push_back(1e-9 * double(t2 - t0));
          st.load_s.push_back(1e-9 * double(t1 - t0));
          if (trace) {
            const std::int64_t g0 = now_ns();
            serve::resolve_serving_backend(a, linalg::KernelBackend::kQuantized, kMaxBatch);
            st.gate_s.push_back(1e-9 * double(now_ns() - g0));
          }
          ++k;
        }
      } catch (const std::exception& e) {
        control_error = e.what();
      }
    });

    std::vector<Record> records;
    records.reserve(static_cast<std::size_t>(seconds * 250000.0) + kWindow);
    std::vector<double> latency;
    latency.reserve(records.capacity());
    std::map<std::string, std::uint8_t> versions;
    std::vector<std::future<serve::ServeResponse>> ring(kWindow);
    std::vector<std::int64_t> sent(kWindow), sent_end(kWindow);
    std::vector<std::size_t> req_of(kWindow);
    const std::size_t cap = order.size();
    const std::int64_t start = now_ns();
    const std::int64_t stop_at = start + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t k = 0; k < kWindow; ++k) {
      req_of[k] = next % cap;
      sent[k] = now_ns();
      ring[k] = server.submit(ids[model[next % cap]], fleet_.scenes[order[next % cap]]);
      sent_end[k] = now_ns();
      ++next;
    }
    std::size_t live = kWindow;
    std::int64_t last_ready = start;
    for (std::size_t k = 0; live > 0; k = (k + 1) % kWindow) {
      if (!ring[k].valid()) continue;
      while (ring[k].wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        cpu_relax();
      }
      last_ready = now_ns();
      const std::size_t i = req_of[k];
      records.push_back(to_record(ring[k].get(), order[i], model[i], ids[model[i]], versions));
      const auto o = static_cast<serve::ServeOutcome>(records.back().outcome);
      // Failed requests count as missing: they enter the percentile at +inf.
      latency.push_back(o == serve::ServeOutcome::kDegraded || o == serve::ServeOutcome::kRejected
                            ? 1e9
                            : 1e-9 * double(last_ready - sent[k]));
      if (trace) {
        // Submit returning -> response seen, minus the server's queue and
        // infer shares; includes the client's polling lag in the ring.
        const Record& r = records.back();
        st.submit.push_back(1e-9 * double(sent_end[k] - sent[k]));
        st.handoff.push_back(1e-9 * double(last_ready - sent_end[k]) - r.queue_s - r.infer_s);
      }
      if (last_ready < stop_at) {
        req_of[k] = next % cap;
        sent[k] = now_ns();
        ring[k] = server.submit(ids[model[next % cap]], fleet_.scenes[order[next % cap]]);
        sent_end[k] = now_ns();
        ++next;
      } else {
        --live;
      }
    }
    done.store(true, std::memory_order_release);
    control.join();
    server.stop();
    out.check(control_error.empty(), "hot swap failed: " + control_error);
    st.throughput.push_back(double(records.size()) / (1e-9 * double(last_ready - start)));
    st.p50.push_back(median(latency));
    st.batch.push_back(server.metrics().mean_batch_size());
    if (trace) {
      for (const Record& r : records) {
        st.queue.push_back(r.queue_s);
        st.infer.push_back(r.infer_s);
      }
    }

    // Replays outside the server: float reference for alpha (bitwise by
    // the predict_batch contract), the scalar integer engine for beta.
    audit(out, records, versions, server, records.size(),
          [&](const std::string& version, const std::vector<std::uint32_t>& scenes) {
            const registry::ModelArtifact& a = artifacts_.at(version);
            const core::TrainedPredictor p = a.predictor();
            const core::SafetyMonitor monitor = a.monitor.make_monitor();
            std::vector<Expected> e;
            std::vector<linalg::Vector> xs;
            for (std::uint32_t s : scenes) xs.push_back(fleet_.scenes[s]);
            if (!a.quantized) {
              for (const core::GuardDecision& d : monitor.guard_batch(p, xs)) {
                e.push_back({d.intervened, d.assumption_hit, d.action});
              }
              return e;
            }
            const nn::QuantizedEngine engine(a.quantized->network, a.quantized->input_limit,
                                             linalg::KernelBackend::kReference);
            nn::QuantizedEngine::Scratch scratch;
            linalg::Matrix raw;
            engine.forward_real_batch(core::pack_scenes(xs), scratch, raw);
            linalg::Vector row(raw.cols());
            for (std::size_t r = 0; r < xs.size(); ++r) {
              std::copy(raw.data() + r * raw.cols(), raw.data() + (r + 1) * raw.cols(),
                        row.data());
              const core::GuardDecision d = monitor.guard_action(xs[r], p.head.parse(row).mean());
              e.push_back({d.intervened, d.assumption_hit, d.action});
            }
            return e;
          },
          [&](const std::string& version, std::uint8_t backend) {
            const bool quant = artifacts_.at(version).quantized.has_value();
            return backend == static_cast<std::uint8_t>(
                                  quant ? linalg::KernelBackend::kQuantized
                                        : linalg::KernelBackend::kReference);
          },
          /*bitwise=*/true);
  }

  std::uint64_t seed_;
  std::filesystem::path dir_;
  Fleet fleet_;
  std::unique_ptr<registry::ModelRegistry> registry_;
  std::map<std::string, registry::ModelArtifact> artifacts_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_trickle(std::uint64_t seed) {
  return std::make_unique<ServeTrickle>(seed);
}

std::unique_ptr<Workload> make_serve_flood(std::uint64_t seed,
                                           const std::filesystem::path& scratch) {
  return std::make_unique<ServeFlood>(seed, scratch);
}

}  // namespace perfbench
