// safenn end-to-end benchmark: one workload per process.
//
//   safenn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--tmpdir DIR] [--commit SHA] [--source-digest HEX]
//
// Sets the workload up several times (setup_s is the median), measures it,
// checks its outputs, and prints: one line per metric, the run record as
// a JSON line, and last the result line
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any correctness check fails, 2 on bad usage.
#include <cpuid.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.hpp"
#include "linalg/kernels.hpp"
#include "linalg/qmatrix.hpp"
#include "workloads.hpp"

using namespace perfbench;
namespace linalg = safenn::linalg;

namespace {

// Set-up repeats: at least 3, more while they add up to under 2 s, so a
// cheap set-up is timed often enough for its median to settle.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 15;
constexpr double kSetupBudgetSeconds = 2.0;

struct LayerDef {
  const char* name;
  const char* unit;
  const char* moves;  // end-to-end metric (and workload) it should move
};

// Every per-layer metric. A traced run prints all of them; a layer the
// workload does not exercise reads 0 (no calls were timed).
const LayerDef kLayers[] = {
    {"serve.submit_us", "us", "latency_ms on serve_flood"},
    {"serve.queue_us", "us", "latency_ms, work_per_s on serve_flood"},
    {"serve.infer_us", "us", "latency_ms, work_per_s on serve_flood"},
    {"serve.handoff_us", "us", "latency_ms on serve_flood"},
    {"serve.batch_mean", "rows", "work_per_s on serve_flood"},
    {"serve.reload_gate_ms", "ms", "reload_ms on serve_flood"},
    {"registry.load_ms", "ms", "reload_ms on serve_flood"},
    {"nn.predict_us.simd.b1", "us", "latency_ms on serve_trickle (run by hand)"},
    {"nn.predict_us.ref.bN", "us", "work_per_s on serve_flood"},
    {"nn.qforward_us.bN", "us", "work_per_s on serve_flood"},
    {"core.guard_us.bN", "us", "work_per_s on serve_flood"},
    {"linalg.gflops.ref.bN", "GFLOP/s", "work_per_s on serve_flood"},
    {"linalg.gflops.simd.b1", "GFLOP/s", "latency_ms on serve_trickle (run by hand)"},
    {"verify.engine_s.root", "s", "battery_s on verify_table2"},
    {"verify.engine_s.input_split", "s", "battery_s on verify_table2"},
    {"verify.engine_s.milp", "s", "battery_s on verify_table2"},
    {"verify.engine_s.sat_quantized", "s", "battery_s on verify_table2"},
    {"verify.wins.root", "count", "battery_s, query_p50_s on verify_table2"},
    {"verify.wins.input_split", "count", "battery_s, query_p50_s on verify_table2"},
    {"verify.wins.milp", "count", "battery_s, query_p50_s on verify_table2"},
    {"verify.wins.sat_quantized", "count", "battery_s, query_p50_s on verify_table2"},
    {"verify.root_ms", "ms", "query_p50_s on verify_table2"},
    {"nn.forward_us", "us", "query_p50_s on verify_table2"},
    {"verify.encode_ms", "ms", "battery_s on verify_table2"},
    {"lp.solve_ms", "ms", "battery_s, bound_gap on verify_table2"},
    {"lp.iters", "count", "battery_s, bound_gap on verify_table2"},
    {"milp.nodes_per_s", "1/s", "bound_gap, battery_s on verify_table2"},
    {"milp.lp_iters_per_node", "count", "bound_gap, battery_s on verify_table2"},
    {"verify.split_boxes_per_s", "1/s", "battery_s, bound_gap on verify_table2"},
    {"verify.split_pruned_frac", "ratio", "battery_s, bound_gap on verify_table2"},
    {"sat.conflicts_per_s", "1/s", "battery_s on verify_table2"},
    {"smt.cnf_clauses", "count", "battery_s on verify_table2"},
    {"verify.cache_hit_us", "us", "none cold; battery_s must not change"},
    {"verify.cache_hit_frac", "ratio", "none cold; battery_s must not change"},
    {"highway.build_s.w1", "s", "setup_s on train_i4x32"},
    {"highway.build_s.w3", "s", "setup_s on train_i4x32"},
    {"nn.fwd_trace_us.b32", "us", "work_per_s (samples_per_s_w1) on train_i4x32"},
    {"nn.backward_us.b32", "us", "work_per_s (samples_per_s_w1) on train_i4x32"},
    {"common.pool_round_us", "us", "samples_per_s_w3 on train_i4x32"},
    {"nn.trainer_other_frac", "ratio", "work_per_s, samples_per_s_w3 on train_i4x32"},
    {"trace.overhead_frac", "ratio", "none (traced vs untraced latency_ms)"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: safenn_perfbench --workload "
               "serve_trickle|serve_flood|verify_table2|train_i4x32 "
               "--seed N --seconds S --trace 0|1 [--tmpdir DIR] "
               "[--commit SHA] [--source-digest HEX]\n",
               why);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000, nullptr);
  if (max_ext < 0x80000004) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
  model = model.c_str();
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

}  // namespace

namespace perfbench {

TempDir::TempDir(const std::filesystem::path& base) {
  std::string tmpl = (base / "perfbench-XXXXXX").string();
  if (mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("cannot create a directory under " + base.string());
  }
  path_ = tmpl;
}

TempDir::~TempDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  Options opt;
  std::string tmpdir = ".", commit = "unknown", digest = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !val.empty();
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end && *end == '\0' && opt.seconds > 0.0 &&
                     opt.seconds <= 600.0;
    } else if (arg == "--trace") {
      have_trace = val == "0" || val == "1";
      opt.trace = val == "1";
    } else if (arg == "--tmpdir") {
      tmpdir = val;
    } else if (arg == "--commit") {
      commit = val;
    } else if (arg == "--source-digest") {
      digest = val;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (0, 600] and --trace 0|1 are required");
  }

  const std::string workloads[] = {"serve_trickle", "serve_flood",
                                    "verify_table2", "train_i4x32"};
  if (std::find(std::begin(workloads), std::end(workloads), opt.workload) ==
      std::end(workloads)) {
    usage(("unknown workload " + opt.workload).c_str());
  }

  Outcome out;
  std::vector<double> setups;
  std::string int_isa = "unknown";
  try {
    std::filesystem::create_directories(tmpdir);
    TempDir scratch(tmpdir);
    std::unique_ptr<Workload> w;
    if (opt.workload == "serve_trickle") {
      w = make_serve_trickle(opt.seed);
    } else if (opt.workload == "serve_flood") {
      w = make_serve_flood(opt.seed, scratch.path());
    } else if (opt.workload == "verify_table2") {
      w = make_verify_table2(opt.seed, scratch.path());
    } else {
      w = make_train_i4x32(opt.seed);
    }
    while (setups.size() < kMinSetups ||
           (sum(setups) < kSetupBudgetSeconds && setups.size() < kMaxSetups)) {
      const std::int64_t t0 = now_ns();
      w->setup();
      setups.push_back(1e-9 * double(now_ns() - t0));
    }
    if (!opt.trace) {
      out = w->measure(opt.seconds, false);
    } else {
      // Same work untraced then traced: the latency difference is the
      // tracing overhead; correctness must hold in both passes.
      const Outcome plain = w->measure(0.5 * opt.seconds, false);
      out = w->measure(0.5 * opt.seconds, true);
      out.layers["trace.overhead_frac"] =
          plain.latency_ms > 0.0 ? out.latency_ms / plain.latency_ms - 1.0
                                 : 0.0;
      out.attempted += plain.attempted;
      out.failed += plain.failed;
      for (const std::string& f : plain.failures) {
        out.failures.push_back("untraced pass: " + f);
      }
    }
    const linalg::QuantKernelReport qk = linalg::verify_quantized_kernels();
    int_isa = std::string(linalg::to_string(qk.isa)) +
              (qk.pass ? "" : " (bitwise check failed: scalar)");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const double setup_s = median(setups);
  std::vector<std::pair<std::string, std::pair<double, std::string>>> gated = {
      {"setup_s", {setup_s, "s"}},
      {"latency_ms", {out.latency_ms, "ms"}},
      {"work_per_s", {out.work_per_s, "1/s"}},
  };
  for (const auto& [name, v] : gated) {
    out.check(std::isfinite(v.first) && v.first > 0.0,
              name + " is not a positive finite number");
  }
  for (const auto& [name, m] : out.named) {
    out.check(std::isfinite(m.value), name + " is not finite");
  }
  for (const auto& [name, v] : out.layers) {
    bool known = false;
    for (const LayerDef& d : kLayers) known = known || name == d.name;
    out.check(known, "unlisted per-layer metric " + name);
    out.check(std::isfinite(v), name + " is not finite");
  }
  const bool correct = out.failures.empty();

  std::printf("# safenn perfbench: workload %s, seed %llu, %.3g s, trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const auto& [name, v] : gated) {
    std::printf("metric %-28s %14.6g %s\n", name.c_str(), v.first,
                v.second.c_str());
  }
  for (const auto& [name, m] : out.named) {
    std::printf("metric %-28s %14.6g %s (%s is better)\n", name.c_str(),
                m.value, m.unit.c_str(), m.better.c_str());
  }
  if (opt.trace) {
    for (const LayerDef& d : kLayers) {
      const auto it = out.layers.find(d.name);
      if (it == out.layers.end()) continue;
      std::printf("layer  %-28s %14.6g %-7s moves %s\n", d.name, it->second,
                  d.unit, d.moves);
    }
  }
  std::printf("outcome attempted %ld failed %ld (fail_frac %.6g)\n",
              out.attempted, out.failed,
              out.attempted > 0 ? double(out.failed) / double(out.attempted)
                                : 0.0);
  for (const std::string& f : out.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  // Run record plus the workload's named metrics, as one JSON line.
  std::ostringstream rec;
  rec << "{\"record\": {\"workload\": \"" << opt.workload
      << "\", \"seed\": " << opt.seed << ", \"seconds\": " << num(opt.seconds)
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"setup_repeats\": " << setups.size()
      << ", \"measure_passes\": " << (opt.trace ? 2 : 1)
      << ", \"setup_s_each\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    rec << (i ? ", " : "") << num(setups[i]);
  }
  rec << "], \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": \"" << json_escape(cpu_model()) << "\""
      << ", \"compiler\": \"" << json_escape(__VERSION__) << "\""
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
      << ", \"cxx_flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS) << "\""
      << ", \"simd_isa\": \""
      << (linalg::simd_kernels_compiled()
              ? linalg::to_string(linalg::active_simd_isa())
              : "not compiled")
      << "\", \"int_isa\": \"" << json_escape(int_isa) << "\""
      << ", \"commit\": \"" << json_escape(commit) << "\""
      << ", \"source_digest\": \"" << json_escape(digest) << "\"";
  for (const auto& [k, v] : out.notes) {
    rec << ", \"" << json_escape(k) << "\": \"" << json_escape(v) << "\"";
  }
  rec << "}, \"named\": {";
  bool first = true;
  for (const auto& [name, m] : out.named) {
    rec << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << num(m.value) << ", \"unit\": \"" << m.unit << "\", \"better\": \""
        << m.better << "\", \"bound\": " << num(m.bound) << "}";
    first = false;
  }
  rec << "}}";
  std::printf("%s\n", rec.str().c_str());

  std::ostringstream res;
  res << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
      << ", \"metrics\": {";
  first = true;
  const auto emit = [&](const std::string& name, double v,
                        const std::string& unit) {
    res << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << num(std::isfinite(v) ? v : 0.0) << ", \"unit\": \"" << unit
        << "\"}";
    first = false;
  };
  if (!opt.trace) {
    for (const auto& [name, v] : gated) emit(name, v.first, v.second);
  } else {
    for (const LayerDef& d : kLayers) {
      const auto it = out.layers.find(d.name);
      emit(d.name, it == out.layers.end() ? 0.0 : it->second, d.unit);
    }
  }
  res << "}}";
  std::printf("%s\n", res.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
