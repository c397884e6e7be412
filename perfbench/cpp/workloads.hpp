// The four workloads. Each one is set up several times (setup_s is the
// median) and then measured once for the run's length, or, in a traced
// run, once untraced and once traced for half the length each.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "bench_core.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input and model the measurement needs, from scratch.
  virtual void setup() = 0;
  /// Measures for `seconds` and checks the outputs.
  virtual Outcome measure(double seconds, bool trace) = 0;
};

/// A fresh directory that is removed, with its contents, on destruction.
class TempDir {
 public:
  explicit TempDir(const std::filesystem::path& base);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// `scratch` is where workloads may write; it outlives the workload.
std::unique_ptr<Workload> make_serve_trickle(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_flood(std::uint64_t seed,
                                           const std::filesystem::path& scratch);
std::unique_ptr<Workload> make_verify_table2(
    std::uint64_t seed, const std::filesystem::path& scratch);
std::unique_ptr<Workload> make_train_i4x32(std::uint64_t seed);

}  // namespace perfbench
