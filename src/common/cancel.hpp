// Cooperative cancellation for long-running solvers.
//
// Every search engine in the repo (MILP branch-and-bound, input-splitting
// verification, CDCL SAT) runs an unbounded loop whose only exits used to
// be a wall-clock deadline and engine-specific budgets, each polled with
// its own ad-hoc amortization. CancelToken unifies those exits behind one
// helper so a portfolio race can additionally stop an engine the moment a
// peer has already decided the query:
//
//   - an optional external flag (one relaxed atomic load per call —
//     cheap enough to poll unamortized), and
//   - an optional wall-clock Deadline, whose steady_clock read *is*
//     measurable against a node/conflict, so it is only consulted every
//     `stride` calls.
//
// Stride convention (documented here so every engine agrees): the clock
// is read on call 1 and then every stride-th call. Engines keep their
// historical polling rates — branch-and-bound calls should_stop() once
// per node with the default stride 16 (the pre-existing "every 16 nodes"
// amortization), the SAT solver every 4096 loaded clauses, once per
// conflict and once per decision with stride 256, and
// the input-splitting verifier calls check_now() once per synchronous
// round (a round already amortizes over up to chunk_size boxes).
//
// The cause of the stop is sticky and typed: once should_stop() has
// returned true, cause() reports whether the deadline or the external
// flag fired, and the token keeps returning true.
#pragma once

#include <atomic>

#include "common/stopwatch.hpp"

namespace safenn {

/// Why a CancelToken told its engine to stop.
enum class StopCause {
  kNone,       // still running
  kDeadline,   // wall-clock limit hit
  kCancelled,  // external flag set (e.g. a portfolio peer decided)
};

inline const char* to_string(StopCause cause) {
  switch (cause) {
    case StopCause::kNone: return "none";
    case StopCause::kDeadline: return "deadline";
    case StopCause::kCancelled: return "cancelled";
  }
  return "?";
}

/// Amortized deadline + external-flag poll. One token per solve call (it
/// carries a mutable call counter); the external flag itself may be
/// shared by any number of tokens and writer threads.
class CancelToken {
 public:
  static constexpr long kDefaultStride = 16;

  /// Never stops: no deadline, no flag.
  CancelToken() : deadline_(0.0) {}

  /// `time_limit_seconds` <= 0 means no deadline; `cancel` may be null.
  explicit CancelToken(double time_limit_seconds,
                       const std::atomic<bool>* cancel = nullptr,
                       long stride = kDefaultStride)
      : deadline_(time_limit_seconds),
        cancel_(cancel),
        stride_(stride > 0 ? stride : 1) {}

  /// Amortized poll: checks the external flag on every call and the
  /// wall clock on call 1, stride+1, 2*stride+1, ... Returns true once
  /// either fires, and keeps returning true afterwards.
  bool should_stop() {
    if (cause_ != StopCause::kNone) return true;
    if (cancel_ && cancel_->load(std::memory_order_acquire)) {
      cause_ = StopCause::kCancelled;
      return true;
    }
    if (calls_++ % stride_ == 0 && !deadline_.unlimited() &&
        deadline_.expired()) {
      cause_ = StopCause::kDeadline;
      return true;
    }
    return false;
  }

  /// Unamortized poll for natural synchronization points (round
  /// boundaries), safe to call concurrently from reader threads. Does
  /// not latch the sticky cause — callers needing the cause recorded
  /// use should_stop() on the owning thread.
  bool check_now() const {
    if (cause_ != StopCause::kNone) return true;
    if (cancel_ && cancel_->load(std::memory_order_acquire)) return true;
    return !deadline_.unlimited() && deadline_.expired();
  }

  /// Latch the sticky cause from an unamortized check (owning thread).
  bool stop_now() {
    if (cause_ != StopCause::kNone) return true;
    if (cancel_ && cancel_->load(std::memory_order_acquire)) {
      cause_ = StopCause::kCancelled;
      return true;
    }
    if (!deadline_.unlimited() && deadline_.expired()) {
      cause_ = StopCause::kDeadline;
      return true;
    }
    return false;
  }

  StopCause cause() const { return cause_; }
  const Deadline& deadline() const { return deadline_; }

 private:
  Deadline deadline_;
  const std::atomic<bool>* cancel_ = nullptr;
  long stride_ = kDefaultStride;
  long calls_ = 0;
  StopCause cause_ = StopCause::kNone;
};

}  // namespace safenn
