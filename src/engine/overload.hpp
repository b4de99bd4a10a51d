#pragma once

#include <atomic>

#include "base/sync.hpp"

/// \file overload.hpp
/// Overload admission control (docs/ROBUSTNESS.md).
///
/// The controller watches one scalar — the estimated queue delay, fed by
/// the engine from queue depth x the registry's batch-latency histogram
/// and the oldest queued wait — and keeps one bit of state: whether new
/// throughput-class submissions are refused.
///
///   admitting   every submission queues
///   rejecting   throughput-class submissions resolve with
///               EngineError{kRejected}; latency-class work still queues
///
/// Pressure = est_delay / target_delay. The controller starts rejecting
/// at pressure >= 1 and readmits only once pressure falls to 1 - h, the
/// hysteresis band — the same dither-proofing asymmetry as the SLO
/// controller's deadband (engine::sloStep). Every admitted batch runs the
/// exact executors, so shedding load never changes a served result.

namespace sts::engine {

/// One admission decision, pure and unit-testable (the overload analogue
/// of engine::sloStep): given the current pressure (est_delay / target),
/// the hysteresis band and whether throughput work is currently refused,
/// return whether it is refused after this step. Monotone in pressure for
/// either current state.
bool overloadStep(double pressure, double hysteresis, bool rejecting);

/// Thread-safe admission state around overloadStep. update() is called
/// from the submit path and from batch completions; rejecting() is a
/// lock-free read for per-submit decisions.
class OverloadController {
 public:
  /// `target_delay` > 0 seconds; `hysteresis` in [0, 1] of the target.
  OverloadController(double target_delay, double hysteresis)
      : target_delay_(target_delay), hysteresis_(hysteresis) {}

  /// Feed a fresh queue-delay estimate; returns {previous, next} state so
  /// the caller can account the transition (trace instant + counter).
  struct Step {
    bool from = false;
    bool to = false;
    bool moved() const { return from != to; }
  };
  Step update(double est_delay_seconds) {
    // Serialized so each transition is reported exactly once.
    base::MutexLock lock(mu_);
    const bool current = rejecting_.load(std::memory_order_relaxed);
    const bool next = overloadStep(est_delay_seconds / target_delay_,
                                   hysteresis_, current);
    rejecting_.store(next, std::memory_order_relaxed);
    return {current, next};
  }

  /// Whether throughput-class submissions are refused (lock-free).
  bool rejecting() const { return rejecting_.load(std::memory_order_relaxed); }

 private:
  const double target_delay_;
  const double hysteresis_;
  /// update() serializer; the state itself stays an atomic so readers
  /// never take the lock.
  base::Mutex mu_;
  std::atomic<bool> rejecting_{false};
};

}  // namespace sts::engine
