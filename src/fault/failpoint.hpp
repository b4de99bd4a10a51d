#pragma once

#include <atomic>
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "base/sync.hpp"

/// \file failpoint.hpp
/// Named, deterministic fault-injection points for the serving and
/// executor paths — the harness that PROVES the overload-resilience
/// contracts (docs/ROBUSTNESS.md) instead of asserting them: latency
/// spikes in worker loops, stalled supersteps, allocation failure in
/// tile builds, queue stalls.
///
/// ## Compile-away contract (same pattern as STS_TRACING / STS_CHECKS)
///
/// The LIBRARY (registry, spec parser, Failpoint state) always compiles,
/// so tests and benches can link against it in every configuration. Only
/// the CALL SITES — the `STS_FAILPOINT` / `STS_FAILPOINT_RANK` macros
/// sprinkled through engine/ and exec/ — are conditional: under the
/// default `-DSTS_FAULTS=OFF` they expand to empty statements and the
/// solve paths build bit-identical to a tree without this file. Under
/// `-DSTS_FAULTS=ON` an idle (unarmed) failpoint costs one relaxed atomic
/// load and a predictable branch — the price the CI overhead gate bounds
/// at <= 2% on the engine throughput row.
///
/// ## Determinism contract
///
/// Whether a given arrival FIRES is a pure function of (seed, point name,
/// thread rank, per-rank arrival index): a splitmix64 hash of the four,
/// compared against the configured probability. No wall clock, no global
/// RNG — re-running the same build with the same spec and seed replays
/// the exact same fault schedule per thread rank, which is what makes
/// fault-run failures debuggable instead of heisenbugs.
///
/// ## Activation
///
/// Programmatic:  fault::FailpointRegistry::global().configure(spec);
/// Environment:   STS_FAULT_SPEC="<spec>" [STS_FAULT_SEED=<u64>], applied
///                by configureFromEnv() (benches call it at startup).
///
/// Spec grammar, semicolon-separated clauses:
///
///   point=action[(value)][,p=<prob>][,rank=<r>][,limit=<n>]
///
///   actions:  delay(us)   sleep `value` microseconds when fired
///             stall(ms)   sleep `value` milliseconds (a "stuck" step)
///             fail        throw fault::InjectedFault (std::runtime_error)
///             badalloc    throw std::bad_alloc
///   p:        firing probability per arrival (default 1.0)
///   rank:     only arrivals with this thread rank may fire (default: any)
///   limit:    at most `n` fires, then the point disarms itself
///
/// e.g. STS_FAULT_SPEC="exec.superstep=delay(200),p=0.05;engine.worker_pop=stall(50),rank=1,limit=3"
///
/// Throwing actions (`fail`, `badalloc`) are only safe at serial call
/// sites (engine worker loop, tile builds) — an exception escaping an
/// OpenMP region terminates — so the executor-region hooks should only be
/// given `delay`/`stall` specs. The point catalog lives in
/// docs/ROBUSTNESS.md.

#ifndef STS_FAULTS
#define STS_FAULTS 0
#endif

namespace sts::fault {

/// Thrown by `fail`-action failpoints. Derives from std::runtime_error so
/// the engine's existing batch-failure path (promises resolved with the
/// exception) absorbs injected failures like real ones.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& point)
      : std::runtime_error("injected fault at failpoint '" + point + "'") {}
};

enum class FaultAction : std::uint8_t {
  kDelay,     ///< sleep value microseconds
  kStall,     ///< sleep value milliseconds
  kFail,      ///< throw InjectedFault
  kBadAlloc,  ///< throw std::bad_alloc
};

/// One named fault-injection point. Registered lazily by its first macro
/// hit or by configure(); the object is never destroyed while the process
/// serves (registry-owned), so macro call sites may cache a reference in
/// a function-local static.
class Failpoint {
 public:
  /// Ranks tracked with independent per-rank arrival counters; arrivals
  /// from wider teams fold into the last slot (still deterministic, just
  /// shared between the overflow ranks).
  static constexpr int kMaxRanks = 64;

  explicit Failpoint(std::string name) : name_(std::move(name)) {}

  Failpoint(const Failpoint&) = delete;
  Failpoint& operator=(const Failpoint&) = delete;

  /// The macro fast path: one relaxed load. True only while a spec clause
  /// targets this point.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// The macro slow path (armed points only): count the arrival, decide
  /// deterministically, perform the configured action. May throw
  /// (kFail/kBadAlloc) — call only where an exception is survivable.
  void fire(int rank);

  /// Arm with a parsed clause. Resets the arrival/trigger counters so a
  /// re-configure starts a fresh deterministic schedule.
  void arm(FaultAction action, std::uint64_t value, double probability,
           int rank_filter, std::uint64_t limit, std::uint64_t seed);
  /// Disarm and clear counters.
  void disarm();

  const std::string& name() const { return name_; }
  /// Total arrivals while armed (all ranks).
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  /// Arrivals that actually performed the action.
  std::uint64_t triggers() const {
    return triggers_.load(std::memory_order_relaxed);
  }

 private:
  const std::string name_;
  std::atomic<bool> armed_{false};

  /// Configuration; written by arm()/disarm() under the registry mutex,
  /// read by fire() after observing armed_. Plain members are safe here
  /// because arm() publishes them with the armed_ release store and tests
  /// never reconfigure concurrently with traffic (the documented usage).
  FaultAction action_ = FaultAction::kDelay;
  std::uint64_t value_ = 0;
  double probability_ = 1.0;
  int rank_filter_ = -1;  ///< -1 = any rank
  std::uint64_t limit_ = 0;  ///< 0 = unlimited
  std::uint64_t seed_ = 0;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> triggers_{0};
  /// Per-rank arrival indices — the deterministic coordinate.
  std::array<std::atomic<std::uint64_t>, kMaxRanks> rank_hits_{};
};

/// Name -> Failpoint map. failpoint() is idempotent get-or-create with
/// pointer-stable results (macro sites cache the reference). configure()
/// parses a spec string and arms the named points; reset() disarms all.
class FailpointRegistry {
 public:
  /// Process-wide registry (leaked singleton, safe at exit).
  static FailpointRegistry& global();

  /// Get-or-create; the returned reference lives as long as the process.
  Failpoint& failpoint(const std::string& name);

  /// Parse and apply a spec (grammar above). Throws std::invalid_argument
  /// on malformed input, leaving previously armed points untouched.
  /// `seed` feeds every clause's deterministic trigger hash.
  void configure(const std::string& spec, std::uint64_t seed = 0);

  /// configure(STS_FAULT_SPEC, STS_FAULT_SEED) when the spec variable is
  /// set and non-empty; returns true iff something was armed.
  bool configureFromEnv();

  /// Disarm every point (counters cleared). Registration survives.
  void reset();

  /// Diagnostic counters of a point, zero when it was never created.
  std::uint64_t hits(const std::string& name) const;
  std::uint64_t triggers(const std::string& name) const;

 private:
  mutable base::Mutex mu_;
  /// std::map: pointer-stable values via unique_ptr, stable iteration for
  /// reset(); mirrors obs::Registry.
  std::map<std::string, std::unique_ptr<Failpoint>> points_
      STS_GUARDED_BY(mu_);
};

/// splitmix64 — the deterministic trigger hash (public so tests can
/// replay the schedule decision for decision).
std::uint64_t splitmix64(std::uint64_t x);

/// The trigger decision fire() makes, as a pure function: does arrival
/// `hit_index` of `rank` at the point named `name` fire under
/// (seed, probability)? Exposed for the determinism tests.
bool wouldTrigger(std::uint64_t seed, const std::string& name, int rank,
                  std::uint64_t hit_index, double probability);

}  // namespace sts::fault

// ------------------------------------------------------------------------
// Call-site macros. Under -DSTS_FAULTS=OFF (default) they expand to empty
// statements — the solve paths build bit-identical to a failpoint-free
// tree. `point` must be a string literal; `rank` is the executor thread
// rank (0 at serial sites), evaluated only under STS_FAULTS=ON.
#if STS_FAULTS
#define STS_FAILPOINT_RANK(point, rank)                               \
  do {                                                                \
    static ::sts::fault::Failpoint& sts_failpoint_ref =               \
        ::sts::fault::FailpointRegistry::global().failpoint(point);   \
    if (sts_failpoint_ref.armed()) {                                  \
      sts_failpoint_ref.fire(static_cast<int>(rank));                 \
    }                                                                 \
  } while (0)
#else
#define STS_FAILPOINT_RANK(point, rank) \
  do {                                  \
  } while (0)
#endif
/// Serial-site shorthand (rank 0).
#define STS_FAILPOINT(point) STS_FAILPOINT_RANK(point, 0)
