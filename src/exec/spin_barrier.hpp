#pragma once

#include <atomic>
#include <thread>

/// \file spin_barrier.hpp
/// Sense-reversing spin barrier. `omp barrier` costs multiple microseconds
/// per crossing on small machines, which dominates SpTRSV solves at the
/// scale of this repository (the paper's hosts amortize the same cost over
/// 10-100x larger matrices). A spinning barrier crosses in ~100-300ns on a
/// 2-core host; a yield fallback keeps oversubscribed runs from starving.

namespace sts::exec {

/// Spins until `ready()` holds, yielding the CPU every 4096 spins. The one
/// wait policy of every solve-path wait (the barrier below and the P2P
/// walker's dependency flags): a waiter whose producer was descheduled —
/// an oversubscribed team, or a team pinned onto fewer CPUs than it has
/// members — hands the CPU back instead of burning the producer's slice.
template <typename ReadyFn>
inline void spinUntil(ReadyFn&& ready) {
  int spins = 0;
  while (!ready()) {
    if (++spins >= 4096) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

class SpinBarrier {
 public:
  explicit SpinBarrier(int num_threads) : num_threads_(num_threads) {}

  /// The caller-thread's view of the current phase; initialize with
  /// initialSense() once per parallel region, then pass to every wait().
  int initialSense() const { return sense_.load(std::memory_order_relaxed); }

  /// Blocks until all num_threads threads arrive. Establishes
  /// happens-before between all pre-wait writes and all post-wait reads
  /// (the arrival counter is a single RMW chain released into `sense_`).
  void wait(int& local_sense) { wait(local_sense, num_threads_); }

  /// Same, for a team of `num_arrivals` <= the construction count. Elastic
  /// solves pass their per-solve team size; the construction count is only
  /// a capacity. All waiters of one phase must pass the same count, which
  /// the one-solve-per-context contract guarantees.
  void wait(int& local_sense, int num_arrivals) {
    const int next = 1 - local_sense;
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) ==
        num_arrivals - 1) {
      arrived_.store(0, std::memory_order_relaxed);
      sense_.store(next, std::memory_order_release);
    } else {
      spinUntil(
          [&] { return sense_.load(std::memory_order_acquire) == next; });
    }
    local_sense = next;
  }

 private:
  int num_threads_;
  std::atomic<int> arrived_{0};
  std::atomic<int> sense_{0};
};

}  // namespace sts::exec
