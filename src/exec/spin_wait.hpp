#pragma once

#include <thread>

/// \file spin_wait.hpp
/// The one wait policy of every solve-path wait: the superstep walk's peer
/// progress waits. Blocking primitives
/// (`omp barrier`, futexes) cost multiple microseconds per wake on small
/// machines, which dominates SpTRSV solves at the scale of this repository;
/// a spinning waiter sees its producer's store one cache-line transfer
/// later.

namespace sts::exec {

/// Spins until `ready()` holds, yielding the CPU every 4096 spins: a waiter
/// whose producer was descheduled — an oversubscribed team, or a team
/// pinned onto fewer CPUs than it has members — hands the CPU back instead
/// of burning the producer's slice. The first `ready()` call is the
/// already-resolved fast path.
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

}  // namespace sts::exec
