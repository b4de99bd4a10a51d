#pragma once

#include <span>
#include <vector>

/// \file affinity.hpp
/// Thread-to-core placement for the solve path. The paper's schedules
/// assume each rank maps to a stable physical core; elastic serving broke
/// that assumption — folded teams are anonymous OpenMP threads the OS may
/// migrate across caches mid-burst. This header is the portable seam that
/// restores placement: query the logical CPUs the process may use, and pin
/// the calling thread to one of a leased core set for the duration of a
/// solve region (RAII, previous mask restored on exit).
///
/// Everything here degrades to a no-op when the platform lacks the Linux
/// affinity syscalls. The switch is `STS_HAS_AFFINITY`:
///   * auto-detected below (1 on Linux, 0 elsewhere) when the build does
///     not define it;
///   * forced off with `-DSTS_AFFINITY=OFF` at CMake configure time (which
///     compiles with STS_HAS_AFFINITY=0 — the portable-fallback CI job
///     keeps this path building).
/// Callers never need to guard: ScopedPin constructs as inactive, the
/// queries return empty/-1, and `affinitySupported()` reports which world
/// we are in so stats and benches can label their output.

#ifndef STS_HAS_AFFINITY
#if defined(__linux__)
#define STS_HAS_AFFINITY 1
#else
#define STS_HAS_AFFINITY 0
#endif
#endif

#if STS_HAS_AFFINITY
#include <pthread.h>
#include <sched.h>
#endif

namespace sts::exec {

/// True iff the build has real affinity syscalls (Linux with
/// STS_HAS_AFFINITY=1). When false every helper below is a documented
/// no-op: pins report unpinned, queries come back empty.
bool affinitySupported();

/// Logical CPU ids the process may run on, ascending: its main thread's
/// mask (sched_getaffinity(getpid())), i.e. the mask the process was
/// started with (e.g. by taskset). Linux answers sched_getaffinity(0) per
/// calling thread, so the pid is passed explicitly: a ScopedPin on any
/// other thread leaves this set unchanged, whichever thread asks. The
/// default core universe for engine::CoreBudget's core-set mode when
/// EngineOptions::core_set is not given, and the clamp of
/// TriangularSolver::defaultTeam(). Empty when unsupported.
std::vector<int> systemCoreSet();

/// Logical CPU ids the calling thread may run on, ascending
/// (pthread_getaffinity_np on pthread_self()): the mask ScopedPin sets.
/// Under a live ScopedPin it is the pinned CPU, narrower than
/// systemCoreSet() unless the pinned thread is the main one. Empty when
/// unsupported.
std::vector<int> threadAffinity();

/// Logical CPU the calling thread is executing on right now
/// (sched_getcpu), or -1 when unsupported.
int currentCpu();

/// Pins the calling thread to one CPU of a leased core set for the
/// lifetime of the object, restoring the thread's previous affinity mask
/// on destruction. Built for the superstep walk's OpenMP region: team member
/// `rank` pins itself to `cores[rank % cores.size()]`, so a team no wider
/// than its lease gets one stable core per member and a (deliberately)
/// oversubscribed team wraps around. Inactive — all queries false — when
/// `cores` is empty or affinity is unsupported; pin failures (EPERM,
/// offline CPU) are reported, not thrown, because a solve must never fail
/// over placement.
class ScopedPin {
 public:
  ScopedPin(std::span<const int> cores, int rank);
  ~ScopedPin();

  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

  /// The thread is now bound to its target core.
  bool pinned() const { return pinned_; }
  /// The thread was executing OUTSIDE the leased set when the pin was
  /// taken — the OS had migrated it off the cores this batch leased (the
  /// cache-locality loss the pin exists to stop). Only meaningful when
  /// pinned().
  bool migrated() const { return migrated_; }
  /// The CPU this thread was bound to (-1 when inactive).
  int cpu() const { return cpu_; }

 private:
  bool pinned_ = false;
  bool migrated_ = false;
  int cpu_ = -1;
#if STS_HAS_AFFINITY
  cpu_set_t previous_{};
  bool have_previous_ = false;
#endif
};

}  // namespace sts::exec
