#include "exec/affinity.hpp"

#if STS_HAS_AFFINITY
#include <unistd.h>
#endif

namespace sts::exec {

#if STS_HAS_AFFINITY

bool affinitySupported() { return true; }

namespace {

std::vector<int> maskToIds(const cpu_set_t& mask) {
  std::vector<int> ids;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) ids.push_back(cpu);
  }
  return ids;
}

}  // namespace

std::vector<int> systemCoreSet() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(getpid(), sizeof(mask), &mask) != 0) return {};
  return maskToIds(mask);
}

std::vector<int> threadAffinity() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask) != 0) {
    return {};
  }
  return maskToIds(mask);
}

int currentCpu() { return sched_getcpu(); }

ScopedPin::ScopedPin(std::span<const int> cores, int rank) {
  if (cores.empty() || rank < 0) return;
  const int target =
      cores[static_cast<std::size_t>(rank) % cores.size()];
  if (target < 0 || target >= CPU_SETSIZE) return;

  // Migration check before the pin: was the OS running this thread off the
  // leased set entirely? (Being on another core OF the set is load-balance
  // churn, not the cross-batch trampling the counter tracks.)
  const int now = sched_getcpu();
  if (now >= 0) {
    bool in_set = false;
    for (const int cpu : cores) in_set = in_set || (cpu == now);
    migrated_ = !in_set;
  }

  have_previous_ =
      pthread_getaffinity_np(pthread_self(), sizeof(previous_), &previous_) ==
      0;
  if (!have_previous_) {
    // Without the previous mask the destructor could not undo the pin,
    // and a persistent OpenMP pool thread would stay bound to one core
    // for every later (unpinned) solve. Refuse to pin instead.
    migrated_ = false;
    return;
  }
  cpu_set_t pin;
  CPU_ZERO(&pin);
  CPU_SET(target, &pin);
  if (pthread_setaffinity_np(pthread_self(), sizeof(pin), &pin) == 0) {
    pinned_ = true;
    cpu_ = target;
  } else {
    migrated_ = false;  // unpinned threads report nothing
  }
}

ScopedPin::~ScopedPin() {
  if (pinned_ && have_previous_) {
    pthread_setaffinity_np(pthread_self(), sizeof(previous_), &previous_);
  }
}

#else  // !STS_HAS_AFFINITY — the portable no-op fallback.

bool affinitySupported() { return false; }

std::vector<int> systemCoreSet() { return {}; }

std::vector<int> threadAffinity() { return {}; }

int currentCpu() { return -1; }

ScopedPin::ScopedPin(std::span<const int> cores, int rank) {
  (void)cores;
  (void)rank;
}

ScopedPin::~ScopedPin() = default;

#endif

}  // namespace sts::exec
