#include "exec/peer_waits.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "check/check.hpp"

namespace sts::exec::detail {

namespace {

/// Calls fn(row) for thread t's superstep-s rows of a row-list plan, in
/// order, until fn returns false.
template <typename Fn>
void forRows(const FoldedLists& plan, std::size_t t, std::size_t s, Fn&& fn) {
  const auto& ptr = plan.step_ptr[t];
  for (auto k = static_cast<std::size_t>(ptr[s]);
       k < static_cast<std::size_t>(ptr[s + 1]); ++k) {
    if (!fn(plan.verts[t][k])) return;
  }
}

/// Same, for a row-range plan.
template <typename Fn>
void forRows(const FoldedRanges& plan, std::size_t t, std::size_t s,
             Fn&& fn) {
  const auto& ptr = plan.step_ptr[t];
  for (auto k = static_cast<std::size_t>(ptr[s]);
       k < static_cast<std::size_t>(ptr[s + 1]); ++k) {
    const auto [lo, hi] = plan.runs[t][k];
    for (sts::index_t i = lo; i < hi; ++i) {
      if (!fn(i)) return;
    }
  }
}

[[noreturn]] void throwUnorderedRead(sts::index_t row, sts::index_t step,
                                     sts::index_t parent,
                                     sts::index_t parent_step) {
  throw std::invalid_argument(
      "buildPeerWaits: row " + std::to_string(row) + " (superstep " +
      std::to_string(step) + ") reads row " + std::to_string(parent) +
      " of another thread in superstep " + std::to_string(parent_step));
}

/// Where a row runs under the plan.
struct Slot {
  int thread = 0;
  sts::index_t step = 0;
};

template <typename Plan>
PeerWaits peerWaitsOf(const sparse::CsrMatrix& lower, const Plan& plan) {
  const std::size_t team = plan.step_ptr.size();
  const std::size_t steps = team == 0 ? 0 : plan.step_ptr[0].size() - 1;
  std::vector<Slot> slot(static_cast<std::size_t>(lower.rows()));
  for (std::size_t t = 0; t < team; ++t) {
    for (std::size_t s = 0; s < steps; ++s) {
      forRows(plan, t, s, [&](sts::index_t i) {
        slot[static_cast<std::size_t>(i)] = {static_cast<int>(t),
                                             static_cast<sts::index_t>(s)};
        return true;
      });
    }
  }

  const auto row_ptr = lower.rowPtr();
  const auto col_idx = lower.colIdx();
  const auto peers = static_cast<int>(team) - 1;
  PeerWaits out;
  out.waits.resize(team);
  out.step_ptr.resize(team);
  // newest[u]: the newest superstep of u thread t waits on so far (-1:
  // none); listed_at[u]: the last superstep that listed a wait on u.
  std::vector<sts::index_t> newest(team);
  std::vector<sts::index_t> listed_at(team);
  std::vector<int> listed;
  for (std::size_t t = 0; t < team; ++t) {
    const int self = static_cast<int>(t);
    std::fill(newest.begin(), newest.end(), -1);
    std::fill(listed_at.begin(), listed_at.end(), -1);
    auto& waits = out.waits[t];
    auto& ptr = out.step_ptr[t];
    ptr.reserve(steps + 1);
    ptr.push_back(0);
    for (std::size_t s = 0; s < steps; ++s) {
      const auto step = static_cast<sts::index_t>(s);
      // Peers already waited on up to superstep s - 1, the newest a
      // cross-thread parent can sit in. Once every peer is, the rest of
      // the superstep's rows add no wait and are skipped.
      int saturated = 0;
      listed.clear();
      forRows(plan, t, s, [&](sts::index_t i) {
        const auto row = static_cast<std::size_t>(i);
        // The diagonal runs on this thread, so it drops out with the
        // same-thread parents.
        for (auto k = static_cast<std::size_t>(row_ptr[row]);
             k < static_cast<std::size_t>(row_ptr[row + 1]); ++k) {
          const Slot parent = slot[static_cast<std::size_t>(col_idx[k])];
          if (parent.thread == self) continue;
          const auto u = static_cast<std::size_t>(parent.thread);
          if (parent.step <= newest[u]) continue;
          if (parent.step >= step) {
            throwUnorderedRead(i, step, col_idx[k], parent.step);
          }
          if (listed_at[u] != step) {
            listed_at[u] = step;
            listed.push_back(parent.thread);
          }
          newest[u] = parent.step;
          if (parent.step == step - 1) ++saturated;
        }
        return saturated < peers;
      });
      for (const int u : listed) {
        waits.push_back({u, newest[static_cast<std::size_t>(u)]});
      }
      ptr.push_back(static_cast<sts::offset_t>(waits.size()));
    }
  }
  return out;
}

}  // namespace

PeerWaits buildPeerWaits(const sparse::CsrMatrix& lower,
                         const FoldedLists& plan) {
  PeerWaits waits = peerWaitsOf(lower, plan);
#if STS_CHECKS
  check::enforce(check::validatePeerWaits(lower, plan, waits),
                 "buildPeerWaits");
#endif
  return waits;
}

PeerWaits buildPeerWaits(const sparse::CsrMatrix& lower,
                         const FoldedRanges& plan) {
  PeerWaits waits = peerWaitsOf(lower, plan);
#if STS_CHECKS
  check::enforce(check::validatePeerWaits(lower, rowLists(plan), waits),
                 "buildPeerWaits");
#endif
  return waits;
}

}  // namespace sts::exec::detail
