#pragma once

#include <vector>

#include "exec/elastic.hpp"
#include "sparse/csr.hpp"
#include "sparse/types.hpp"

/// \file peer_waits.hpp
/// The synchronization plan of the superstep walk. A superstep schedule
/// only needs thread t to see, before its superstep-s rows, the rows of
/// the peers it reads from; a team barrier makes it wait for every peer.
/// A peer-wait plan lists, per (thread t, superstep s), exactly the
/// (peer u, superstep r) pairs t must observe: "u has finished its
/// superstep r". The walk enforces a pair by spinning on u's progress word
/// (SolveContext), which u release-stores after each of its supersteps.
///
/// The pairs come from the CSR parents of t's rows: a superstep-s row of t
/// with a parent on thread u != t in superstep r needs (u, r). A pair is
/// listed only if r is newer than the last superstep t already waited on
/// for u — progress words are monotone, so an older pair is implied.
/// A plan belongs to one row plan (FoldedLists or FoldedRanges of one team
/// size and fold policy) and is cached beside it.

namespace sts::exec::detail {

/// One wait: block until thread `peer` has finished superstep `step`.
struct PeerWait {
  int peer = 0;
  sts::index_t step = 0;
};

/// Thread t waits on waits[t][step_ptr[t][s] .. step_ptr[t][s + 1])
/// before its superstep-s rows. Every listed step is < s: a cross-thread
/// parent always sits in an earlier superstep, which is what makes the
/// waits deadlock-free.
struct PeerWaits {
  std::vector<std::vector<PeerWait>> waits;
  std::vector<std::vector<sts::offset_t>> step_ptr;
};

/// The peer waits of a row-list plan over `lower`, in O(rows) plus one
/// pass over the parents of each (thread, superstep)'s rows that stops
/// once every peer is covered up to the previous superstep. Throws
/// std::invalid_argument on a scanned row whose parent runs on another
/// thread in the same or a later superstep: the plan is then not a valid
/// schedule of `lower`, and waiting on it could deadlock. (This guards the
/// waits; core::validateSchedule is the schedule validator.)
PeerWaits buildPeerWaits(const sparse::CsrMatrix& lower,
                         const FoldedLists& plan);
/// Same, for a row-range plan.
PeerWaits buildPeerWaits(const sparse::CsrMatrix& lower,
                         const FoldedRanges& plan);

}  // namespace sts::exec::detail
