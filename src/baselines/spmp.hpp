#pragma once

#include <optional>

#include "core/schedule.hpp"
#include "dag/dag.hpp"
#include "dag/transitive.hpp"

/// \file spmp.hpp
/// Reimplementation of the SpMP scheduler [PSSD14]: level sets with a
/// weight-balanced contiguous partition of each level across cores. Each
/// (level, core) chunk is one task. SpMP executes *asynchronously*: a task
/// waits point-to-point only on the producer tasks it reads from, so a
/// core may run ahead into the next level as soon as those are done. The
/// superstep walk's peer waits (exec/peer_waits.hpp) are exactly these
/// task waits, so TriangularSolver runs the level schedule on BspExecutor.
///
/// The optional approximate transitive reduction ("remove long edges in
/// triangles") sparsifies the row DAG. No executor reads it: the peer
/// waits already keep at most one wait per (peer thread, level) and drop
/// every wait an earlier one implies. It stays for the benches that time
/// analysis layers.
///
/// Divergence note (DESIGN.md §4): the original SpMP library adds x86
/// intrinsics and NUMA-aware data placement; those are out of scope here
/// (the paper itself omits SpMP on ARM because the implementation is
/// x86-specific).

namespace sts::baselines {

using core::Schedule;
using dag::Dag;
using sts::index_t;

struct SpmpOptions {
  int num_cores = 2;
  /// Apply the "remove long edges in triangles" pass [PSSD14 §2.3].
  bool transitive_reduction = true;
  /// The pass's budget; it runs num_cores wide (`reduction.num_threads` is
  /// overridden).
  dag::TransitiveReductionOptions reduction = {};
};

struct SpmpResult {
  /// Level-set schedule (one superstep per wavefront).
  Schedule schedule;
  /// DAG after transitive reduction; empty when the reduction is off.
  std::optional<Dag> reduced_dag;
  sts::offset_t removed_edges = 0;
};

SpmpResult spmpSchedule(const Dag& dag, const SpmpOptions& opts = {});

}  // namespace sts::baselines
