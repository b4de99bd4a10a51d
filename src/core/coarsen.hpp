#pragma once

#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "dag/dag.hpp"

/// \file coarsen.hpp
/// Acyclicity-preserving DAG coarsening (paper §4): partitions the DAG into
/// *funnels* — a special case of *cascades* (Def. 4.2) — and quotients the
/// graph along the partition (Def. 4.1). Proposition 4.3 guarantees the
/// coarse graph is acyclic; we additionally exploit that a partition found
/// on the transitively-reduced graph stays safe on the original: reduction
/// preserves the transitive closure, so every quotient edge of the original
/// graph is a shortcut of a coarse path that already exists in the reduced
/// quotient, and shortcuts of an acyclic reachability relation cannot close
/// a cycle.

namespace sts::core {

/// A partition of the vertex set with parts relabeled canonically by their
/// minimum member ID (so coarse vertex IDs inherit the original ordering's
/// locality, which GrowLocal's smallest-ID rule depends on).
struct Partition {
  index_t num_parts = 0;
  std::vector<index_t> part_of;       ///< part of each vertex
  std::vector<offset_t> part_ptr;     ///< boundaries into part_members
  std::vector<index_t> part_members;  ///< grouped by part, ascending inside

  std::span<const index_t> members(index_t part) const {
    return std::span<const index_t>(part_members)
        .subspan(static_cast<size_t>(part_ptr[static_cast<size_t>(part)]),
                 static_cast<size_t>(part_ptr[static_cast<size_t>(part) + 1] -
                                     part_ptr[static_cast<size_t>(part)]));
  }

  /// Canonicalizes an arbitrary part_of labeling (relabels by min member).
  static Partition fromPartOf(index_t n, std::span<const index_t> part_of);

  /// Every vertex in its own part.
  static Partition singletons(index_t n);
};

struct FunnelOptions {
  enum class Direction {
    kIn,   ///< in-funnels: at most one member has an outgoing cut edge
    kOut,  ///< out-funnels: at most one member has an incoming cut edge
  };
  Direction direction = Direction::kIn;

  /// Hard cap on part cardinality (the paper adds a size/weight constraint
  /// so a single-sink DAG does not collapse into one vertex).
  index_t max_part_size = 64;

  /// Hard cap on the summed weight of a part; 0 disables the cap.
  weight_t max_part_weight = 0;

  /// Remove "long edges in triangles" before searching for funnels (§4.2);
  /// larger components are found on the reduced graph.
  bool pre_transitive_reduction = true;

  /// Width of that reduction's OpenMP loop (the result does not depend on
  /// it). 0 means the width of the schedule being built: GrowLocalOptions::
  /// num_cores in funnelGrowLocalSchedule, HdaggOptions::num_cores in
  /// hdaggSchedule; funnelPartition on its own runs 0 as 1.
  int num_threads = 0;
};

/// Algorithm 4.1 (plus the out-funnel mirror): greedy funnel growth from
/// seeds in reverse topological order. O(|V| + |E|) after the optional
/// reduction pass.
Partition funnelPartition(const Dag& dag, const FunnelOptions& opts = {});

/// The coarsened graph G//P of Definition 4.1: part weights are summed,
/// parallel edges collapsed, self-loops dropped.
Dag coarsen(const Dag& dag, const Partition& partition);

/// Expands a schedule of coarsen(dag, partition) back to `dag`: every
/// member inherits its part's (core, superstep); within a coarse group,
/// parts expand in the coarse execution order and members execute in
/// (wavefront level, ID) order. The result is always a valid fine schedule.
Schedule pullBackSchedule(const Dag& fine_dag, const Partition& partition,
                          const Schedule& coarse_schedule);

/// Test/diagnostic helper: checks Definition 4.2 directly (walks evaluated
/// in the full graph). Quadratic in the part size; intended for tests.
bool isCascade(const Dag& dag, std::span<const index_t> members);

/// The paper's "Funnel+GL" configuration: coarsen along funnels, schedule
/// the coarse DAG with GrowLocal, pull the schedule back (§7.3).
Schedule funnelGrowLocalSchedule(const Dag& dag,
                                 const struct GrowLocalOptions& gl_opts,
                                 const FunnelOptions& funnel_opts = {});

}  // namespace sts::core
