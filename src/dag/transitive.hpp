#pragma once

#include <vector>

#include "dag/dag.hpp"

/// \file transitive.hpp
/// Approximate transitive reduction: the "remove all long edges in
/// triangles" pass of SpMP [PSSD14 §2.3], used by both the SpMP baseline
/// and the Funnel coarsener (§4.2) to expose larger funnels. Removing a
/// transitive edge never changes the precedence relation, so every schedule
/// valid for the reduced DAG is valid for the original.

namespace sts::dag {

struct TransitiveReductionOptions {
  /// Upper bound on parent-of-parent inspections; the pass stops early once
  /// exhausted (the paper notes early termination is sound). Negative means
  /// unbounded. The default caps worst-case O(sum deg^2) blowup on dense-ish
  /// random matrices.
  offset_t max_inspections = 200'000'000;
  /// Width of the pass's OpenMP loop over vertices (>= 1). The result is
  /// identical at every width: the budget is split by vertex in advance.
  int num_threads = 1;
};

struct TransitiveReductionResult {
  Dag dag;                 ///< same vertices/weights, redundant edges removed
  offset_t removed_edges;  ///< how many edges were dropped
  bool exhausted_budget;   ///< true if the inspection budget stopped the pass
};

/// Removes every edge (u, v) for which a length-2 path u -> w -> v exists
/// (checked exactly; only such edges are removed, so reachability is
/// preserved). Runs in O(sum_w deg-(w) * deg+(w)) inspections, spread over
/// `opts.num_threads` threads. The budget is spent as by one pass over
/// v = 0, 1, ...: vertex v inspects the parents of each of its parents in
/// order, the vertex whose inspections cross the budget gets only what is
/// left, and every later vertex keeps all of its edges. So the kept edges,
/// `removed_edges` and `exhausted_budget` do not depend on the width.
TransitiveReductionResult approximateTransitiveReduction(
    const Dag& dag, const TransitiveReductionOptions& opts = {});

/// Exact reachability u ->* v by BFS; O(E). Test helper for reduction
/// soundness on small graphs.
bool isReachable(const Dag& dag, index_t from, index_t to);

}  // namespace sts::dag
