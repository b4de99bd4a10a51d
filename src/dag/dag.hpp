#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/types.hpp"

/// \file dag.hpp
/// The scheduling-problem representation (paper §2.2): a vertex-weighted
/// directed acyclic graph. For a lower triangular matrix L, vertex i is row
/// i, and there is an edge (j, i) iff L(i, j) != 0 with j < i. The weight
/// of vertex i is the number of stored entries in row i (the work of the
/// substitution step for x_i).

namespace sts::dag {

using sts::index_t;
using sts::offset_t;

/// Vertex work; sums of weights (superstep loads) use the same type.
using weight_t = std::int64_t;

/// Directed edge (parent, child).
using Edge = std::pair<index_t, index_t>;

/// Immutable DAG with both adjacency directions and per-vertex weights.
/// Neighbor lists are sorted ascending. Vertices are 0..n-1; edges may go in
/// any ID direction (coarse graphs are not ID-topological), except where a
/// function documents otherwise.
class Dag {
 public:
  Dag() = default;

  /// Builds from an edge list; duplicate edges are collapsed, self-loops
  /// rejected. `weights` must be empty (all 1) or size n; weights must be
  /// positive. Does NOT check acyclicity — call isAcyclic() when needed.
  /// No global edge sort: edges are bucketed by child, then each parent
  /// list is sorted and deduplicated on its own.
  static Dag fromEdges(index_t n, std::span<const Edge> edges,
                       std::span<const weight_t> weights = {});

  /// Builds from parent lists in CSR form: the parents of v are
  /// in_adj[in_ptr[v] .. in_ptr[v + 1]), strictly ascending, in range and
  /// never v itself (std::invalid_argument otherwise). `weights` as in
  /// fromEdges. The child lists are the counting transpose, so the build
  /// is O(n + E) with no sort.
  static Dag fromParents(index_t n, std::vector<offset_t> in_ptr,
                         std::vector<index_t> in_adj,
                         std::vector<weight_t> weights = {});

  /// The forward-substitution DAG of a lower triangular matrix (Fig. 1.1).
  /// Weight of vertex i = max(1, nnz(row i)).
  static Dag fromLowerTriangular(const sparse::CsrMatrix& lower);

  /// Same construction for an upper triangular matrix (backward
  /// substitution): edge (j, i) iff U(i, j) != 0 with j > i. Runs on the
  /// reverse row order, so vertex k of the DAG is row n-1-k of U; callers
  /// that need the row mapping use `n-1-k`.
  static Dag fromUpperTriangular(const sparse::CsrMatrix& upper);

  index_t numVertices() const { return n_; }
  offset_t numEdges() const { return static_cast<offset_t>(out_adj_.size()); }

  std::span<const index_t> children(index_t v) const {
    return span(out_ptr_, out_adj_, v);
  }
  std::span<const index_t> parents(index_t v) const {
    return span(in_ptr_, in_adj_, v);
  }
  index_t outDegree(index_t v) const {
    return static_cast<index_t>(children(v).size());
  }
  index_t inDegree(index_t v) const {
    return static_cast<index_t>(parents(v).size());
  }
  weight_t weight(index_t v) const { return weight_[static_cast<size_t>(v)]; }
  std::span<const weight_t> weights() const { return weight_; }
  weight_t totalWeight() const { return total_weight_; }

  bool hasEdge(index_t parent, index_t child) const;

  /// Vertices with no parents / no children.
  std::vector<index_t> sources() const;
  std::vector<index_t> sinks() const;

  /// Kahn's algorithm; true iff a complete topological order exists.
  bool isAcyclic() const;

  /// The same vertices and weights with every edge reversed (children
  /// become parents); O(n + E), no rebuild.
  Dag reversed() const;

  /// Sub-DAG induced on the contiguous vertex range [lo, hi): keeps edges
  /// with both endpoints inside; vertex v maps to v - lo; weights preserved
  /// (block scheduling keeps full-row weights, §3.1).
  Dag rangeSubgraph(index_t lo, index_t hi) const;

  /// Structural invariants: mirrored adjacency, sorted lists, positive
  /// weights. Throws std::logic_error on violation.
  void validate() const;

  /// All edges as (parent, child) pairs, sorted by parent then child.
  std::vector<Edge> edgeList() const;

 private:
  /// fromParents without the input checks, for parent lists and n
  /// weights that are valid by construction.
  static Dag assemble(index_t n, std::vector<offset_t> in_ptr,
                      std::vector<index_t> in_adj,
                      std::vector<weight_t> weights);

  static std::span<const index_t> span(const std::vector<offset_t>& ptr,
                                       const std::vector<index_t>& adj,
                                       index_t v) {
    return std::span<const index_t>(adj).subspan(
        static_cast<size_t>(ptr[static_cast<size_t>(v)]),
        static_cast<size_t>(ptr[static_cast<size_t>(v) + 1] -
                            ptr[static_cast<size_t>(v)]));
  }

  index_t n_ = 0;
  std::vector<offset_t> out_ptr_ = {0};
  std::vector<index_t> out_adj_;
  std::vector<offset_t> in_ptr_ = {0};
  std::vector<index_t> in_adj_;
  std::vector<weight_t> weight_;
  weight_t total_weight_ = 0;
};

}  // namespace sts::dag
