#include "dag/dag.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace sts::dag {

namespace {

/// `weights`, or all ones when it is empty; throws unless that makes n
/// positive weights.
std::vector<weight_t> checkedWeights(index_t n, std::vector<weight_t> weights,
                                     const char* who) {
  if (weights.empty()) {
    weights.assign(static_cast<size_t>(n), 1);
  } else if (static_cast<index_t>(weights.size()) != n) {
    throw std::invalid_argument(std::string(who) + ": weights size mismatch");
  }
  for (const weight_t w : weights) {
    if (w <= 0) throw std::invalid_argument(std::string(who) + ": weight <= 0");
  }
  return weights;
}

}  // namespace

Dag Dag::assemble(index_t n, std::vector<offset_t> in_ptr,
                  std::vector<index_t> in_adj, std::vector<weight_t> weights) {
  Dag d;
  d.n_ = n;
  d.weight_ = std::move(weights);
  d.total_weight_ =
      std::accumulate(d.weight_.begin(), d.weight_.end(), weight_t{0});
  d.in_ptr_ = std::move(in_ptr);
  d.in_adj_ = std::move(in_adj);
  // Children = transpose of parents; filling in increasing child order keeps
  // each child list sorted.
  d.out_ptr_.assign(static_cast<size_t>(n) + 1, 0);
  for (const index_t j : d.in_adj_) ++d.out_ptr_[static_cast<size_t>(j) + 1];
  std::partial_sum(d.out_ptr_.begin(), d.out_ptr_.end(), d.out_ptr_.begin());
  d.out_adj_.resize(d.in_adj_.size());
  std::vector<offset_t> cursor(d.out_ptr_.begin(), d.out_ptr_.end() - 1);
  for (index_t i = 0; i < n; ++i) {
    for (offset_t k = d.in_ptr_[static_cast<size_t>(i)];
         k < d.in_ptr_[static_cast<size_t>(i) + 1]; ++k) {
      const auto j = static_cast<size_t>(d.in_adj_[static_cast<size_t>(k)]);
      d.out_adj_[static_cast<size_t>(cursor[j]++)] = i;
    }
  }
  return d;
}

Dag Dag::fromParents(index_t n, std::vector<offset_t> in_ptr,
                     std::vector<index_t> in_adj,
                     std::vector<weight_t> weights) {
  if (n < 0) throw std::invalid_argument("Dag::fromParents: negative n");
  if (in_ptr.size() != static_cast<size_t>(n) + 1 || in_ptr.front() != 0 ||
      in_ptr.back() != static_cast<offset_t>(in_adj.size())) {
    throw std::invalid_argument("Dag::fromParents: bad in_ptr");
  }
  for (index_t v = 0; v < n; ++v) {
    const offset_t lo = in_ptr[static_cast<size_t>(v)];
    const offset_t hi = in_ptr[static_cast<size_t>(v) + 1];
    if (hi < lo) throw std::invalid_argument("Dag::fromParents: bad in_ptr");
    for (offset_t k = lo; k < hi; ++k) {
      const index_t u = in_adj[static_cast<size_t>(k)];
      if (u < 0 || u >= n) {
        throw std::invalid_argument("Dag::fromParents: parent out of range");
      }
      if (u == v) throw std::invalid_argument("Dag::fromParents: self-loop");
      if (k > lo && u <= in_adj[static_cast<size_t>(k) - 1]) {
        throw std::invalid_argument(
            "Dag::fromParents: parents not strictly ascending");
      }
    }
  }
  return assemble(n, std::move(in_ptr), std::move(in_adj),
                  checkedWeights(n, std::move(weights), "Dag::fromParents"));
}

Dag Dag::fromEdges(index_t n, std::span<const Edge> edges,
                   std::span<const weight_t> weights) {
  if (n < 0) throw std::invalid_argument("Dag::fromEdges: negative n");
  for (const auto& [u, v] : edges) {
    if (u < 0 || u >= n || v < 0 || v >= n) {
      throw std::invalid_argument("Dag::fromEdges: edge endpoint out of range");
    }
    if (u == v) throw std::invalid_argument("Dag::fromEdges: self-loop");
  }
  // Bucket the parents by child (counting sort), then sort and deduplicate
  // each short parent list in place, compacting as we go.
  std::vector<offset_t> ptr(static_cast<size_t>(n) + 1, 0);
  for (const auto& e : edges) ++ptr[static_cast<size_t>(e.second) + 1];
  std::partial_sum(ptr.begin(), ptr.end(), ptr.begin());
  std::vector<index_t> adj(edges.size());
  {
    std::vector<offset_t> cursor(ptr.begin(), ptr.end() - 1);
    for (const auto& [u, v] : edges) {
      adj[static_cast<size_t>(cursor[static_cast<size_t>(v)]++)] = u;
    }
  }
  offset_t begin = 0;
  offset_t kept = 0;
  for (size_t v = 0; v < static_cast<size_t>(n); ++v) {
    const offset_t end = ptr[v + 1];
    const auto first = adj.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = adj.begin() + static_cast<std::ptrdiff_t>(end);
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    std::move(first, unique_end,
              adj.begin() + static_cast<std::ptrdiff_t>(kept));
    kept += unique_end - first;
    ptr[v + 1] = kept;
    begin = end;
  }
  adj.resize(static_cast<size_t>(kept));
  return assemble(n, std::move(ptr), std::move(adj),
                  checkedWeights(n, {weights.begin(), weights.end()},
                                 "Dag::fromEdges"));
}

Dag Dag::fromLowerTriangular(const sparse::CsrMatrix& lower) {
  if (lower.rows() != lower.cols()) {
    throw std::invalid_argument("fromLowerTriangular: matrix must be square");
  }
  if (!lower.isLowerTriangular()) {
    throw std::invalid_argument("fromLowerTriangular: matrix is not lower triangular");
  }
  const index_t n = lower.rows();
  std::vector<weight_t> weights(static_cast<size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    weights[static_cast<size_t>(i)] = std::max<weight_t>(1, lower.rowNnz(i));
  }
  // Parents of i are exactly the off-diagonal columns of row i (sorted).
  std::vector<offset_t> in_ptr(static_cast<size_t>(n) + 1, 0);
  for (index_t i = 0; i < n; ++i) {
    offset_t cnt = 0;
    for (const index_t j : lower.rowCols(i)) cnt += (j < i) ? 1 : 0;
    in_ptr[static_cast<size_t>(i) + 1] = cnt;
  }
  std::partial_sum(in_ptr.begin(), in_ptr.end(), in_ptr.begin());
  std::vector<index_t> in_adj(static_cast<size_t>(in_ptr.back()));
  offset_t k = 0;
  for (index_t i = 0; i < n; ++i) {
    for (const index_t j : lower.rowCols(i)) {
      if (j < i) in_adj[static_cast<size_t>(k++)] = j;
    }
  }
  return assemble(n, std::move(in_ptr), std::move(in_adj), std::move(weights));
}

Dag Dag::fromUpperTriangular(const sparse::CsrMatrix& upper) {
  if (upper.rows() != upper.cols()) {
    throw std::invalid_argument("fromUpperTriangular: matrix must be square");
  }
  if (!upper.isUpperTriangular()) {
    throw std::invalid_argument("fromUpperTriangular: matrix is not upper triangular");
  }
  const index_t n = upper.rows();
  // Backward substitution runs rows n-1..0; relabel k = n-1-i so that the
  // DAG keeps the "edges ascend IDs" property of the forward case. The
  // parents of vertex k are n-1-j for the columns j > i of row i; walking
  // the row's sorted columns backwards lists them ascending.
  std::vector<weight_t> weights(static_cast<size_t>(n));
  std::vector<offset_t> in_ptr(static_cast<size_t>(n) + 1, 0);
  std::vector<index_t> in_adj;
  for (index_t k = 0; k < n; ++k) {
    const index_t i = n - 1 - k;
    weights[static_cast<size_t>(k)] = std::max<weight_t>(1, upper.rowNnz(i));
    const auto cols = upper.rowCols(i);
    for (auto it = cols.rbegin(); it != cols.rend() && *it > i; ++it) {
      in_adj.push_back(n - 1 - *it);
    }
    in_ptr[static_cast<size_t>(k) + 1] = static_cast<offset_t>(in_adj.size());
  }
  return assemble(n, std::move(in_ptr), std::move(in_adj), std::move(weights));
}

bool Dag::hasEdge(index_t parent, index_t child) const {
  const auto kids = children(parent);
  return std::binary_search(kids.begin(), kids.end(), child);
}

std::vector<index_t> Dag::sources() const {
  std::vector<index_t> s;
  for (index_t v = 0; v < n_; ++v) {
    if (inDegree(v) == 0) s.push_back(v);
  }
  return s;
}

std::vector<index_t> Dag::sinks() const {
  std::vector<index_t> s;
  for (index_t v = 0; v < n_; ++v) {
    if (outDegree(v) == 0) s.push_back(v);
  }
  return s;
}

bool Dag::isAcyclic() const {
  std::vector<index_t> indeg(static_cast<size_t>(n_));
  std::vector<index_t> queue;
  for (index_t v = 0; v < n_; ++v) {
    indeg[static_cast<size_t>(v)] = inDegree(v);
    if (indeg[static_cast<size_t>(v)] == 0) queue.push_back(v);
  }
  size_t processed = 0;
  while (processed < queue.size()) {
    const index_t v = queue[processed++];
    for (const index_t u : children(v)) {
      if (--indeg[static_cast<size_t>(u)] == 0) queue.push_back(u);
    }
  }
  return processed == static_cast<size_t>(n_);
}

Dag Dag::reversed() const {
  Dag r = *this;
  std::swap(r.in_ptr_, r.out_ptr_);
  std::swap(r.in_adj_, r.out_adj_);
  return r;
}

Dag Dag::rangeSubgraph(index_t lo, index_t hi) const {
  if (lo < 0 || hi < lo || hi > n_) {
    throw std::invalid_argument("rangeSubgraph: bad range");
  }
  const index_t m = hi - lo;
  // Filtering a sorted parent list keeps it sorted.
  std::vector<offset_t> ptr(static_cast<size_t>(m) + 1, 0);
  std::vector<index_t> adj;
  for (index_t v = lo; v < hi; ++v) {
    for (const index_t u : parents(v)) {
      if (u >= lo && u < hi) adj.push_back(u - lo);
    }
    ptr[static_cast<size_t>(v - lo) + 1] = static_cast<offset_t>(adj.size());
  }
  std::vector<weight_t> w(weight_.begin() + lo, weight_.begin() + hi);
  return assemble(m, std::move(ptr), std::move(adj), std::move(w));
}

void Dag::validate() const {
  if (out_ptr_.size() != static_cast<size_t>(n_) + 1 ||
      in_ptr_.size() != static_cast<size_t>(n_) + 1) {
    throw std::logic_error("Dag: pointer array size mismatch");
  }
  if (out_adj_.size() != in_adj_.size()) {
    throw std::logic_error("Dag: in/out edge count mismatch");
  }
  if (weight_.size() != static_cast<size_t>(n_)) {
    throw std::logic_error("Dag: weight size mismatch");
  }
  for (index_t v = 0; v < n_; ++v) {
    if (weight_[static_cast<size_t>(v)] <= 0) {
      throw std::logic_error("Dag: non-positive weight");
    }
    const auto kids = children(v);
    for (size_t k = 0; k < kids.size(); ++k) {
      if (kids[k] < 0 || kids[k] >= n_ || kids[k] == v) {
        throw std::logic_error("Dag: bad child");
      }
      if (k > 0 && kids[k] <= kids[k - 1]) {
        throw std::logic_error("Dag: children not strictly sorted");
      }
      const auto pars = parents(kids[k]);
      if (!std::binary_search(pars.begin(), pars.end(), v)) {
        throw std::logic_error("Dag: adjacency not mirrored");
      }
    }
  }
}

std::vector<Edge> Dag::edgeList() const {
  std::vector<Edge> edges;
  edges.reserve(static_cast<size_t>(numEdges()));
  for (index_t v = 0; v < n_; ++v) {
    for (const index_t u : children(v)) edges.emplace_back(v, u);
  }
  return edges;
}

}  // namespace sts::dag
