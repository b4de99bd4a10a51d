#include "dag/transitive.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "obs/trace.hpp"

namespace sts::dag {

TransitiveReductionResult approximateTransitiveReduction(
    const Dag& dag, const TransitiveReductionOptions& opts) {
  if (opts.num_threads < 1) {
    throw std::invalid_argument(
        "approximateTransitiveReduction: num_threads must be >= 1");
  }
  STS_TRACE_SPAN1("plan", "transitive", "edges", dag.numEdges());
  const index_t n = dag.numVertices();
  const auto un = static_cast<size_t>(n);

  // Vertex v inspects every parent of every parent w of v, so it costs
  // sum over w of indeg(w) inspections; first[v] is the cost of the
  // vertices before v. in_ptr[v] is where v's in-edges start.
  std::vector<offset_t> first(un + 1, 0);
  std::vector<offset_t> in_ptr(un + 1, 0);
  for (size_t v = 0; v < un; ++v) {
    const auto pars = dag.parents(static_cast<index_t>(v));
    offset_t cost = 0;
    for (const index_t w : pars) cost += dag.inDegree(w);
    first[v + 1] = first[v] + cost;
    in_ptr[v + 1] = in_ptr[v] + static_cast<offset_t>(pars.size());
  }
  // The first vertex whose inspections cross the budget gets what is left
  // of it; every later vertex keeps all of its edges (partial application
  // is still sound: the reduction is only an optimization).
  const offset_t budget = opts.max_inspections;
  const bool exhausted = budget >= 0 && first[un] > budget;
  const auto stop = static_cast<index_t>(
      exhausted ? std::upper_bound(first.begin() + 1, first.end(), budget) -
                      (first.begin() + 1)
                : n);
  const index_t end = exhausted ? stop + 1 : n;

  // keep[k]: in-edge k survives; aligned with the in-adjacency, and each
  // vertex's range is written only by the thread that processes it.
  std::vector<char> keep(static_cast<size_t>(dag.numEdges()), 1);
  std::atomic<offset_t> removed{0};
  // The region's join edge in atomics, as in core::blockSchedule: libgomp's
  // barrier is invisible to ThreadSanitizer. Each thread release-increments
  // `finished` after its writes; the acquire load below reads the final
  // count (the region has joined, so it never spins).
  std::atomic<int> finished{0};
  int team = 1;
#pragma omp parallel num_threads(opts.num_threads)
  {
    if (omp_get_thread_num() == 0) team = omp_get_num_threads();
    // slot[u] = 1 + position of u in parents(v) while processing v.
    std::vector<index_t> slot(un, 0);
    offset_t local_removed = 0;
#pragma omp for schedule(dynamic, 16) nowait
    for (index_t v = 0; v < end; ++v) {
      const auto pars = dag.parents(v);
      char* const keep_v = keep.data() + in_ptr[static_cast<size_t>(v)];
      for (size_t k = 0; k < pars.size(); ++k) {
        slot[static_cast<size_t>(pars[k])] = static_cast<index_t>(k) + 1;
      }
      offset_t left = v == stop ? budget - first[static_cast<size_t>(v)]
                                : first[static_cast<size_t>(v) + 1] -
                                      first[static_cast<size_t>(v)];
      // Edge (u, v) is redundant if some other parent w of v has u as
      // parent: then u -> w -> v is a two-step path.
      for (size_t k = 0; k < pars.size() && left > 0; ++k) {
        const auto grand = dag.parents(pars[k]);
        const auto take = static_cast<size_t>(
            std::min(left, static_cast<offset_t>(grand.size())));
        left -= static_cast<offset_t>(take);
        for (size_t g = 0; g < take; ++g) {
          const index_t s = slot[static_cast<size_t>(grand[g])];
          if (s > 0 && keep_v[s - 1]) {
            keep_v[s - 1] = 0;
            ++local_removed;
          }
        }
      }
      for (const index_t u : pars) slot[static_cast<size_t>(u)] = 0;
    }
    removed.fetch_add(local_removed, std::memory_order_relaxed);
    finished.fetch_add(1, std::memory_order_release);
  }
  while (finished.load(std::memory_order_acquire) != team) {
  }

  const offset_t num_removed = removed.load(std::memory_order_relaxed);
  std::vector<offset_t> kept_ptr(un + 1, 0);
  std::vector<index_t> kept_adj;
  kept_adj.reserve(static_cast<size_t>(dag.numEdges() - num_removed));
  for (size_t v = 0; v < un; ++v) {
    const auto pars = dag.parents(static_cast<index_t>(v));
    const char* const keep_v = keep.data() + in_ptr[v];
    for (size_t k = 0; k < pars.size(); ++k) {
      if (keep_v[k]) kept_adj.push_back(pars[k]);
    }
    kept_ptr[v + 1] = static_cast<offset_t>(kept_adj.size());
  }
  return {Dag::fromParents(n, std::move(kept_ptr), std::move(kept_adj),
                           std::vector<weight_t>(dag.weights().begin(),
                                                 dag.weights().end())),
          num_removed, exhausted};
}

bool isReachable(const Dag& dag, index_t from, index_t to) {
  if (from == to) return true;
  std::vector<char> seen(static_cast<size_t>(dag.numVertices()), 0);
  std::vector<index_t> stack = {from};
  seen[static_cast<size_t>(from)] = 1;
  while (!stack.empty()) {
    const index_t v = stack.back();
    stack.pop_back();
    for (const index_t u : dag.children(v)) {
      if (u == to) return true;
      if (!seen[static_cast<size_t>(u)]) {
        seen[static_cast<size_t>(u)] = 1;
        stack.push_back(u);
      }
    }
  }
  return false;
}

}  // namespace sts::dag
