#include "dag/dag.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "dag/toposort.hpp"
#include "dag/transitive.hpp"
#include "dag/wavefronts.hpp"
#include "datagen/random_matrices.hpp"
#include "sparse/csr.hpp"
#include "test_util.hpp"

namespace sts::dag {
namespace {

using sparse::CsrMatrix;
using sts::Triplet;

/// The paper's Figure 1.1 example: 6x6 lower triangular with
/// rows a..f = 0..5; edges a->b, a->c, b->d, c->d(?) etc. We use a concrete
/// small matrix with known structure.
CsrMatrix figureMatrix() {
  // Row 0: diag.  Row 1: (1,0).  Row 2: (2,0).  Row 3: (3,1), (3,2).
  // Row 4: (4,3).  Row 5: (5,0).
  std::vector<Triplet> t = {{0, 0, 1.0}, {1, 0, 1.0}, {1, 1, 1.0},
                            {2, 0, 1.0}, {2, 2, 1.0}, {3, 1, 1.0},
                            {3, 2, 1.0}, {3, 3, 1.0}, {4, 3, 1.0},
                            {4, 4, 1.0}, {5, 0, 1.0}, {5, 5, 1.0}};
  return CsrMatrix::fromTriplets(6, 6, t);
}

TEST(Dag, FromLowerTriangularStructure) {
  const Dag d = Dag::fromLowerTriangular(figureMatrix());
  d.validate();
  EXPECT_EQ(d.numVertices(), 6);
  EXPECT_EQ(d.numEdges(), 6);
  EXPECT_TRUE(d.hasEdge(0, 1));
  EXPECT_TRUE(d.hasEdge(0, 2));
  EXPECT_TRUE(d.hasEdge(1, 3));
  EXPECT_TRUE(d.hasEdge(2, 3));
  EXPECT_TRUE(d.hasEdge(3, 4));
  EXPECT_TRUE(d.hasEdge(0, 5));
  EXPECT_FALSE(d.hasEdge(1, 2));
  // Weights are row nnz counts.
  EXPECT_EQ(d.weight(0), 1);
  EXPECT_EQ(d.weight(3), 3);
  EXPECT_EQ(d.totalWeight(), 12);
  EXPECT_TRUE(d.isAcyclic());
}

TEST(Dag, SourcesAndSinks) {
  const Dag d = Dag::fromLowerTriangular(figureMatrix());
  EXPECT_EQ(d.sources(), (std::vector<index_t>{0}));
  EXPECT_EQ(d.sinks(), (std::vector<index_t>{4, 5}));
}

TEST(Dag, FromEdgesDeduplicates) {
  const std::vector<Edge> edges = {{0, 1}, {0, 1}, {1, 2}};
  const Dag d = Dag::fromEdges(3, edges);
  EXPECT_EQ(d.numEdges(), 2);
}

/// The edge set a sorted build gives: parent-major, deduplicated.
std::vector<Edge> sortedUnique(std::vector<Edge> edges) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

TEST(Dag, FromEdgesMatchesSortedReference) {
  // Unsorted, with duplicates, edges in both ID directions.
  const std::vector<Edge> edges = {{4, 1}, {0, 3}, {2, 1}, {0, 3}, {1, 3},
                                   {4, 0}, {2, 1}, {0, 1}, {4, 3}, {1, 3}};
  const std::vector<weight_t> w = {3, 1, 4, 1, 5};
  const Dag d = Dag::fromEdges(5, edges, w);
  d.validate();
  EXPECT_EQ(d.edgeList(), sortedUnique(edges));
  EXPECT_EQ(d.parents(3).size(), 3u);
  EXPECT_EQ(std::vector<index_t>(d.parents(1).begin(), d.parents(1).end()),
            (std::vector<index_t>{0, 2, 4}));
  EXPECT_EQ(d.totalWeight(), 14);

  // A seeded random multigraph over 200 vertices.
  std::mt19937 rng(7);
  std::uniform_int_distribution<index_t> vertex(0, 199);
  std::vector<Edge> random;
  while (random.size() < 3000) {
    const index_t u = vertex(rng);
    const index_t v = vertex(rng);
    if (u != v) random.emplace_back(u, v);
  }
  const Dag r = Dag::fromEdges(200, random);
  r.validate();
  EXPECT_EQ(r.edgeList(), sortedUnique(random));

  const Dag empty = Dag::fromEdges(4, std::vector<Edge>{});
  empty.validate();
  EXPECT_EQ(empty.numVertices(), 4);
  EXPECT_EQ(empty.numEdges(), 0);
  EXPECT_EQ(empty.totalWeight(), 4);

  const Dag none = Dag::fromEdges(0, std::vector<Edge>{});
  none.validate();
  EXPECT_EQ(none.numVertices(), 0);
  EXPECT_EQ(none.numEdges(), 0);
}

TEST(Dag, FromParentsBuildsAndChecksInput) {
  const Dag d = Dag::fromParents(4, {0, 0, 1, 2, 4}, {0, 1, 0, 2}, {2, 1, 1, 3});
  d.validate();
  EXPECT_EQ(d.edgeList(),
            (std::vector<Edge>{{0, 1}, {0, 3}, {1, 2}, {2, 3}}));
  EXPECT_EQ(d.totalWeight(), 7);
  EXPECT_THROW(Dag::fromParents(2, {0, 1}, {0}), std::invalid_argument);
  EXPECT_THROW(Dag::fromParents(2, {0, 0, 1}, {1}), std::invalid_argument);
  EXPECT_THROW(Dag::fromParents(2, {0, 0, 1}, {2}), std::invalid_argument);
  EXPECT_THROW(Dag::fromParents(3, {0, 0, 0, 2}, {1, 1}),
               std::invalid_argument);
  EXPECT_THROW(Dag::fromParents(3, {0, 0, 0, 2}, {1, 0}),
               std::invalid_argument);
  EXPECT_THROW(Dag::fromParents(2, {0, 0, 1}, {0}, {1, 0}),
               std::invalid_argument);
}

TEST(Dag, ReversedSwapsEveryEdge) {
  const Dag d = Dag::fromLowerTriangular(figureMatrix());
  const Dag r = d.reversed();
  r.validate();
  std::vector<Edge> flipped;
  for (const auto& [u, v] : d.edgeList()) flipped.emplace_back(v, u);
  EXPECT_EQ(r.edgeList(), sortedUnique(flipped));
  EXPECT_EQ(r.totalWeight(), d.totalWeight());
  EXPECT_EQ(r.weight(3), d.weight(3));
}

TEST(Dag, FromEdgesRejectsSelfLoopAndRange) {
  EXPECT_THROW(Dag::fromEdges(2, std::vector<Edge>{{0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(Dag::fromEdges(2, std::vector<Edge>{{0, 2}}),
               std::invalid_argument);
}

TEST(Dag, FromEdgesRejectsNonPositiveWeights) {
  const std::vector<Edge> edges = {{0, 1}};
  const std::vector<weight_t> w = {1, 0};
  EXPECT_THROW(Dag::fromEdges(2, edges, w), std::invalid_argument);
}

TEST(Dag, CycleDetection) {
  const std::vector<Edge> cycle = {{0, 1}, {1, 2}, {2, 0}};
  const Dag d = Dag::fromEdges(3, cycle);
  EXPECT_FALSE(d.isAcyclic());
}

TEST(Dag, UpperTriangularMirrorsLower) {
  // U = L^T: the backward DAG of U (with relabeling k = n-1-i) must match
  // the forward DAG of L with IDs reversed.
  const CsrMatrix lower = figureMatrix();
  const CsrMatrix upper = lower.transposed();
  const Dag dl = Dag::fromLowerTriangular(lower);
  const Dag du = Dag::fromUpperTriangular(upper);
  const index_t n = dl.numVertices();
  EXPECT_EQ(du.numEdges(), dl.numEdges());
  for (index_t v = 0; v < n; ++v) {
    // Vertex n-1-i of the backward DAG is row i of U; its weight is the
    // row's entry count (the work of the backward substitution step).
    EXPECT_EQ(du.weight(n - 1 - v),
              std::max<weight_t>(1, upper.rowNnz(v)));
    // Edge (v, c) in the forward DAG of L corresponds to U(v, c) != 0 with
    // c > v, which yields edge (n-1-c, n-1-v) in the backward DAG.
    for (const index_t c : dl.children(v)) {
      EXPECT_TRUE(du.hasEdge(n - 1 - c, n - 1 - v));
    }
  }
  EXPECT_TRUE(du.isAcyclic());
}

TEST(Dag, RangeSubgraph) {
  const Dag d = Dag::fromLowerTriangular(figureMatrix());
  const Dag sub = d.rangeSubgraph(1, 4);  // vertices 1,2,3 -> 0,1,2
  EXPECT_EQ(sub.numVertices(), 3);
  // Surviving edges: (1,3) -> (0,2); (2,3) -> (1,2).
  EXPECT_EQ(sub.numEdges(), 2);
  EXPECT_TRUE(sub.hasEdge(0, 2));
  EXPECT_TRUE(sub.hasEdge(1, 2));
  // Weights preserved from the full matrix (block scheduling, §3.1).
  EXPECT_EQ(sub.weight(0), d.weight(1));
  EXPECT_EQ(sub.weight(2), d.weight(3));
}

TEST(Wavefronts, FigureExample) {
  const Dag d = Dag::fromLowerTriangular(figureMatrix());
  const Wavefronts wf = computeWavefronts(d);
  EXPECT_EQ(wf.num_levels, 4);
  EXPECT_EQ(wf.level[0], 0);
  EXPECT_EQ(wf.level[1], 1);
  EXPECT_EQ(wf.level[2], 1);
  EXPECT_EQ(wf.level[5], 1);
  EXPECT_EQ(wf.level[3], 2);
  EXPECT_EQ(wf.level[4], 3);
  EXPECT_EQ(wf.levelSize(1), 3);
  EXPECT_DOUBLE_EQ(wf.averageWavefrontSize(), 6.0 / 4.0);
  EXPECT_EQ(criticalPathLength(d), 4);
}

TEST(Wavefronts, ChainAndDiagonalExtremes) {
  const Dag chain =
      Dag::fromLowerTriangular(datagen::chainLower(50));
  EXPECT_EQ(computeWavefronts(chain).num_levels, 50);
  const Dag diag =
      Dag::fromLowerTriangular(datagen::diagonalMatrix(50));
  EXPECT_EQ(computeWavefronts(diag).num_levels, 1);
}

TEST(Wavefronts, LevelsAreMonotoneAlongEdges) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const Wavefronts wf = computeWavefronts(d);
    for (index_t v = 0; v < d.numVertices(); ++v) {
      for (const index_t c : d.children(v)) {
        EXPECT_LT(wf.level[static_cast<size_t>(v)],
                  wf.level[static_cast<size_t>(c)])
            << name;
      }
    }
  }
}

TEST(Toposort, ValidOrderOnZoo) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const auto order = topologicalOrder(d);
    ASSERT_TRUE(order.has_value()) << name;
    EXPECT_TRUE(isTopologicalOrder(d, *order)) << name;
    const auto rev = reverseTopologicalOrder(d);
    ASSERT_TRUE(rev.has_value()) << name;
    EXPECT_FALSE(isTopologicalOrder(d, *rev) && d.numEdges() > 0) << name;
  }
}

TEST(Toposort, DetectsCycle) {
  const Dag d = Dag::fromEdges(2, std::vector<Edge>{{0, 1}, {1, 0}});
  EXPECT_FALSE(topologicalOrder(d).has_value());
}

TEST(Toposort, IsTopologicalOrderRejectsBadInputs) {
  const Dag d = Dag::fromEdges(3, std::vector<Edge>{{0, 1}, {1, 2}});
  EXPECT_TRUE(isTopologicalOrder(d, std::vector<index_t>{0, 1, 2}));
  EXPECT_FALSE(isTopologicalOrder(d, std::vector<index_t>{1, 0, 2}));
  EXPECT_FALSE(isTopologicalOrder(d, std::vector<index_t>{0, 1}));
  EXPECT_FALSE(isTopologicalOrder(d, std::vector<index_t>{0, 0, 2}));
}

TEST(TransitiveReduction, RemovesTriangleEdge) {
  // 0->1, 1->2, 0->2 (redundant).
  const Dag d =
      Dag::fromEdges(3, std::vector<Edge>{{0, 1}, {1, 2}, {0, 2}});
  const auto result = approximateTransitiveReduction(d);
  EXPECT_EQ(result.removed_edges, 1);
  EXPECT_FALSE(result.dag.hasEdge(0, 2));
  EXPECT_TRUE(result.dag.hasEdge(0, 1));
  EXPECT_TRUE(result.dag.hasEdge(1, 2));
}

TEST(TransitiveReduction, PreservesReachabilityOnZoo) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    if (d.numVertices() > 200) continue;  // exact check is O(V*E)
    const auto result = approximateTransitiveReduction(d);
    for (index_t v = 0; v < d.numVertices(); ++v) {
      for (const index_t c : d.children(v)) {
        EXPECT_TRUE(isReachable(result.dag, v, c))
            << name << ": lost edge (" << v << ", " << c << ")";
      }
    }
  }
}

TEST(TransitiveReduction, KeepsWeightsAndVertices) {
  const Dag d = Dag::fromLowerTriangular(
      datagen::erdosRenyiLower({.n = 300, .p = 0.02, .seed = 5}));
  const auto result = approximateTransitiveReduction(d);
  EXPECT_EQ(result.dag.numVertices(), d.numVertices());
  for (index_t v = 0; v < d.numVertices(); ++v) {
    EXPECT_EQ(result.dag.weight(v), d.weight(v));
  }
  EXPECT_EQ(result.dag.numEdges() + result.removed_edges, d.numEdges());
}

TEST(TransitiveReduction, BudgetStopsEarlyButStaysSound) {
  const Dag d = Dag::fromLowerTriangular(
      datagen::erdosRenyiLower({.n = 200, .p = 0.05, .seed = 6}));
  TransitiveReductionOptions opts;
  opts.max_inspections = 50;
  const auto result = approximateTransitiveReduction(d, opts);
  EXPECT_TRUE(result.exhausted_budget);
  for (index_t v = 0; v < d.numVertices(); ++v) {
    for (const index_t c : d.children(v)) {
      EXPECT_TRUE(isReachable(result.dag, v, c));
    }
  }
}

/// The sequential pass the parallel reduction replaced, kept verbatim as
/// the reference: vertex by vertex, one shared budget counter.
TransitiveReductionResult sequentialReduction(const Dag& dag,
                                              offset_t max_inspections) {
  const index_t n = dag.numVertices();
  std::vector<offset_t> parent_slot(static_cast<size_t>(n), 0);
  std::vector<index_t> touched;
  std::vector<char> edge_removed;
  std::vector<Edge> kept;
  offset_t inspections = 0;
  offset_t removed = 0;
  bool exhausted = false;
  index_t resume_from = n;
  for (index_t v = 0; v < n && !exhausted; ++v) {
    const auto pars = dag.parents(v);
    touched.clear();
    for (size_t k = 0; k < pars.size(); ++k) {
      parent_slot[static_cast<size_t>(pars[k])] = static_cast<offset_t>(k) + 1;
      touched.push_back(pars[k]);
    }
    edge_removed.assign(pars.size(), 0);
    for (const index_t w : pars) {
      for (const index_t u : dag.parents(w)) {
        if (max_inspections >= 0 && ++inspections > max_inspections) {
          exhausted = true;
          break;
        }
        const offset_t slot = parent_slot[static_cast<size_t>(u)];
        if (slot > 0 && !edge_removed[static_cast<size_t>(slot - 1)]) {
          edge_removed[static_cast<size_t>(slot - 1)] = 1;
          ++removed;
        }
      }
      if (exhausted) break;
    }
    for (size_t k = 0; k < pars.size(); ++k) {
      if (!edge_removed[k]) kept.emplace_back(pars[k], v);
    }
    for (const index_t u : touched) parent_slot[static_cast<size_t>(u)] = 0;
    if (exhausted) resume_from = v + 1;
  }
  if (exhausted) {
    for (index_t v2 = resume_from; v2 < n; ++v2) {
      for (const index_t u : dag.parents(v2)) kept.emplace_back(u, v2);
    }
  }
  return {Dag::fromEdges(n, kept, dag.weights()), removed, exhausted};
}

/// Inspections an unbounded pass spends on each vertex, and their total.
std::vector<offset_t> inspectionsPerVertex(const Dag& d) {
  std::vector<offset_t> cost(static_cast<size_t>(d.numVertices()), 0);
  for (index_t v = 0; v < d.numVertices(); ++v) {
    for (const index_t w : d.parents(v)) {
      cost[static_cast<size_t>(v)] += d.inDegree(w);
    }
  }
  return cost;
}

TEST(TransitiveReduction, ParallelMatchesSequentialReference) {
  std::vector<testutil::NamedMatrix> inputs = testutil::lowerTriangularZoo();
  inputs.push_back({"er_2000_seeded", datagen::erdosRenyiLower(
                                          {.n = 2000, .p = 8e-3, .seed = 18})});
  for (const auto& [name, lower] : inputs) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const std::vector<offset_t> cost = inspectionsPerVertex(d);
    const offset_t total =
        std::accumulate(cost.begin(), cost.end(), offset_t{0});
    // A cutoff on a vertex boundary (the inspections before the middle
    // vertex) and one inside a vertex (half way into the first costly
    // vertex from the middle on), when the input has such vertices.
    const auto mid = cost.begin() + static_cast<std::ptrdiff_t>(cost.size() / 2);
    const offset_t boundary = std::accumulate(cost.begin(), mid, offset_t{0});
    const auto costly =
        std::find_if(mid, cost.end(), [](offset_t c) { return c >= 2; });
    const offset_t inside =
        costly == cost.end()
            ? boundary
            : std::accumulate(cost.begin(), costly, offset_t{0}) + *costly / 2;
    for (const offset_t budget :
         {offset_t{0}, inside, boundary, std::max<offset_t>(total - 1, 0),
          offset_t{-1}}) {
      const auto expected = sequentialReduction(d, budget);
      for (int width = 1; width <= 4; ++width) {
        TransitiveReductionOptions opts;
        opts.max_inspections = budget;
        opts.num_threads = width;
        const auto got = approximateTransitiveReduction(d, opts);
        got.dag.validate();
        EXPECT_EQ(got.dag.edgeList(), expected.dag.edgeList())
            << name << " budget " << budget << " width " << width;
        EXPECT_EQ(got.removed_edges, expected.removed_edges)
            << name << " budget " << budget << " width " << width;
        EXPECT_EQ(got.exhausted_budget, expected.exhausted_budget)
            << name << " budget " << budget << " width " << width;
        EXPECT_EQ(got.dag.weights().size(), d.weights().size());
        EXPECT_TRUE(std::equal(got.dag.weights().begin(),
                               got.dag.weights().end(), d.weights().begin()));
      }
    }
  }
}

TEST(TransitiveReduction, RejectsZeroWidth) {
  const Dag d = Dag::fromLowerTriangular(datagen::chainLower(4));
  TransitiveReductionOptions opts;
  opts.num_threads = 0;
  EXPECT_THROW(approximateTransitiveReduction(d, opts), std::invalid_argument);
}

TEST(TransitiveReduction, NoEffectOnChain) {
  const Dag d = Dag::fromLowerTriangular(datagen::chainLower(30));
  const auto result = approximateTransitiveReduction(d);
  EXPECT_EQ(result.removed_edges, 0);
  EXPECT_EQ(result.dag.numEdges(), d.numEdges());
}

}  // namespace
}  // namespace sts::dag
