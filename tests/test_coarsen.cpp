#include "core/coarsen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "core/growlocal.hpp"
#include "dag/dag.hpp"
#include "dag/toposort.hpp"
#include "datagen/random_matrices.hpp"
#include "test_util.hpp"

namespace sts::core {
namespace {

using dag::Dag;
using dag::Edge;

TEST(Partition, FromPartOfCanonicalizes) {
  // Labels 7 and 3 should be relabeled by first appearance: 7 -> 0, 3 -> 1.
  const std::vector<index_t> part_of = {7, 3, 7, 3};
  const Partition p = Partition::fromPartOf(4, part_of);
  EXPECT_EQ(p.num_parts, 2);
  EXPECT_EQ(p.part_of[0], 0);
  EXPECT_EQ(p.part_of[1], 1);
  EXPECT_EQ(p.part_of[2], 0);
  EXPECT_EQ(p.part_of[3], 1);
  const auto m0 = p.members(0);
  EXPECT_EQ(std::vector<index_t>(m0.begin(), m0.end()),
            (std::vector<index_t>{0, 2}));
}

TEST(Partition, Singletons) {
  const Partition p = Partition::singletons(5);
  EXPECT_EQ(p.num_parts, 5);
  for (index_t v = 0; v < 5; ++v) EXPECT_EQ(p.part_of[v], v);
}

TEST(FunnelPartition, InTreeCollapsesToOnePart) {
  // A binary in-tree: every vertex funnels into the root (vertex 6).
  //   0 1 2 3 -> 4 5 -> 6
  const std::vector<Edge> edges = {{0, 4}, {1, 4}, {2, 5},
                                   {3, 5}, {4, 6}, {5, 6}};
  const Dag d = Dag::fromEdges(7, edges);
  const Partition p = funnelPartition(d, {});
  EXPECT_EQ(p.num_parts, 1);
  EXPECT_TRUE(isCascade(d, p.members(0)));
}

TEST(FunnelPartition, RespectsSizeCap) {
  const std::vector<Edge> edges = {{0, 4}, {1, 4}, {2, 5},
                                   {3, 5}, {4, 6}, {5, 6}};
  const Dag d = Dag::fromEdges(7, edges);
  FunnelOptions opts;
  opts.max_part_size = 3;
  const Partition p = funnelPartition(d, opts);
  EXPECT_GT(p.num_parts, 1);
  for (index_t part = 0; part < p.num_parts; ++part) {
    EXPECT_LE(static_cast<index_t>(p.members(part).size()), 3);
  }
}

TEST(FunnelPartition, RespectsWeightCap) {
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}};
  const std::vector<dag::weight_t> weights = {10, 10, 10, 10};
  const Dag d = Dag::fromEdges(4, edges, weights);
  FunnelOptions opts;
  opts.max_part_weight = 20;
  const Partition p = funnelPartition(d, opts);
  for (index_t part = 0; part < p.num_parts; ++part) {
    dag::weight_t w = 0;
    for (const index_t v : p.members(part)) w += d.weight(v);
    EXPECT_LE(w, 20);
  }
}

TEST(FunnelPartition, PartsAreFunnelsOnZoo) {
  // The funnel property is guaranteed on the graph the search ran on; with
  // the default pre-reduction the parts are funnels of the REDUCED graph
  // (removed transitive edges can add cut vertices in the original, which
  // is safe for coarsening — see Coarsen.ProducesAcyclicQuotientOnZoo).
  // Disable the reduction to check the property on the original graph.
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    for (const auto direction :
         {FunnelOptions::Direction::kIn, FunnelOptions::Direction::kOut}) {
      FunnelOptions opts;
      opts.direction = direction;
      opts.pre_transitive_reduction = false;
      const Partition p = funnelPartition(d, opts);
      // Partition covers all vertices exactly once.
      index_t covered = 0;
      for (index_t part = 0; part < p.num_parts; ++part) {
        covered += static_cast<index_t>(p.members(part).size());
      }
      EXPECT_EQ(covered, d.numVertices()) << name;
      // Funnel definition: at most one out-cut (in) / in-cut (out) vertex.
      std::vector<char> in_part(static_cast<size_t>(d.numVertices()), 0);
      for (index_t part = 0; part < p.num_parts && part < 200; ++part) {
        const auto members = p.members(part);
        for (const index_t v : members) in_part[v] = 1;
        index_t cut_vertices = 0;
        for (const index_t v : members) {
          const auto nbrs = direction == FunnelOptions::Direction::kIn
                                ? d.children(v)
                                : d.parents(v);
          for (const index_t u : nbrs) {
            if (!in_part[u]) {
              ++cut_vertices;
              break;
            }
          }
        }
        EXPECT_LE(cut_vertices, 1)
            << name << " part " << part << " direction "
            << (direction == FunnelOptions::Direction::kIn ? "in" : "out");
        for (const index_t v : members) in_part[v] = 0;
      }
    }
  }
}

TEST(FunnelPartition, PartsAreCascadesOnSmallGraphs) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    if (d.numVertices() > 150) continue;  // isCascade is quadratic
    FunnelOptions opts;
    opts.pre_transitive_reduction = false;  // check Def. 4.2 on the original
    const Partition p = funnelPartition(d, opts);
    for (index_t part = 0; part < p.num_parts; ++part) {
      EXPECT_TRUE(isCascade(d, p.members(part))) << name << " part " << part;
    }
  }
}

TEST(Coarsen, ProducesAcyclicQuotientOnZoo) {
  // Proposition 4.3 (plus the transitive-reduction safety argument).
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const Partition p = funnelPartition(d, {});
    const Dag coarse = coarsen(d, p);
    EXPECT_TRUE(coarse.isAcyclic()) << name;
    EXPECT_EQ(coarse.numVertices(), p.num_parts) << name;
    EXPECT_EQ(coarse.totalWeight(), d.totalWeight()) << name;
  }
}

TEST(Coarsen, QuotientEdgesMatchDefinition) {
  // Definition 4.1 on a hand-checked graph.
  const std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 3}, {3, 2}};
  const Dag d = Dag::fromEdges(4, edges);
  const std::vector<index_t> part_of = {0, 0, 1, 1};
  const Partition p = Partition::fromPartOf(4, part_of);
  const Dag coarse = coarsen(d, p);
  EXPECT_EQ(coarse.numVertices(), 2);
  EXPECT_EQ(coarse.numEdges(), 1);  // parallel edges collapse, no self-loops
  EXPECT_TRUE(coarse.hasEdge(0, 1));
}

TEST(Coarsen, SingletonPartitionIsIdentity) {
  const Dag d = Dag::fromLowerTriangular(datagen::chainLower(20));
  const Dag coarse = coarsen(d, Partition::singletons(20));
  EXPECT_EQ(coarse.numVertices(), d.numVertices());
  EXPECT_EQ(coarse.numEdges(), d.numEdges());
}

TEST(PullBack, ProducesValidFineSchedule) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const Partition p = funnelPartition(d, {});
    const Dag coarse = coarsen(d, p);
    const Schedule coarse_schedule =
        growLocalSchedule(coarse, {.num_cores = 2});
    ASSERT_TRUE(validateSchedule(coarse, coarse_schedule).ok) << name;
    const Schedule fine = pullBackSchedule(d, p, coarse_schedule);
    const auto v = validateSchedule(d, fine);
    EXPECT_TRUE(v.ok) << name << ": " << v.message;
    EXPECT_EQ(fine.numSupersteps(), coarse_schedule.numSupersteps()) << name;
  }
}

TEST(FunnelGrowLocal, ValidAndCoarserThanWavefronts) {
  const auto lower =
      datagen::narrowBandLower({.n = 2000, .p = 0.14, .b = 10.0, .seed = 21});
  const Dag d = Dag::fromLowerTriangular(lower);
  const Schedule s = funnelGrowLocalSchedule(d, {.num_cores = 2});
  const auto v = validateSchedule(d, s);
  EXPECT_TRUE(v.ok) << v.message;
}

void expectSameSchedule(const Schedule& a, const Schedule& b,
                        const std::string& what) {
  EXPECT_EQ(a.numCores(), b.numCores()) << what;
  EXPECT_EQ(a.numSupersteps(), b.numSupersteps()) << what;
  EXPECT_TRUE(std::ranges::equal(a.cores(), b.cores())) << what;
  EXPECT_TRUE(std::ranges::equal(a.supersteps(), b.supersteps())) << what;
  EXPECT_TRUE(std::ranges::equal(a.executionOrder(), b.executionOrder()))
      << what;
  EXPECT_TRUE(std::ranges::equal(a.groupPtr(), b.groupPtr())) << what;
}

TEST(FunnelGrowLocal, ScheduleIndependentOfAnalysisWidth) {
  std::vector<testutil::NamedMatrix> inputs = testutil::lowerTriangularZoo();
  inputs.push_back({"er_2000", datagen::erdosRenyiLower(
                                   {.n = 2000, .p = 8e-3, .seed = 23})});
  for (const auto& [name, lower] : inputs) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const GrowLocalOptions gl{.num_cores = 4};
    FunnelOptions one;
    one.num_threads = 1;
    FunnelOptions four;
    four.num_threads = 4;
    const Schedule at1 = funnelGrowLocalSchedule(d, gl, one);
    expectSameSchedule(at1, funnelGrowLocalSchedule(d, gl, four),
                       name + " width 4");
    // Unset, the reduction runs at the schedule's width (4 here).
    expectSameSchedule(at1, funnelGrowLocalSchedule(d, gl), name + " unset");
  }
}

TEST(IsCascade, DetectsNonCascade) {
  // U = {0, 3} in 0->1->3, 0->2->3 (1 and 2 outside): vertex 3 has an
  // incoming cut edge, vertex 0 an outgoing one, but no walk 3 -> 0.
  const std::vector<Edge> edges = {{0, 1}, {1, 3}, {0, 2}, {2, 3}};
  const Dag d = Dag::fromEdges(4, edges);
  const std::vector<index_t> bad = {0, 3};
  EXPECT_FALSE(isCascade(d, bad));
  const std::vector<index_t> whole = {0, 1, 2, 3};
  EXPECT_TRUE(isCascade(d, whole));
}

}  // namespace
}  // namespace sts::core
