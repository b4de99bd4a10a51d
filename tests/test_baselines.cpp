#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/bsplist.hpp"
#include "baselines/hdagg.hpp"
#include "baselines/spmp.hpp"
#include "baselines/wavefront.hpp"
#include "dag/dag.hpp"
#include "dag/transitive.hpp"
#include "dag/wavefronts.hpp"
#include "datagen/random_matrices.hpp"
#include "test_util.hpp"

namespace sts::baselines {
namespace {

using core::validateSchedule;
using dag::Dag;
using dag::Edge;

TEST(Wavefront, OneSuperstepPerLevel) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const Schedule s = wavefrontSchedule(d, {.num_cores = 2});
    EXPECT_EQ(s.numSupersteps(), dag::criticalPathLength(d)) << name;
    EXPECT_TRUE(validateSchedule(d, s).ok) << name;
  }
}

TEST(Wavefront, ChunksAreContiguousAndBalanced) {
  const Dag d = Dag::fromLowerTriangular(datagen::diagonalMatrix(100));
  const Schedule s = wavefrontSchedule(d, {.num_cores = 4});
  EXPECT_EQ(s.numSupersteps(), 1);
  // Contiguity: core index must be monotone over vertex IDs in one level.
  for (index_t v = 1; v < 100; ++v) {
    EXPECT_GE(s.coreOf(v), s.coreOf(v - 1));
  }
  // Balance: 25 vertices per core.
  std::vector<int> counts(4, 0);
  for (index_t v = 0; v < 100; ++v) ++counts[s.coreOf(v)];
  for (int p = 0; p < 4; ++p) EXPECT_EQ(counts[p], 25);
}

TEST(BalancedChunks, WeightAwareSplit) {
  // One heavy vertex should get its own chunk under weight balancing.
  std::vector<Edge> no_edges;
  const std::vector<dag::weight_t> w = {100, 1, 1, 1};
  const Dag d = Dag::fromEdges(4, no_edges, w);
  const std::vector<index_t> verts = {0, 1, 2, 3};
  const auto bounds = balancedContiguousChunks(d, verts, 2);
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[1], 1u);  // heavy vertex alone
  EXPECT_EQ(bounds[2], 4u);
}

TEST(Hdagg, GluesIndependentChainsIntoOneSuperstep) {
  // Two disjoint equal chains: components pack perfectly onto 2 cores, so
  // HDagg should glue ALL wavefronts into a single superstep.
  std::vector<Edge> edges;
  const index_t len = 50;
  for (index_t i = 1; i < len; ++i) {
    edges.emplace_back(i - 1, i);                      // chain A: 0..len-1
    edges.emplace_back(len + i - 1, len + i);          // chain B
  }
  const Dag d = Dag::fromEdges(2 * len, edges);
  HdaggOptions opts;
  opts.num_cores = 2;
  opts.coarsen = false;
  const Schedule s = hdaggSchedule(d, opts);
  EXPECT_TRUE(validateSchedule(d, s).ok);
  EXPECT_EQ(s.numSupersteps(), 1);
  // The two chains must land on different cores.
  EXPECT_NE(s.coreOf(0), s.coreOf(len));
}

TEST(Hdagg, SingleChainFallsBackToOneSuperstepPerCore) {
  // One chain cannot be balanced across 2 cores; single-level windows are
  // accepted unconditionally, and every level extension keeps the single
  // component, which always fails the balance test. With coarsening the
  // funnel collapses the chain instead.
  const Dag d = Dag::fromLowerTriangular(datagen::chainLower(40));
  HdaggOptions opts;
  opts.num_cores = 2;
  const Schedule s = hdaggSchedule(d, opts);
  EXPECT_TRUE(validateSchedule(d, s).ok);
  EXPECT_LE(s.numSupersteps(), 40);
}

TEST(Hdagg, NeverWorseThanWavefrontsInSuperstepCount) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    HdaggOptions opts;
    opts.num_cores = 2;
    opts.coarsen = false;
    const Schedule s = hdaggSchedule(d, opts);
    EXPECT_LE(s.numSupersteps(), dag::criticalPathLength(d)) << name;
  }
}

TEST(Hdagg, ImbalanceThetaControlsGluing) {
  // A permissive theta must glue at least as aggressively as a strict one.
  const auto lower = datagen::erdosRenyiLower({.n = 1500, .p = 3e-3, .seed = 70});
  const Dag d = Dag::fromLowerTriangular(lower);
  HdaggOptions strict, loose;
  strict.num_cores = loose.num_cores = 2;
  strict.coarsen = loose.coarsen = false;
  strict.imbalance_theta = 1.01;
  loose.imbalance_theta = 2.0;
  const Schedule s_strict = hdaggSchedule(d, strict);
  const Schedule s_loose = hdaggSchedule(d, loose);
  EXPECT_LE(s_loose.numSupersteps(), s_strict.numSupersteps());
}

TEST(Spmp, TransitiveReductionReportedAndSound) {
  const auto lower = datagen::erdosRenyiLower({.n = 600, .p = 8e-3, .seed = 71});
  const Dag d = Dag::fromLowerTriangular(lower);
  const auto result = spmpSchedule(d, {.num_cores = 2});
  EXPECT_GT(result.removed_edges, 0);
  ASSERT_TRUE(result.reduced_dag.has_value());
  EXPECT_EQ(result.reduced_dag->numEdges() + result.removed_edges,
            d.numEdges());
  EXPECT_TRUE(validateSchedule(d, result.schedule).ok);
}

TEST(Spmp, NoReductionOption) {
  const auto lower = datagen::erdosRenyiLower({.n = 300, .p = 8e-3, .seed = 72});
  const Dag d = Dag::fromLowerTriangular(lower);
  SpmpOptions opts;
  opts.num_cores = 2;
  opts.transitive_reduction = false;
  const auto result = spmpSchedule(d, opts);
  EXPECT_EQ(result.removed_edges, 0);
  EXPECT_FALSE(result.reduced_dag.has_value());
}

TEST(Spmp, ResultIndependentOfAnalysisWidth) {
  // The reduction runs num_cores wide; what it returns is the width-1
  // pass's, and the level schedule is the wavefront schedule either way.
  const auto lower = datagen::erdosRenyiLower({.n = 2000, .p = 8e-3, .seed = 73});
  const Dag d = Dag::fromLowerTriangular(lower);
  const auto reference = dag::approximateTransitiveReduction(d);
  for (const int width : {1, 4}) {
    const auto result = spmpSchedule(d, {.num_cores = width});
    ASSERT_TRUE(result.reduced_dag.has_value());
    EXPECT_EQ(result.reduced_dag->edgeList(), reference.dag.edgeList());
    EXPECT_EQ(result.removed_edges, reference.removed_edges);
    const Schedule levels = wavefrontSchedule(d, {.num_cores = width});
    EXPECT_TRUE(std::ranges::equal(result.schedule.executionOrder(),
                                   levels.executionOrder()));
    EXPECT_TRUE(std::ranges::equal(result.schedule.groupPtr(),
                                   levels.groupPtr()));
  }
}

TEST(BspList, BottomLevelsKnownValues) {
  // 0 -> 1 -> 2, 0 -> 3.
  const Dag d =
      Dag::fromEdges(4, std::vector<Edge>{{0, 1}, {1, 2}, {0, 3}});
  const auto bottom = computeBottomLevels(d);
  EXPECT_EQ(bottom[2], 1);
  EXPECT_EQ(bottom[3], 1);
  EXPECT_EQ(bottom[1], 2);
  EXPECT_EQ(bottom[0], 3);
}

TEST(BspList, SchedulesReadySetPerSuperstep) {
  const Dag d = Dag::fromLowerTriangular(datagen::diagonalMatrix(10));
  const Schedule s = bspListSchedule(d, {.num_cores = 2});
  EXPECT_EQ(s.numSupersteps(), 1);
  EXPECT_TRUE(validateSchedule(d, s).ok);
}

TEST(BspList, CriticalPathPriorityPicksDeepVerticesFirst) {
  // Vertices on the long chain should be scheduled as soon as ready even
  // when many shallow vertices compete.
  std::vector<Edge> edges;
  for (index_t i = 1; i < 20; ++i) edges.emplace_back(i - 1, i);  // chain
  // 50 shallow independent vertices 20..69.
  const Dag d = Dag::fromEdges(70, edges);
  const Schedule s = bspListSchedule(d, {.num_cores = 2});
  EXPECT_TRUE(validateSchedule(d, s).ok);
  // The chain forces at least 20 supersteps; shallow work fills them.
  EXPECT_GE(s.numSupersteps(), 20);
}

}  // namespace
}  // namespace sts::baselines
