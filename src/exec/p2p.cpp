#include "exec/p2p.hpp"

#include <numeric>
#include <stdexcept>

#include "exec/row_kernels.hpp"
#include "exec/walk.hpp"
#include "obs/trace.hpp"

namespace sts::exec {

P2pExecutor::P2pExecutor(const CsrMatrix& lower, const Schedule& schedule,
                         const Dag& sync_dag, core::FoldPolicy policy)
    : Executor(lower, schedule.numCores(), schedule.numSupersteps(), policy) {
  const index_t n = lower.rows();
  if (schedule.numVertices() != n || sync_dag.numVertices() != n) {
    throw std::invalid_argument("P2pExecutor: size mismatch");
  }
  full_ = detail::listsFromSchedule(schedule);
  rank_loads_ = detail::threadListLoads(full_.verts, full_.step_ptr,
                                        num_supersteps_, lower.rowPtr());
  folded_.init(num_threads_, &full_);

  // Cross-thread parents in the sync DAG, flattened per vertex.
  wait_ptr_.assign(static_cast<size_t>(n) + 1, 0);
  for (index_t v = 0; v < n; ++v) {
    offset_t cnt = 0;
    for (const index_t u : sync_dag.parents(v)) {
      cnt += (schedule.coreOf(u) != schedule.coreOf(v)) ? 1 : 0;
    }
    wait_ptr_[static_cast<size_t>(v) + 1] = cnt;
  }
  std::partial_sum(wait_ptr_.begin(), wait_ptr_.end(), wait_ptr_.begin());
  wait_adj_.resize(static_cast<size_t>(wait_ptr_.back()));
  {
    offset_t k = 0;
    for (index_t v = 0; v < n; ++v) {
      for (const index_t u : sync_dag.parents(v)) {
        if (schedule.coreOf(u) != schedule.coreOf(v)) {
          wait_adj_[static_cast<size_t>(k++)] = u;
        }
      }
    }
  }
  cross_deps_ = wait_ptr_.back();
}

const detail::FoldedLists& P2pExecutor::plan(int team) const {
  return folded_.get(team, [this](int t) {
    STS_TRACE_SPAN1("plan", "fold_build", "team", t);
    return detail::foldThreadLists(full_.verts, full_.step_ptr,
                                   num_supersteps_, t, rankMap(t));
  });
}

template <typename Kernel>
void P2pExecutor::walk(SolveContext& ctx, int team, std::size_t tile,
                       const Kernel& kernel, const char* who) const {
  requireSolve(ctx, team, who);
  detail::TeamWalk::p2p(ctx, team, num_supersteps_, plan(team),
                        detail::WaitLists{wait_ptr_, wait_adj_}, tile, kernel);
}

void P2pExecutor::solve(std::span<const double> b, std::span<double> x,
                        SolveContext& ctx, int team) const {
  detail::requireVectorSizes(lower_, b, x, 1, "P2pExecutor::solve");
  walk(ctx, team, 0, detail::RhsKernel(lower_, b, x), "P2pExecutor::solve");
}

void P2pExecutor::solveTiles(std::span<const double> b, std::span<double> x,
                             const TileLayout& layout, SolveContext& ctx,
                             int team) const {
  requireTileShapes(lower_.rows(), layout, b, x, "P2pExecutor::solveTiles");
  // One full pass per tile, each under its own epoch: the flags cannot
  // track partial-tile completion, and re-resolving the (sparsified)
  // dependency structure per tile is the price of the cache-resident tile.
  const TileViews tiles = makeTileViews(layout, b, x);
  const detail::TileKernel kernel(lower_, tiles);
  for (std::size_t tile = 0; tile < tiles.width.size(); ++tile) {
    walk(ctx, team, tile, kernel, "P2pExecutor::solveTiles");
  }
}

}  // namespace sts::exec
