#pragma once

#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "dag/dag.hpp"
#include "exec/elastic.hpp"
#include "exec/executor.hpp"
#include "sparse/csr.hpp"

/// \file p2p.hpp
/// Asynchronous point-to-point executor in the style of SpMP [PSSD14]:
/// no global barriers — each thread walks its own vertex list in level
/// order and waits only on the cross-thread parents that survive the
/// approximate transitive reduction (spinning, then yielding every 4096
/// spins so a descheduled producer is not starved — spinUntil).
/// Completion flags are epoch-stamped so that repeated solves need no O(n)
/// reset; on uint32 epoch wraparound the SolveContext clears the flags so
/// a stale stamp can never alias a fresh epoch.
///
/// Elasticity (executor.hpp): the vertex lists fold by the rank map of the
/// executor's fold policy (superstep-major order preserved) while the wait
/// lists stay fixed — a dependency whose source folds onto the waiter's
/// own thread is computed earlier in that thread's list, so its spin
/// resolves immediately. Deadlock freedom carries over for any
/// rank-granularity map because folded cross-thread parents still sit in
/// strictly earlier supersteps.

namespace sts::exec {

using core::Schedule;
using dag::Dag;
using sparse::CsrMatrix;
using sts::index_t;
using sts::offset_t;

class P2pExecutor final : public Executor {
 public:
  /// `schedule` provides the per-thread vertex order (its superstep
  /// structure is ignored at run time); `sync_dag` lists the dependency
  /// edges to wait on (typically the transitively reduced DAG; passing the
  /// full DAG is valid but waits on more edges).
  P2pExecutor(const CsrMatrix& lower, const Schedule& schedule,
              const Dag& sync_dag,
              core::FoldPolicy policy = core::FoldPolicy::kModulo);

  /// `ctx` carries the epoch-stamped completion flags.
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int team) const override;
  /// The completion flags are epoch-granular — they cannot express "row i
  /// done for tile t" — so the executor runs one full dependency-resolved
  /// pass per tile, each under a fresh epoch. The tiled walk therefore
  /// re-streams the matrix once per tile.
  void solveTiles(std::span<const double> b, std::span<double> x,
                  const TileLayout& layout, SolveContext& ctx,
                  int team) const override;

  /// Total cross-thread dependencies the executor waits on (diagnostic:
  /// shows the sparsification effect of the transitive reduction).
  offset_t numCrossDependencies() const { return cross_deps_; }

 private:
  /// The per-thread vertex execution order of a `team`-thread team
  /// (superstep boundaries kept so the lists can fold onto smaller teams):
  /// the full-width order, or that order folded by rankMap(team) on first
  /// use and cached.
  const detail::FoldedLists& plan(int team) const;
  /// Checks (team, ctx) and runs one P2P walk of `kernel` on RHS tile
  /// `tile` over the team's plan.
  template <typename Kernel>
  void walk(SolveContext& ctx, int team, std::size_t tile,
            const Kernel& kernel, const char* who) const;

  offset_t cross_deps_ = 0;
  /// The full-width order; also the source every folded one is built from.
  detail::FoldedLists full_;
  /// wait_list of vertex v: cross-thread parents in the sync DAG, stored
  /// flat: wait_adj_[wait_ptr_[v] .. wait_ptr_[v+1]).
  std::vector<offset_t> wait_ptr_;
  std::vector<index_t> wait_adj_;
  detail::TeamPlanCache<detail::FoldedLists> folded_;
};

}  // namespace sts::exec
