#pragma once

#include <span>
#include <variant>
#include <vector>

#include "core/schedule.hpp"
#include "exec/elastic.hpp"
#include "exec/executor.hpp"
#include "exec/peer_waits.hpp"
#include "sparse/csr.hpp"

/// \file bsp.hpp
/// Superstep-synchronous SpTRSV executor: runs a validated schedule
/// superstep by superstep (the execution model of §2.2). At each superstep
/// boundary a thread waits only for the peers whose rows it reads next
/// (peer_waits.hpp) instead of for the whole team. The per-thread work
/// lists and their peer waits are precomputed so that the hot solve path
/// touches only flat arrays.
///
/// One executor serves both superstep plans; they differ only in how the
/// plan is built and folded:
///   * ROW LISTS — thread t runs core t's vertex groups of a Schedule;
///   * ROW RANGES — the reordered problem (§5): every (superstep, core)
///     group is a contiguous row range of the permuted matrix, so the work
///     lists are just range boundaries — the best-locality configuration.
///
/// A team's plan bundles its rows and their peer waits. The full-width
/// plan is built at construction; folded ones on a team's first solve
/// (Executor contract, executor.hpp).

namespace sts::exec {

using core::Schedule;
using sparse::CsrMatrix;
using sts::index_t;
using sts::offset_t;

class BspExecutor final : public Executor {
 public:
  /// Row-list plan of `schedule`, which must be a valid schedule of the
  /// matrix's DAG (validateSchedule) — the caller's analysis-phase
  /// responsibility; the constructor re-checks the matrix but not the
  /// schedule (O(V·E) validation is opt-in).
  BspExecutor(const CsrMatrix& lower, const Schedule& schedule,
              core::FoldPolicy policy = core::FoldPolicy::kModulo);

  /// Row-range plan: group (s, p) is the row range
  /// [group_ptr[g], group_ptr[g + 1]) of `permuted_lower`,
  /// g = s * num_cores + p (core::reorderForLocality's layout).
  BspExecutor(const CsrMatrix& permuted_lower, index_t num_supersteps,
              int num_cores, std::vector<offset_t> group_ptr,
              core::FoldPolicy policy = core::FoldPolicy::kModulo);

  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int team) const override;
  /// Each superstep runs its rows once per tile between its peer waits
  /// and its progress store — one synchronization per superstep whatever
  /// the tile count. The schedule is RHS-count agnostic: each vertex
  /// simply carries nrhs times the work.
  void solveTiles(std::span<const double> b, std::span<double> x,
                  const TileLayout& layout, SolveContext& ctx,
                  int team) const override;

 private:
  using Rows = std::variant<detail::FoldedLists, detail::FoldedRanges>;
  struct TeamPlan {
    Rows rows;
    detail::PeerWaits waits;
  };

  /// Completes a team's plan from its rows: builds the peer waits.
  TeamPlan makePlan(Rows rows, int team) const;
  /// The plan of a `team`-thread team: the full-width plan, or the rows
  /// folded by rankMap(team) on first use and cached. Folded range runs
  /// keep the row-list concatenation order of Schedule::foldWith —
  /// test_elastic pins the implementations to each other.
  const TeamPlan& plan(int team) const;
  /// Checks (team, ctx) and runs the superstep walk of `kernel` over the
  /// team's plan, `tiles` passes per superstep.
  template <typename Kernel>
  void walk(SolveContext& ctx, int team, std::size_t tiles,
            const Kernel& kernel, const char* who) const;

  TeamPlan full_;
  detail::TeamPlanCache<TeamPlan> folded_;
};

}  // namespace sts::exec
