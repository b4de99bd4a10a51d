#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "exec/elastic.hpp"
#include "exec/peer_waits.hpp"
#include "exec/slab.hpp"
#include "exec/solve_context.hpp"
#include "exec/storage.hpp"
#include "exec/tile.hpp"
#include "sparse/csr.hpp"

/// \file bsp.hpp
/// Superstep-synchronous SpTRSV executor: runs a validated Schedule
/// superstep by superstep (the execution model of §2.2). At each superstep
/// boundary a thread waits only for the peers whose rows it reads next
/// (peer_waits.hpp) instead of for the whole team. The per-thread work
/// lists and their peer waits are precomputed at construction so that the
/// hot solve path touches only flat arrays.
///
/// Reentrancy contract (see solve_context.hpp): executors are immutable
/// after construction; the only per-solve mutable state is the per-thread
/// superstep progress words, which live in the SolveContext. The
/// context-taking overloads are `const` and safe to call concurrently as
/// long as every concurrent solve uses its own context. The context-free
/// overloads run on a shared built-in context and therefore remain
/// one-solve-at-a-time.
///
/// Elasticity: every context-taking overload accepts a per-solve `team`
/// size 1 <= team <= numThreads() and optionally a core::FoldPolicy
/// selecting the rank map (kModulo: p -> p mod team; kBinPack: LPT packing
/// of whole ranks by per-superstep nnz load — see elastic.hpp). Results
/// are bitwise equal to the full-width solve under every policy. Folded
/// plans are cached per (team size, policy) — construction cost is paid
/// once, concurrent solves at mixed team sizes and policies are safe.
///
/// Storage: the most-explicit overloads additionally take a StorageKind.
/// kSharedCsr walks the shared matrix through row_ptr/col_idx; kSlab
/// streams per-thread packed row records (slab.hpp) built lazily per
/// (team, policy) and cached beside the folded lists. Both layouts run
/// the identical arithmetic, so storage never changes results.
///
/// Both executors run every solve through the one superstep walk of
/// walk.hpp; only the plan (row lists or row ranges, or their slabs, with
/// the plan's peer waits) and the row kernel (one RHS or one RHS column
/// tile) differ. Peer waits are cached per (team, policy) like the plans:
/// the full-width waits are built at construction, folded ones with their
/// folded plans.

namespace sts::exec {

using core::Schedule;
using sparse::CsrMatrix;
using sts::index_t;
using sts::offset_t;

class BspExecutor {
 public:
  /// `lower` must satisfy requireSolvableLower; `schedule` must be a valid
  /// schedule of the matrix's DAG (validateSchedule) — both are the
  /// caller's analysis-phase responsibility; the constructor re-checks the
  /// matrix but not the schedule (O(V·E) validation is opt-in).
  BspExecutor(const CsrMatrix& lower, const Schedule& schedule);

  /// x = L^{-1} b on a `team`-thread OpenMP team (the schedule folded to
  /// `team` ranks under `policy`, walking the matrix through `storage`);
  /// `ctx` carries the superstep progress words. Concurrent solves need
  /// distinct contexts. Throws std::invalid_argument unless
  /// 1 <= team <= numThreads().
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int team, core::FoldPolicy policy,
             StorageKind storage) const;
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int team, core::FoldPolicy policy) const;
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int team) const;
  /// Full-width team.
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx) const;
  /// Convenience overload on the built-in context (one solve at a time).
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Tiled SpTRSM: X = L^{-1} B with B and X packed as `layout` column
  /// tiles (tile.hpp; a single tile is the row-major n x nrhs matrix).
  /// Each superstep runs its rows once per tile between its peer waits and
  /// its progress store — one synchronization per superstep regardless of
  /// tile count — so every column is
  /// bitwise equal to solve() on that column. The schedule is RHS-count
  /// agnostic: each vertex simply carries nrhs times the work.
  void solveTiles(std::span<const double> b, std::span<double> x,
                  const TileLayout& layout, SolveContext& ctx, int team,
                  core::FoldPolicy policy, StorageKind storage) const;

  /// Matrix bytes one full sweep of `storage` streams (builds the slab
  /// plan on demand); the plans' side of the roofline byte model.
  std::size_t storageBytesMoved(int team, core::FoldPolicy policy,
                                StorageKind storage) const;

  /// A fresh context shaped for this executor.
  std::unique_ptr<SolveContext> createContext() const {
    return std::make_unique<SolveContext>(num_threads_, lower_.rows());
  }

  int numThreads() const { return num_threads_; }
  index_t numSupersteps() const { return num_supersteps_; }

 private:
  /// The folded work lists for (team, policy), cached per key; team ==
  /// numThreads() shares the unfolded `full_` lists across policies.
  const detail::FoldedLists& foldedPlan(int team,
                                        core::FoldPolicy policy) const;
  /// The packed per-thread slab storage for (team, policy), built lazily
  /// from the folded lists and cached beside them.
  const detail::SlabPlan& slabPlan(int team, core::FoldPolicy policy) const;
  /// The peer waits of the (team, policy) plan, built lazily from the
  /// folded lists and cached beside them.
  const detail::PeerWaits& peerWaits(int team, core::FoldPolicy policy) const;
  /// Checks (team, ctx) and runs the superstep walk of `kernel` over the
  /// (team, policy) plan in `storage`, `tiles` passes per superstep.
  template <typename Kernel>
  void walk(SolveContext& ctx, int team, core::FoldPolicy policy,
            StorageKind storage, std::size_t tiles, const Kernel& kernel,
            const char* who) const;

  const CsrMatrix& lower_;
  int num_threads_ = 0;
  index_t num_supersteps_ = 0;
  /// The full-width per-thread work lists (verts[t] with superstep
  /// boundaries step_ptr[t][s]); also the shared team == numThreads() plan.
  detail::FoldedLists full_;
  /// Per-(superstep, rank) nnz loads of `full_` (superstep-major); feeds
  /// the kBinPack rank maps.
  std::vector<core::weight_t> rank_loads_;
  /// The peer waits of `full_`; also the shared team == numThreads() waits.
  detail::PeerWaits full_waits_;
  detail::TeamPlanCache<detail::FoldedLists> folded_;
  detail::TeamPlanCache<detail::SlabPlan> slabs_;
  detail::TeamPlanCache<detail::PeerWaits> waits_;
  /// Backs the context-free overloads; mutable per-solve state only.
  mutable SolveContext default_ctx_;
};

/// Executor for the reordered problem (§5): every (superstep, core) group
/// is a contiguous row range of the permuted matrix, so the work lists are
/// just range boundaries — the best-locality configuration. Same
/// reentrancy contract as BspExecutor.
class ContiguousBspExecutor {
 public:
  ContiguousBspExecutor(const CsrMatrix& permuted_lower,
                        index_t num_supersteps, int num_cores,
                        std::vector<offset_t> group_ptr);

  /// Folded team solve: thread q executes the row ranges of every original
  /// rank the policy's rank map assigns to q, per superstep. The kSlab
  /// storage walk replaces the range walk by the same rows as packed
  /// records (identical order, identical results). 1 <= team <=
  /// numThreads().
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int team, core::FoldPolicy policy,
             StorageKind storage) const;
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int team, core::FoldPolicy policy) const;
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, int team) const;
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx) const;
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Tiled SpTRSM over the contiguous row ranges: same contract as
  /// BspExecutor::solveTiles.
  void solveTiles(std::span<const double> b, std::span<double> x,
                  const TileLayout& layout, SolveContext& ctx, int team,
                  core::FoldPolicy policy, StorageKind storage) const;

  /// Matrix bytes one full sweep of `storage` streams (builds the slab
  /// plan on demand); the plans' side of the roofline byte model.
  std::size_t storageBytesMoved(int team, core::FoldPolicy policy,
                                StorageKind storage) const;

  std::unique_ptr<SolveContext> createContext() const {
    return std::make_unique<SolveContext>(num_threads_, lower_.rows());
  }

  int numThreads() const { return num_threads_; }
  index_t numSupersteps() const { return num_supersteps_; }

 private:
  /// Folded plan for (team, policy): folded thread q's superstep-s work
  /// is a short list of contiguous row runs (one per surviving original
  /// rank, adjacent runs merged). Must implement the same rank map and
  /// concatenation order as Schedule::foldWith / foldThreadLists —
  /// test_elastic pins the implementations to each other.
  const detail::FoldedRanges& foldedPlan(int team,
                                         core::FoldPolicy policy) const;
  /// Slab storage for (team, policy): the row ranges materialized as
  /// per-thread packed record streams (identical row order).
  const detail::SlabPlan& slabPlan(int team, core::FoldPolicy policy) const;
  /// Same contract as BspExecutor::peerWaits.
  const detail::PeerWaits& peerWaits(int team, core::FoldPolicy policy) const;
  /// Same contract as BspExecutor::walk.
  template <typename Kernel>
  void walk(SolveContext& ctx, int team, core::FoldPolicy policy,
            StorageKind storage, std::size_t tiles, const Kernel& kernel,
            const char* who) const;

  const CsrMatrix& lower_;
  index_t num_supersteps_ = 0;
  int num_threads_ = 0;
  /// The full-width plan: one run per non-empty group; also the shared
  /// team == numThreads() plan.
  detail::FoldedRanges full_;
  /// Per-(superstep, rank) nnz loads of the row ranges (superstep-major);
  /// feeds the kBinPack rank maps.
  std::vector<core::weight_t> rank_loads_;
  detail::PeerWaits full_waits_;
  detail::TeamPlanCache<detail::FoldedRanges> folded_;
  detail::TeamPlanCache<detail::SlabPlan> slabs_;
  detail::TeamPlanCache<detail::PeerWaits> waits_;
  mutable SolveContext default_ctx_;
};

}  // namespace sts::exec
