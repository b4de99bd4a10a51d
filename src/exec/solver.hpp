#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "baselines/spmp.hpp"
#include "core/block.hpp"
#include "core/growlocal.hpp"
#include "core/reorder.hpp"
#include "core/schedule.hpp"
#include "exec/executor.hpp"
#include "exec/solve_context.hpp"
#include "sparse/csr.hpp"

/// \file solver.hpp
/// The downstream-user facade: analyze a triangular matrix once, then solve
/// with the same sparsity pattern many times (the SpTRSV use case the paper
/// targets — preconditioner applications, Gauss–Seidel sweeps, repeated
/// FEM solves, §1).
///
///   auto solver = sts::exec::TriangularSolver::analyze(L, options);
///   solver.solve(b, x);   // fast path, repeatable
///
/// Reentrancy contract (see solve_context.hpp): after analyze() the solver
/// is immutable; every solve entry point is `const` and takes a
/// SolveContext that carries all per-solve mutable state. N contexts from
/// createContext() permit N simultaneous solves on one analyzed solver —
/// the basis of the `engine::SolverEngine` serving subsystem:
///
///   auto ctx = solver.createContext();      // one per in-flight solve
///   solver.solve(b, x, *ctx);               // thread-safe across contexts
///
/// The context-free solve(b, x) runs on a built-in default context and
/// keeps the historical one-solve-at-a-time restriction.
///
/// ## Elasticity contract
///
/// Analyze once, solve many times (§1): the schedule, the §5 reordering
/// and the fold policy are analysis products, fixed by SolverOptions. Only the team width is re-targeted per solve: every
/// context-taking solve accepts an optional `team`,
/// 1 <= team <= numThreads(), executing the schedule folded onto that many
/// OpenMP threads (Schedule::foldTo; folded plans are cached per team
/// inside the executor). How ranks map onto the smaller team is
/// SolverOptions::fold_policy (kModulo preserves historical behavior;
/// kBinPack LPT-packs whole ranks by per-superstep work, cutting folded
/// imbalance). Folding is lossless under every policy — results are
/// bitwise equal to the full-width solve for every team size and
/// scheduler kind. An unset team runs at defaultTeam(): numThreads()
/// clamped to the CPUs the process may run on, so analyzing for more
/// threads than it has no longer yield-spins superstep waiters against
/// absent cores. Teams above numThreads() clamp to numThreads(); teams
/// below 1 throw std::invalid_argument.
///
/// ## Storage
///
/// Every solve walks the one analyzed CSR through row_ptr. With the §5
/// reordering each (superstep, core) group is a contiguous row range of
/// it, so a thread streams its rows in order without a private copy.
///
/// ## Affinity
///
/// Placement is a context property, not a solver one: arm a SolveContext
/// with a core set (SolveContext::setPinnedCores) and every solve on that
/// context pins OpenMP team member t to `cores[t % cores.size()]` for the
/// duration of the parallel region (no-op without platform support —
/// STS_HAS_AFFINITY). Pinning never changes results; the serving engine
/// uses it to keep concurrent batches on disjoint leased core sets (see
/// engine/core_budget.hpp and docs/ARCHITECTURE.md, contract 3).
///
/// Upper triangular inputs are normalized internally by the reversal
/// permutation (backward substitution is forward substitution on the
/// reversed system).

namespace sts::exec {

using core::Schedule;
using sparse::CsrMatrix;
using sts::index_t;

/// Which scheduling algorithm the analysis phase runs.
enum class SchedulerKind {
  kGrowLocal,        ///< the paper's contribution (§3)
  kFunnelGrowLocal,  ///< Funnel coarsening + GrowLocal (§4, §7.3)
  kWavefront,        ///< classic level sets [AS89]
  kHdagg,            ///< HDagg baseline [ZCL+22]
  kSpmp,             ///< SpMP baseline [PSSD14]; waits point-to-point
  kBspList,          ///< BSPg-style list scheduler [PAKY24]
  kSerial,           ///< no parallelism; reference configuration
};

std::string schedulerKindName(SchedulerKind kind);

struct SolverOptions {
  SchedulerKind scheduler = SchedulerKind::kGrowLocal;
  /// Width the schedule is analyzed for. May exceed the machine: execution
  /// clamps the *default* team to the CPUs the process may run on (see
  /// TriangularSolver::defaultTeam) by folding, which is lossless, so an
  /// oversubscribed analysis no longer yield-spins superstep waiters against
  /// absent cores.
  int num_threads = 2;
  /// Apply the §5 locality reordering (recommended; GrowLocal's headline
  /// configuration). Ignored for kSpmp (which relies on the original
  /// ordering) and kSerial.
  bool reorder = true;
  /// Diagonal blocks scheduled in parallel during analysis (§3.1); 1
  /// disables block decomposition. Only applies to GrowLocal variants.
  int num_schedule_blocks = 1;
  core::GrowLocalOptions growlocal;
  /// Validate the schedule during analysis (O(V+E); cheap insurance).
  bool validate = true;
  /// Rank map of elastic (folded-team) solves: kModulo is the p mod t
  /// fold; kBinPack packs ranks by per-superstep load.
  core::FoldPolicy fold_policy = core::FoldPolicy::kModulo;
  /// RHS column-tile width of the tiled multi-RHS path (tile.hpp); 0 sizes
  /// it automatically from the detected cache geometry (pickTileCols,
  /// overridable by STS_TILE_COLS). Explicit tileLayout() arguments
  /// override this per call. Tiling is a pure layout choice — results stay
  /// bitwise identical for every width.
  index_t tile_cols = 0;
};

/// The matrix layout argument of TriangularSolver::storageBytesMoved.
/// Every solve walks the analyzed CSR, so kSharedCsr is the only value.
enum class StorageKind { kSharedCsr = 0 };

/// The analyze-once product: an immutable bundle of (normalized matrix,
/// validated Schedule, executor with cached fold plans, permutation). All
/// solve entry points are `const`; everything a solve mutates lives in the
/// SolveContext it runs on. Move-constructible; executor references into
/// the matrix stay valid across moves (shared_ptr-held payloads).
class TriangularSolver {
 public:
  /// Runs the analysis phase: normalize to lower triangular, build the DAG,
  /// schedule, (optionally) reorder, and construct the executor.
  /// Throws std::invalid_argument for non-triangular or singular-diagonal
  /// inputs.
  static TriangularSolver analyze(const CsrMatrix& matrix,
                                  const SolverOptions& options = {});

  /// A fresh per-solve context shaped for this solver's executor. Each
  /// in-flight solve needs its own; contexts are reusable sequentially.
  std::unique_ptr<SolveContext> createContext() const;

  /// x = T^{-1} b in the ORIGINAL row ordering (permutations are internal).
  /// Safe to call concurrently with any other solve on this instance that
  /// uses another context. `team` selects the per-solve team (elasticity
  /// contract above); unset runs at defaultTeam().
  void solve(std::span<const double> b, std::span<double> x,
             SolveContext& ctx, std::optional<int> team = std::nullopt) const;
  /// Built-in-context convenience: one solve per instance at a time.
  void solve(std::span<const double> b, std::span<double> x) const;

  /// X = T^{-1} B for nrhs right-hand sides, b and x row-major n x nrhs in
  /// the ORIGINAL row ordering. One schedule traversal serves all nrhs
  /// solves, amortizing every superstep peer wait (Table 7.7's
  /// block-parallel idea); column c of X is bitwise equal to solve() on
  /// column c of B. The solve runs on the cache-sized column tiles of
  /// tileLayout(nrhs), with the permutation and the tile packing fused
  /// into one pass each way; nrhs == 1 is solve() itself.
  void solveMultiRhs(std::span<const double> b, std::span<double> x,
                     index_t nrhs, SolveContext& ctx,
                     std::optional<int> team = std::nullopt) const;

  /// Tiled SpTRSM on PRE-TILED, PRE-PERMUTED buffers: b and x are packed as
  /// `layout` column tiles (layout.rows() == numRows()) in the INTERNAL row
  /// order. The zero-copy entry the serving engine packs coalesced batches
  /// into directly (solver_engine.cpp) — no intermediate row-major matrix.
  void solveTiles(std::span<const double> b_tiled, std::span<double> x_tiled,
                  const TileLayout& layout, SolveContext& ctx,
                  std::optional<int> team = std::nullopt) const;

  /// The tile partition an nrhs-column tiled solve uses: width from
  /// `tile_cols` if > 0, else options().tile_cols, else the cache-sized
  /// pickTileCols default.
  TileLayout tileLayout(index_t nrhs, index_t tile_cols = 0) const;

  /// Matrix bytes one full sweep streams on a `threads`-wide team (clamped
  /// like a solve's team): the analyzed CSR (csrBytesMoved), whatever the
  /// team; the matrix side of the tools/roofline.py byte model. `policy`
  /// must be the solver's own (options().fold_policy); another throws
  /// std::invalid_argument, since no plan of another policy exists.
  std::size_t storageBytesMoved(int threads, core::FoldPolicy policy,
                                StorageKind storage) const;

  /// Solve with b and x in the solver's INTERNAL (schedule-permuted) row
  /// order: position i corresponds to original row permutation()[i].
  /// Workflows that keep their vectors in permuted space across many solves
  /// — as the paper's evaluation does (§5: "execute the SpTRSV computation
  /// on the permuted problem") — avoid the two O(n) vector permutations
  /// per solve() this way. Identical to solve() when no permutation was
  /// applied.
  void solvePermuted(std::span<const double> b, std::span<double> x,
                     SolveContext& ctx,
                     std::optional<int> team = std::nullopt) const;

  /// new_to_old map of the internal order (identity when not permuted).
  std::span<const index_t> permutation() const { return total_new_to_old_; }
  bool isPermuted() const { return permuted_; }

  index_t numRows() const { return n_; }
  /// Width the schedule was analyzed for (== schedule().numCores()); the
  /// maximum per-solve team size.
  int numThreads() const { return executor_->numThreads(); }
  /// Effective team of a solve without an explicit team: numThreads()
  /// clamped to the CPUs in the process's affinity mask (systemCoreSet(),
  /// its main thread's mask), read at analyze() (online CPUs where the
  /// mask cannot be read). A process started under `taskset -c 0` gets 1;
  /// a pin on some other analyzing thread does not shrink it. Folding
  /// makes the clamp lossless (bitwise-identical results on the same
  /// schedule).
  int defaultTeam() const { return default_team_; }
  const SolverOptions& options() const { return options_; }
  const Schedule& schedule() const { return schedule_; }
  const core::ScheduleStats& stats() const { return stats_; }
  /// Wall-clock seconds spent in analyze() (scheduling + reordering);
  /// feeds the amortization-threshold experiments (Eq. 7.1).
  double analysisSeconds() const { return analysis_seconds_; }

 private:
  TriangularSolver() = default;

  /// Maps a caller-requested team to a valid executor team: unset is
  /// defaultTeam(), values above numThreads() clamp down (lossless), values
  /// below 1 throw.
  int clampTeam(std::optional<int> team) const;

  index_t n_ = 0;
  SolverOptions options_;
  Schedule schedule_;
  core::ScheduleStats stats_;
  double analysis_seconds_ = 0.0;
  /// numThreads() clamped to the usable CPUs; see defaultTeam().
  int default_team_ = 1;

  /// Normalization: x solves the original system iff the permuted solve
  /// runs on *matrix_ with b permuted by total_new_to_old_.
  bool permuted_ = false;
  std::vector<index_t> total_new_to_old_;
  /// Heap-allocated so executor references stay valid across solver moves.
  std::shared_ptr<const CsrMatrix> matrix_;

  /// BspExecutor over row lists or, reordered, row ranges.
  std::unique_ptr<const Executor> executor_;

  /// Backs the context-free solve(b, x).
  std::unique_ptr<SolveContext> default_ctx_;
};

}  // namespace sts::exec
