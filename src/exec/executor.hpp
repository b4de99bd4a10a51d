#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "exec/solve_context.hpp"
#include "exec/tile.hpp"
#include "sparse/csr.hpp"

/// \file executor.hpp
/// The executor interface, implemented by BspExecutor (the superstep walk,
/// over row lists or the reordered problem's row ranges). Everything that
/// shapes a solve except its team is an analysis product: the schedule
/// and the fold policy mapping ranks onto a smaller team are fixed at
/// construction. A solve takes its data, a context and a team; every solve
/// walks the analyzed CSR.
///
/// Reentrancy contract (see solve_context.hpp): executors are immutable
/// after construction; everything a solve mutates lives in its
/// SolveContext, so concurrent solves with distinct contexts are safe.
///
/// Elasticity: a solve may run on any team 1 <= team <= numThreads(); the
/// plan is folded onto the team under the executor's fold policy and
/// cached per team (elastic.hpp), so its build is paid once. Results are
/// bitwise equal to the full-width solve for every team and policy.

namespace sts::exec {

class Executor {
 public:
  virtual ~Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  Executor(Executor&&) = delete;
  Executor& operator=(Executor&&) = delete;

  /// x = L^{-1} b on a `team`-thread team. `ctx` carries the per-solve
  /// synchronization state; concurrent solves need distinct contexts.
  /// Throws std::invalid_argument unless 1 <= team <= numThreads().
  virtual void solve(std::span<const double> b, std::span<double> x,
                     SolveContext& ctx, int team) const = 0;

  /// Tiled SpTRSM: X = L^{-1} B with B and X packed as `layout` column
  /// tiles (tile.hpp; a single tile is the row-major n x nrhs matrix).
  /// Every column is bitwise equal to solve() on that column.
  virtual void solveTiles(std::span<const double> b, std::span<double> x,
                          const TileLayout& layout, SolveContext& ctx,
                          int team) const = 0;

  /// A fresh context shaped for this executor.
  std::unique_ptr<SolveContext> createContext() const {
    return std::make_unique<SolveContext>(num_threads_, lower_.rows());
  }

  int numThreads() const { return num_threads_; }
  sts::index_t numSupersteps() const { return num_supersteps_; }

 protected:
  /// `lower` must satisfy requireSolvableLower (checked here).
  Executor(const sparse::CsrMatrix& lower, int num_threads,
           sts::index_t num_supersteps, core::FoldPolicy policy);

  /// Throws std::invalid_argument unless `team` is a valid team and `ctx`
  /// can host its solve.
  void requireSolve(const SolveContext& ctx, int team, const char* who) const;
  /// The rank map folding the full-width plan onto `team` threads under
  /// policy_, from the per-(superstep, rank) loads in rank_loads_.
  std::vector<int> rankMap(int team) const;

  const sparse::CsrMatrix& lower_;
  int num_threads_ = 0;
  sts::index_t num_supersteps_ = 0;
  core::FoldPolicy policy_;
  /// Per-(superstep, rank) nnz loads of the full-width plan
  /// (superstep-major); feeds the kBinPack rank maps.
  std::vector<core::weight_t> rank_loads_;
};

}  // namespace sts::exec
