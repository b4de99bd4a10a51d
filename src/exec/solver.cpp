#include "exec/solver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "baselines/bsplist.hpp"
#include "baselines/hdagg.hpp"
#include "baselines/wavefront.hpp"
#include "check/check.hpp"
#include "core/coarsen.hpp"
#include "exec/affinity.hpp"
#include "exec/bsp.hpp"
#include "exec/serial.hpp"
#include "obs/trace.hpp"
#include "sparse/permute.hpp"

namespace sts::exec {

std::string schedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kGrowLocal: return "GrowLocal";
    case SchedulerKind::kFunnelGrowLocal: return "Funnel+GL";
    case SchedulerKind::kWavefront: return "Wavefront";
    case SchedulerKind::kHdagg: return "HDagg";
    case SchedulerKind::kSpmp: return "SpMP";
    case SchedulerKind::kBspList: return "BSPg";
    case SchedulerKind::kSerial: return "Serial";
  }
  return "?";
}

TriangularSolver TriangularSolver::analyze(const CsrMatrix& matrix,
                                           const SolverOptions& options) {
  using Clock = std::chrono::high_resolution_clock;
  if (options.num_threads <= 0) {
    throw std::invalid_argument("TriangularSolver: num_threads must be > 0");
  }
  STS_TRACE_SPAN1("plan", "analyze", "rows",
                  static_cast<std::uint64_t>(matrix.rows()));
  TriangularSolver solver;
  solver.n_ = matrix.rows();
  solver.options_ = options;

  const bool reorder = options.reorder &&
                       options.scheduler != SchedulerKind::kSpmp &&
                       options.scheduler != SchedulerKind::kSerial;

  // Normalize to a lower triangular system. A lower triangular input is
  // read in place: the solver copies it only if the executor walks it
  // un-reordered, since the §5 reorder builds a matrix of its own.
  const CsrMatrix* lower = &matrix;
  if (matrix.isLowerTriangular()) {
    if (!reorder) solver.matrix_ = std::make_shared<const CsrMatrix>(matrix);
    solver.total_new_to_old_ = sparse::identityPermutation(matrix.rows());
  } else if (matrix.isUpperTriangular()) {
    std::vector<index_t> reversal(static_cast<size_t>(matrix.rows()));
    for (index_t i = 0; i < matrix.rows(); ++i) {
      reversal[static_cast<size_t>(i)] = matrix.rows() - 1 - i;
    }
    solver.matrix_ = std::make_shared<const CsrMatrix>(
        matrix.symmetricPermuted(reversal));
    lower = solver.matrix_.get();
    solver.total_new_to_old_ = std::move(reversal);
    solver.permuted_ = true;
  } else {
    throw std::invalid_argument("TriangularSolver: matrix is not triangular");
  }
  requireSolvableLower(*lower);

  // The CPUs the process may run on. hardware_concurrency() counts online
  // CPUs, not the affinity mask, so it is only the fallback.
  const auto mask = static_cast<int>(systemCoreSet().size());
  const int usable =
      mask > 0 ? mask : static_cast<int>(std::thread::hardware_concurrency());
  const auto clampToUsable = [usable](int width) {
    return usable > 0 ? std::min(width, usable) : width;
  };

  const auto t0 = Clock::now();
  const dag::Dag dag = [&] {
    STS_TRACE_SPAN("plan", "dag_build");
    return dag::Dag::fromLowerTriangular(*lower);
  }();

  core::GrowLocalOptions gl = options.growlocal;
  gl.num_cores = options.num_threads;

  {
    STS_TRACE_SPAN("plan", "schedule");
    switch (options.scheduler) {
      case SchedulerKind::kGrowLocal:
        if (options.num_schedule_blocks > 1) {
          core::BlockScheduleOptions block;
          block.num_blocks = options.num_schedule_blocks;
          block.growlocal = gl;
          solver.schedule_ = core::blockGrowLocalSchedule(dag, block);
        } else {
          solver.schedule_ = core::growLocalSchedule(dag, gl);
        }
        break;
      case SchedulerKind::kFunnelGrowLocal: {
        // The funnel's transitive reduction runs at the default team, the
        // width solves run at.
        core::FunnelOptions funnel;
        funnel.num_threads = clampToUsable(options.num_threads);
        solver.schedule_ = core::funnelGrowLocalSchedule(dag, gl, funnel);
        break;
      }
      case SchedulerKind::kWavefront:
        solver.schedule_ = baselines::wavefrontSchedule(
            dag, baselines::WavefrontOptions{.num_cores = options.num_threads});
        break;
      case SchedulerKind::kHdagg: {
        baselines::HdaggOptions ho;
        ho.num_cores = options.num_threads;
        solver.schedule_ = baselines::hdaggSchedule(dag, ho);
        break;
      }
      case SchedulerKind::kSpmp: {
        // SpMP's per-level tasks run on the superstep walk, whose peer
        // waits already wait only on the producer tasks a task reads from;
        // no executor reads a transitively reduced DAG.
        baselines::SpmpOptions so;
        so.num_cores = options.num_threads;
        so.transitive_reduction = false;
        solver.schedule_ = baselines::spmpSchedule(dag, so).schedule;
        break;
      }
      case SchedulerKind::kBspList:
        solver.schedule_ = baselines::bspListSchedule(
            dag, baselines::BspListOptions{.num_cores = options.num_threads});
        break;
      case SchedulerKind::kSerial:
        solver.schedule_ = core::Schedule::serial(dag);
        break;
    }
  }

  if (options.validate) {
    const auto validation = core::validateSchedule(dag, solver.schedule_);
    if (!validation.ok) {
      throw std::logic_error("TriangularSolver: scheduler produced an "
                             "invalid schedule: " + validation.message);
    }
  }
#if STS_CHECKS
  // Checked builds audit every analysis, not just validate-opted ones, and
  // through the independent check:: re-derivation rather than the library's
  // own validator (check/check.hpp).
  check::enforce(check::validateSchedule(dag, solver.schedule_),
                 "TriangularSolver::analyze");
#endif

  const core::FoldPolicy policy = options.fold_policy;
  if (reorder) {
    core::ReorderedProblem problem = [&] {
      STS_TRACE_SPAN("plan", "reorder");
      return core::reorderForLocality(*lower, solver.schedule_);
    }();
    solver.total_new_to_old_ = sparse::composePermutations(
        solver.total_new_to_old_, problem.new_to_old);
    solver.permuted_ = true;
    solver.matrix_ =
        std::make_shared<const CsrMatrix>(std::move(problem.matrix));
    STS_TRACE_SPAN("plan", "executor_build");
    solver.executor_ = std::make_unique<BspExecutor>(
        *solver.matrix_, problem.num_supersteps, problem.num_cores,
        std::move(problem.group_ptr), policy);
  } else {
    STS_TRACE_SPAN("plan", "executor_build");
    solver.executor_ = std::make_unique<BspExecutor>(
        *solver.matrix_, solver.schedule_, policy);
  }
  solver.analysis_seconds_ =
      std::chrono::duration<double>(Clock::now() - t0).count();
  solver.stats_ = core::computeScheduleStats(dag, solver.schedule_,
                                             gl.sync_cost_l);

  // The lossless clamp: schedules keep their analyzed width (folding
  // re-targets them to any t <= numThreads() at solve time), but the
  // default execution team never exceeds the CPUs the process may run on —
  // oversubscribed superstep waiters would otherwise yield-spin against
  // absent cores.
  solver.default_team_ = clampToUsable(solver.numThreads());

  solver.default_ctx_ = solver.createContext();
  return solver;
}

int TriangularSolver::clampTeam(std::optional<int> team) const {
  if (!team) return default_team_;
  if (*team < 1) {
    throw std::invalid_argument(
        "TriangularSolver: per-solve team size must be >= 1");
  }
  return std::min(*team, numThreads());
}

std::unique_ptr<SolveContext> TriangularSolver::createContext() const {
  return std::make_unique<SolveContext>(numThreads(), n_);
}

void TriangularSolver::solve(std::span<const double> b, std::span<double> x,
                             SolveContext& ctx, std::optional<int> team) const {
  if (static_cast<index_t>(b.size()) != n_ ||
      static_cast<index_t>(x.size()) != n_) {
    throw std::invalid_argument("TriangularSolver::solve: size mismatch");
  }
  if (!permuted_) {
    solvePermuted(b, x, ctx, team);
    return;
  }
  const auto n = static_cast<size_t>(n_);
  auto b_perm = ctx.bScratch(n);
  auto x_perm = ctx.xScratch(n);
  for (size_t i = 0; i < n; ++i) {
    b_perm[i] = b[static_cast<size_t>(total_new_to_old_[i])];
  }
  solvePermuted(b_perm, x_perm, ctx, team);
  for (size_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(total_new_to_old_[i])] = x_perm[i];
  }
}

void TriangularSolver::solve(std::span<const double> b,
                             std::span<double> x) const {
  solve(b, x, *default_ctx_);
}

void TriangularSolver::solveMultiRhs(std::span<const double> b,
                                     std::span<double> x, index_t nrhs,
                                     SolveContext& ctx,
                                     std::optional<int> team) const {
  const auto n = static_cast<size_t>(n_);
  if (nrhs <= 0 || b.size() != n * static_cast<size_t>(nrhs) ||
      x.size() != b.size()) {
    throw std::invalid_argument(
        "TriangularSolver::solveMultiRhs: size mismatch");
  }
  if (nrhs == 1) {
    solve(b, x, ctx, team);
    return;
  }
  const TileLayout layout = tileLayout(nrhs);
  const auto r = static_cast<size_t>(nrhs);
  auto b_tiled = ctx.bScratch(n * r);
  auto x_tiled = ctx.xScratch(n * r);
  // Fused permute + pack: one pass builds each tile directly from the
  // original-order rows (identity permutation when not reordered).
  for (index_t t = 0; t < layout.numTiles(); ++t) {
    const auto w = static_cast<size_t>(layout.tileWidth(t));
    const auto c0 = static_cast<size_t>(layout.tileBegin(t));
    double* dst = b_tiled.data() + layout.tileOffset(t);
    for (size_t i = 0; i < n; ++i) {
      const auto row =
          permuted_ ? static_cast<size_t>(total_new_to_old_[i]) : i;
      const double* src = b.data() + row * r + c0;
      for (size_t c = 0; c < w; ++c) dst[i * w + c] = src[c];
    }
  }
  solveTiles(b_tiled, x_tiled, layout, ctx, team);
  // Fused unpack + unpermute.
  for (index_t t = 0; t < layout.numTiles(); ++t) {
    const auto w = static_cast<size_t>(layout.tileWidth(t));
    const auto c0 = static_cast<size_t>(layout.tileBegin(t));
    const double* src = x_tiled.data() + layout.tileOffset(t);
    for (size_t i = 0; i < n; ++i) {
      const auto row =
          permuted_ ? static_cast<size_t>(total_new_to_old_[i]) : i;
      double* dst = x.data() + row * r + c0;
      for (size_t c = 0; c < w; ++c) dst[c] = src[i * w + c];
    }
  }
}

TileLayout TriangularSolver::tileLayout(index_t nrhs,
                                        index_t tile_cols) const {
  const index_t width = tile_cols > 0        ? tile_cols
                        : options_.tile_cols > 0 ? options_.tile_cols
                                                 : pickTileCols(n_);
  return TileLayout(n_, nrhs, width);
}

void TriangularSolver::solveTiles(std::span<const double> b_tiled,
                                  std::span<double> x_tiled,
                                  const TileLayout& layout, SolveContext& ctx,
                                  std::optional<int> team) const {
  executor_->solveTiles(b_tiled, x_tiled, layout, ctx, clampTeam(team));
}

std::size_t TriangularSolver::storageBytesMoved(
    int threads, core::FoldPolicy policy, StorageKind /*storage*/) const {
  if (policy != options_.fold_policy) {
    throw std::invalid_argument(
        "TriangularSolver::storageBytesMoved: policy must be the solver's "
        "own");
  }
  (void)clampTeam(threads);  // a team below 1 throws, as in a solve
  return csrBytesMoved(matrix_->rows(), matrix_->nnz());
}

void TriangularSolver::solvePermuted(std::span<const double> b,
                                     std::span<double> x, SolveContext& ctx,
                                     std::optional<int> team) const {
  if (static_cast<index_t>(b.size()) != n_ ||
      static_cast<index_t>(x.size()) != n_) {
    throw std::invalid_argument(
        "TriangularSolver::solvePermuted: size mismatch");
  }
  executor_->solve(b, x, ctx, clampTeam(team));
}

}  // namespace sts::exec
