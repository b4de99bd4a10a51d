#include "exec/ssp.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "check/check.hpp"
#include "exec/affinity.hpp"
#include "exec/row_kernels.hpp"
#include "exec/serial.hpp"
#include "fault/failpoint.hpp"
#include "obs/trace.hpp"

namespace sts::exec {

namespace {

/// The SSP chunk region for the slab walk: stream records superstep by
/// superstep, barrier only when a chunk boundary passes. The kernel
/// receives (record, chunk_begin superstep, thread).
template <typename NotePinFn, typename KernelFn>
void sspSlabChunkRegion(const detail::SlabPlan& plan, index_t steps,
                        index_t chunk, int team, std::span<const int> pin_set,
                        SpinBarrier& barrier, obs::SolveTrace* sink,
                        NotePinFn&& note_pin, KernelFn&& kernel) {
  const bool sync = team > 1;
  omp_set_dynamic(0);
#pragma omp parallel num_threads(team)
  {
    const int t = omp_get_thread_num();
    const ScopedPin pin(pin_set, t);
    note_pin(pin);
    obs::StepTracer tracer(sink);
    int sense = barrier.initialSense();
    index_t step = 0;
    index_t chunk_begin = 0;
    std::uint64_t chunk_idx = 0;
    detail::forEachSlabRecord(
        plan.threads[static_cast<size_t>(t)], steps,
        [&](const detail::SlabRecordView& rec) { kernel(rec, chunk_begin, t); },
        [&] {
          ++step;
          if (step % chunk == 0 || step == steps) {
            // Chunk-boundary latency-spike failpoint (delay actions only:
            // a throw escaping this omp region would terminate).
            STS_FAILPOINT_RANK("exec.ssp_chunk", t);
            tracer.computeDone(chunk_idx);
            if (sync) {
              barrier.wait(sense, team);
              tracer.waitDone(chunk_idx);
            }
            ++chunk_idx;
            chunk_begin = step;
          }
        });
  }
}

}  // namespace

SspExecutor::SspExecutor(const CsrMatrix& lower, const Schedule& schedule)
    : SspExecutor(lower, schedule.numSupersteps(),
                  detail::listsFromSchedule(schedule)) {
  if (schedule.numVertices() != lower.rows()) {
    throw std::invalid_argument("SspExecutor: schedule/matrix size mismatch");
  }
}

SspExecutor::SspExecutor(const CsrMatrix& lower, index_t num_supersteps,
                         detail::FoldedLists lists)
    : lower_(lower),
      num_threads_(static_cast<int>(lists.verts.size())),
      num_supersteps_(num_supersteps) {
  requireSolvableLower(lower);
  if (num_threads_ <= 0 || num_supersteps_ <= 0 ||
      lists.step_ptr.size() != lists.verts.size()) {
    throw std::invalid_argument("SspExecutor: bad work lists");
  }
  size_t covered = 0;
  for (size_t t = 0; t < lists.verts.size(); ++t) {
    if (lists.step_ptr[t].size() !=
        static_cast<size_t>(num_supersteps_) + 1) {
      throw std::invalid_argument("SspExecutor: bad step boundaries");
    }
    covered += lists.verts[t].size();
  }
  if (covered != static_cast<size_t>(lower.rows())) {
    throw std::invalid_argument("SspExecutor: lists do not cover the matrix");
  }
  full_.lists = std::move(lists);
  full_.owner.assign(static_cast<size_t>(lower.rows()), 0);
  row_step_.assign(static_cast<size_t>(lower.rows()), 0);
  for (int t = 0; t < num_threads_; ++t) {
    const auto& verts = full_.lists.verts[static_cast<size_t>(t)];
    const auto& ptr = full_.lists.step_ptr[static_cast<size_t>(t)];
    for (index_t s = 0; s < num_supersteps_; ++s) {
      const auto begin = static_cast<size_t>(ptr[static_cast<size_t>(s)]);
      const auto end = static_cast<size_t>(ptr[static_cast<size_t>(s) + 1]);
      for (size_t k = begin; k < end; ++k) {
        full_.owner[static_cast<size_t>(verts[k])] = t;
        row_step_[static_cast<size_t>(verts[k])] = s;
      }
    }
  }
#if STS_CHECKS
  check::enforce(check::validateSspPlan(lower_, full_.lists, num_supersteps_),
                 "SspExecutor");
#endif
  rank_loads_ = detail::threadListLoads(
      full_.lists.verts, full_.lists.step_ptr, num_supersteps_,
      lower.rowPtr());
  plans_.init(num_threads_, &full_);
  slabs_.init(num_threads_);
}

detail::FoldedLists SspExecutor::listsFromGroupPtr(
    std::span<const offset_t> group_ptr, index_t num_supersteps,
    int num_cores) {
  detail::FoldedLists lists;
  lists.verts.resize(static_cast<size_t>(num_cores));
  lists.step_ptr.resize(static_cast<size_t>(num_cores));
  for (int t = 0; t < num_cores; ++t) {
    auto& verts = lists.verts[static_cast<size_t>(t)];
    auto& ptr = lists.step_ptr[static_cast<size_t>(t)];
    ptr.push_back(0);
    for (index_t s = 0; s < num_supersteps; ++s) {
      const size_t g = static_cast<size_t>(s) * static_cast<size_t>(num_cores) +
                       static_cast<size_t>(t);
      const auto lo = static_cast<index_t>(group_ptr[g]);
      const auto hi = static_cast<index_t>(group_ptr[g + 1]);
      for (index_t i = lo; i < hi; ++i) verts.push_back(i);
      ptr.push_back(static_cast<offset_t>(verts.size()));
    }
  }
  return lists;
}

const SspExecutor::SspPlan& SspExecutor::plan(int team,
                                              core::FoldPolicy policy) const {
  return plans_.get(team, policy, [this](int t, core::FoldPolicy pol) {
    STS_TRACE_SPAN1("plan", "ssp_fold_build", "team", t);
    const auto map =
        core::foldRankMap(num_supersteps_, num_threads_, t, pol, rank_loads_);
    SspPlan folded;
    folded.lists = detail::foldThreadLists(
        full_.lists.verts, full_.lists.step_ptr, num_supersteps_, t, map);
    folded.owner.assign(static_cast<size_t>(lower_.rows()), 0);
    for (size_t q = 0; q < folded.lists.verts.size(); ++q) {
      for (const index_t v : folded.lists.verts[q]) {
        folded.owner[static_cast<size_t>(v)] = static_cast<int>(q);
      }
    }
    return folded;
  });
}

const detail::SlabPlan& SspExecutor::slabPlan(int team,
                                              core::FoldPolicy policy) const {
  if (team == num_threads_) {
    // Policy-invariant at full width: one slab shared across policies.
    return slabs_.getPolicyShared(team, [this]([[maybe_unused]] int t) {
      STS_TRACE_SPAN1("plan", "slab_build", "team", t);
      return detail::buildSlabPlan(lower_, full_.lists);
    });
  }
  return slabs_.get(team, policy, [this](int t, core::FoldPolicy pol) {
    STS_TRACE_SPAN1("plan", "slab_build", "team", t);
    return detail::buildSlabPlan(lower_, plan(t, pol).lists);
  });
}

void SspExecutor::sweep(std::span<const double> rhs, std::span<double> x,
                        index_t nrhs, index_t staleness, SolveContext& ctx,
                        int team, core::FoldPolicy policy,
                        StorageKind storage) const {
  const SspPlan& exec_plan = plan(team, policy);
  const index_t chunk = staleness + 1;
  const index_t* row_step = row_step_.data();
  const int* owner = exec_plan.owner.data();
  const auto r = static_cast<size_t>(nrhs);

  if (storage == StorageKind::kSlab) {
    sspSlabChunkRegion(
        slabPlan(team, policy), num_supersteps_, chunk, team,
        ctx.pinnedCores(), ctx.barrier_, ctx.trace(),
        [&ctx](const ScopedPin& pin) { ctx.notePin(pin); },
        [&](const detail::SlabRecordView& rec, index_t chunk_begin, int t) {
          const detail::SspGuard guard{row_step, owner, chunk_begin, t};
          if (nrhs == 1) {
            detail::computeRowPackedSsp(rec.cols, rec.vals, rec.nnz, rec.diag,
                                        rhs, x, rec.row, guard);
          } else {
            detail::computeRowMultiPackedSsp(rec.cols, rec.vals, rec.nnz,
                                             rec.diag, rhs, x, rec.row, r,
                                             guard);
          }
        });
    return;
  }

  const auto row_ptr = lower_.rowPtr();
  const auto col_idx = lower_.colIdx();
  const auto values = lower_.values();
  const index_t steps = num_supersteps_;
  const bool sync = team > 1;
  const std::span<const int> pin_set = ctx.pinnedCores();
  SpinBarrier& barrier = ctx.barrier_;

  omp_set_dynamic(0);
#pragma omp parallel num_threads(team)
  {
    const int t = omp_get_thread_num();
    const ScopedPin pin(pin_set, t);
    ctx.notePin(pin);
    obs::StepTracer tracer(ctx.trace());
    int sense = barrier.initialSense();
    const auto& verts = exec_plan.lists.verts[static_cast<size_t>(t)];
    const auto& ptr = exec_plan.lists.step_ptr[static_cast<size_t>(t)];
    std::uint64_t chunk_idx = 0;
    for (index_t c0 = 0; c0 < steps; c0 += chunk) {
      const index_t c1 = std::min<index_t>(c0 + chunk, steps);
      const detail::SspGuard guard{row_step, owner, c0, t};
      for (index_t s = c0; s < c1; ++s) {
        const auto begin = static_cast<size_t>(ptr[static_cast<size_t>(s)]);
        const auto end = static_cast<size_t>(ptr[static_cast<size_t>(s) + 1]);
        for (size_t k = begin; k < end; ++k) {
          if (nrhs == 1) {
            detail::computeRowSsp(row_ptr, col_idx, values, rhs, x, verts[k],
                                  guard);
          } else {
            detail::computeRowMultiSsp(row_ptr, col_idx, values, rhs, x,
                                       verts[k], r, guard);
          }
        }
      }
      // Same chunk-boundary failpoint as the slab region (delay only).
      STS_FAILPOINT_RANK("exec.ssp_chunk", t);
      tracer.computeDone(chunk_idx);
      if (sync) {
        barrier.wait(sense, team);
        tracer.waitDone(chunk_idx);
      }
      ++chunk_idx;
    }
  }
}

double SspExecutor::updateAndResidual(std::span<const double> rhs,
                                      std::span<double> x,
                                      std::span<const double> e,
                                      std::span<double> r, index_t nrhs,
                                      SolveContext& ctx, int team,
                                      core::FoldPolicy policy) const {
  const SspPlan& exec_plan = plan(team, policy);
  const auto row_ptr = lower_.rowPtr();
  const auto col_idx = lower_.colIdx();
  const auto values = lower_.values();
  const bool sync = team > 1;
  const auto rr = static_cast<size_t>(nrhs);
  const std::span<const int> pin_set = ctx.pinnedCores();
  SpinBarrier& barrier = ctx.barrier_;
  // One padded slot per thread (8 doubles = a cache line apart).
  std::vector<double> partial(static_cast<size_t>(team) * 8, 0.0);

  omp_set_dynamic(0);
#pragma omp parallel num_threads(team)
  {
    const int t = omp_get_thread_num();
    const ScopedPin pin(pin_set, t);
    ctx.notePin(pin);
    obs::StepTracer tracer(ctx.trace());
    int sense = barrier.initialSense();
    const auto& verts = exec_plan.lists.verts[static_cast<size_t>(t)];
    if (!e.empty()) {
      // Phase 1: fold the correction into x (own rows only), then wait so
      // the residual phase reads a fully updated iterate.
      for (const index_t i : verts) {
        double* xi = x.data() + static_cast<size_t>(i) * rr;
        const double* ei = e.data() + static_cast<size_t>(i) * rr;
        for (size_t c = 0; c < rr; ++c) xi[c] += ei[c];
      }
      tracer.computeDone(0);
      if (sync) {
        barrier.wait(sense, team);
        tracer.waitDone(0);
      }
    }
    // Phase 2: r = rhs - L x over own rows (the diagonal entry included),
    // accumulating the thread-local infinity norm.
    double local = 0.0;
    for (const index_t i : verts) {
      const auto begin = static_cast<size_t>(row_ptr[static_cast<size_t>(i)]);
      const auto end =
          static_cast<size_t>(row_ptr[static_cast<size_t>(i) + 1]);
      const double* bi = rhs.data() + static_cast<size_t>(i) * rr;
      double* ri = r.data() + static_cast<size_t>(i) * rr;
      for (size_t c = 0; c < rr; ++c) ri[c] = bi[c];
      for (size_t k = begin; k < end; ++k) {
        const double a = values[k];
        const double* xj =
            x.data() + static_cast<size_t>(col_idx[k]) * rr;
        for (size_t c = 0; c < rr; ++c) ri[c] -= a * xj[c];
      }
      for (size_t c = 0; c < rr; ++c) {
        local = std::max(local, std::abs(ri[c]));
      }
    }
    partial[static_cast<size_t>(t) * 8] = local;
    tracer.computeDone(1);
  }
  double norm = 0.0;
  for (int t = 0; t < team; ++t) {
    norm = std::max(norm, partial[static_cast<size_t>(t) * 8]);
  }
  return norm;
}

SspResult SspExecutor::solveImpl(std::span<const double> b,
                                 std::span<double> x, index_t nrhs,
                                 const SspOptions& opts, SolveContext& ctx,
                                 int team, core::FoldPolicy policy,
                                 StorageKind storage) const {
  detail::requireVectorSizes(lower_, b, x, nrhs, "SspExecutor::solve");
  detail::requireTeamSize(team, num_threads_, "SspExecutor::solve");
  ctx.requireShape(team, lower_.rows(), "SspExecutor::solve");
  if (opts.staleness < 0) {
    throw std::invalid_argument("SspExecutor::solve: staleness must be >= 0");
  }
  if (opts.max_refinements < 0) {
    throw std::invalid_argument(
        "SspExecutor::solve: max_refinements must be >= 0");
  }
  const auto total =
      static_cast<size_t>(lower_.rows()) * static_cast<size_t>(nrhs);
  auto scratch = ctx.sspScratch(2 * total);
  const std::span<double> r = scratch.subspan(0, total);
  const std::span<double> e = scratch.subspan(total, total);

  SspResult result;
  sweep(b, x, nrhs, opts.staleness, ctx, team, policy, storage);
  result.residual = updateAndResidual(b, x, {}, r, nrhs, ctx, team, policy);
  while (result.residual > opts.tolerance &&
         result.refinements < opts.max_refinements) {
    sweep(r, e, nrhs, opts.staleness, ctx, team, policy, storage);
    ++result.refinements;
    result.residual = updateAndResidual(b, x, e, r, nrhs, ctx, team, policy);
  }
  result.converged = result.residual <= opts.tolerance;
  if (!result.converged) {
    // Iteration cap: re-solve exactly. A staleness-0 sweep IS the BSP
    // schedule walk, so the fallback result matches the exact executor
    // bitwise and its residual sits at the backward-stable level.
    sweep(b, x, nrhs, 0, ctx, team, policy, storage);
    result.fell_back = true;
    result.residual = updateAndResidual(b, x, {}, r, nrhs, ctx, team, policy);
    result.converged = result.residual <= opts.tolerance;
  }
  STS_TRACE_INSTANT("exec", "ssp_refine", "refinements",
                    static_cast<std::uint64_t>(result.refinements),
                    "fell_back", result.fell_back ? 1 : 0);
  return result;
}

SspResult SspExecutor::solve(std::span<const double> b, std::span<double> x,
                             const SspOptions& opts, SolveContext& ctx,
                             int team, core::FoldPolicy policy,
                             StorageKind storage) const {
  return solveImpl(b, x, 1, opts, ctx, team, policy, storage);
}

SspResult SspExecutor::solveMultiRhs(std::span<const double> b,
                                     std::span<double> x, index_t nrhs,
                                     const SspOptions& opts, SolveContext& ctx,
                                     int team, core::FoldPolicy policy,
                                     StorageKind storage) const {
  return solveImpl(b, x, nrhs, opts, ctx, team, policy, storage);
}

}  // namespace sts::exec
