#pragma once

#include <omp.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include "exec/affinity.hpp"
#include "exec/elastic.hpp"
#include "exec/peer_waits.hpp"
#include "exec/row_kernels.hpp"
#include "exec/solve_context.hpp"
#include "exec/spin_wait.hpp"
#include "exec/tile.hpp"
#include "fault/failpoint.hpp"
#include "obs/trace.hpp"
#include "sparse/csr.hpp"

/// \file walk.hpp
/// The one OpenMP team region of the executor — the execution model of
/// §2.2 written once. Each thread walks its rows superstep by superstep
/// and waits, per boundary, only for the peers its next superstep reads
/// from (peer_waits.hpp); no team barrier is crossed. BspExecutor runs it
/// over row lists (every scheduler without the §5 reordering, SpMP's level
/// tasks included) or over the reordered problem's row ranges.
///
/// The walk is instantiated with
///   * a PLAN — the per-thread rows of one (team, fold policy) of the
///     analyzed CSR: a row list (FoldedLists) or contiguous row runs
///     (FoldedRanges). threadRows(plan, t) is thread t's cursor;
///     forEach(s, fn) visits its superstep-s rows in execution order;
///   * a ROW KERNEL — RhsKernel (one right-hand side) or TileKernel (one
///     RHS column tile), called as kernel(row, tile). Both kernels run the
///     shared row_kernels.hpp arithmetic, so the plan and the RHS shape
///     never change a result bit.
///
/// Every check the solve region makes lives here and nowhere else: the
/// team size is pinned (omp_set_dynamic(0)), each member takes its
/// ScopedPin and reports it, an obs::StepTracer attributes compute against
/// wait, and tools/check_conventions.py rejects any other team region in
/// src/exec.

namespace sts::exec::detail {

/// Thread t's cursor over a row-list plan.
class ListRows {
 public:
  ListRows(const FoldedLists& plan, int t)
      : verts_(plan.verts[static_cast<std::size_t>(t)].data()),
        ptr_(plan.step_ptr[static_cast<std::size_t>(t)].data()) {}

  template <typename Fn>
  void forEach(index_t s, Fn&& fn) const {
    const offset_t end = ptr_[static_cast<std::size_t>(s) + 1];
    for (offset_t k = ptr_[static_cast<std::size_t>(s)]; k < end; ++k) {
      fn(verts_[static_cast<std::size_t>(k)]);
    }
  }

 private:
  const index_t* verts_;
  const offset_t* ptr_;
};

/// Thread t's cursor over a row-range plan.
class RangeRows {
 public:
  RangeRows(const FoldedRanges& plan, int t)
      : runs_(plan.runs[static_cast<std::size_t>(t)].data()),
        ptr_(plan.step_ptr[static_cast<std::size_t>(t)].data()) {}

  template <typename Fn>
  void forEach(index_t s, Fn&& fn) const {
    const offset_t end = ptr_[static_cast<std::size_t>(s) + 1];
    for (offset_t k = ptr_[static_cast<std::size_t>(s)]; k < end; ++k) {
      const auto [lo, hi] = runs_[static_cast<std::size_t>(k)];
      for (index_t i = lo; i < hi; ++i) fn(i);
    }
  }

 private:
  const std::pair<index_t, index_t>* runs_;
  const offset_t* ptr_;
};

inline ListRows threadRows(const FoldedLists& plan, int t) {
  return {plan, t};
}
inline RangeRows threadRows(const FoldedRanges& plan, int t) {
  return {plan, t};
}

/// x = L^{-1} b, one row at a time (computeRow). The tile index is
/// always 0.
class RhsKernel {
 public:
  RhsKernel(const sparse::CsrMatrix& lower, std::span<const double> b,
            std::span<double> x)
      : row_ptr_(lower.rowPtr()), col_idx_(lower.colIdx()),
        values_(lower.values()), b_(b), x_(x) {}

  void operator()(index_t i, std::size_t /*tile*/) const {
    computeRow(row_ptr_, col_idx_, values_, b_, x_, i);
  }

 private:
  std::span<const offset_t> row_ptr_;
  std::span<const index_t> col_idx_;
  std::span<const double> values_;
  std::span<const double> b_;
  std::span<double> x_;
};

/// One RHS column tile of a tiled solve (computeRowMultiTiled).
class TileKernel {
 public:
  TileKernel(const sparse::CsrMatrix& lower, const TileViews& tiles)
      : row_ptr_(lower.rowPtr()), col_idx_(lower.colIdx()),
        values_(lower.values()), tiles_(&tiles) {}

  void operator()(index_t i, std::size_t tile) const {
    computeRowMultiTiled(row_ptr_, col_idx_, values_, tiles_->b[tile],
                         tiles_->x[tile], i, tiles_->width[tile]);
  }

 private:
  std::span<const offset_t> row_ptr_;
  std::span<const index_t> col_idx_;
  std::span<const double> values_;
  const TileViews* tiles_;
};

/// The walk. A struct so SolveContext can befriend it.
struct TeamWalk {
  /// Superstep walk on a `team`-thread team: before its superstep-s rows,
  /// thread t spins until each peer u its `waits` list for s names has
  /// finished the listed superstep r (progress word >= base + r + 1); it
  /// then runs its rows once per RHS tile (tiles 0 .. tiles - 1) and
  /// release-stores base + s + 1 into its own word. The waits are per
  /// superstep whatever the tile count; a team of 1 neither waits nor
  /// stores.
  template <typename Plan, typename Kernel>
  static void supersteps(SolveContext& ctx, int team, index_t steps,
                         const Plan& plan, const PeerWaits& waits,
                         std::size_t tiles, const Kernel& kernel) {
    const bool sync = team > 1;
    const std::uint64_t base = ctx.beginSuperstepSolve(steps);
    SolveContext::ProgressWord* const progress = ctx.progress_.get();
    const std::span<const int> pin_set = ctx.pinnedCores();
    omp_set_dynamic(0);
#pragma omp parallel num_threads(team)
    {
      const int t = omp_get_thread_num();
      const ScopedPin pin(pin_set, t);
      ctx.notePin(pin);
      obs::StepTracer tracer(ctx.trace());
      const Kernel row_kernel = kernel;
      const auto rows = threadRows(plan, t);
      const PeerWait* const wait =
          waits.waits[static_cast<std::size_t>(t)].data();
      const offset_t* const wait_ptr =
          waits.step_ptr[static_cast<std::size_t>(t)].data();
      std::atomic<std::uint64_t>& mine = progress[t].value;
      for (index_t s = 0; s < steps; ++s) {
        if (sync) {
          const offset_t end = wait_ptr[static_cast<std::size_t>(s) + 1];
          for (offset_t k = wait_ptr[static_cast<std::size_t>(s)]; k < end;
               ++k) {
            const PeerWait w = wait[static_cast<std::size_t>(k)];
            const std::atomic<std::uint64_t>& word = progress[w.peer].value;
            const std::uint64_t target =
                base + static_cast<std::uint64_t>(w.step) + 1;
            spinUntil([&] {
              return word.load(std::memory_order_acquire) >= target;
            });
          }
          tracer.waitDone(static_cast<std::uint64_t>(s));
        }
        for (std::size_t tile = 0; tile < tiles; ++tile) {
          rows.forEach(s, [&](index_t i) { row_kernel(i, tile); });
        }
        // Superstep latency-spike failpoint (delay actions only: a throw
        // escaping this omp region would terminate). A rank-filtered
        // delay here models a straggler thread: it stretches only the
        // threads that depend on it, those whose peer waits name this
        // superstep of this rank or a later one.
        STS_FAILPOINT_RANK("exec.superstep", t);
        tracer.computeDone(static_cast<std::uint64_t>(s));
        if (sync) {
          mine.store(base + static_cast<std::uint64_t>(s) + 1,
                     std::memory_order_release);
        }
      }
    }
    // Re-establishes the team-join happens-before edge through atomics.
    // The OpenMP implicit barrier already joined the team, but libgomp's
    // futex-based barrier is invisible to ThreadSanitizer, so the caller's
    // reads of x would appear to race with member writes. Each member's
    // last progress store is a release covering all of its x writes;
    // acquiring it here — it is already set, so the loop does not spin —
    // rebuilds the same edge in TSan's model.
    if (sync && steps > 0) {
      const std::uint64_t done = base + static_cast<std::uint64_t>(steps);
      for (int t = 0; t < team; ++t) {
        while (progress[t].value.load(std::memory_order_acquire) < done) {
        }
      }
    }
  }
};

}  // namespace sts::exec::detail
