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
/// The two OpenMP team regions of the exact executors — the execution
/// model of §2.2 written once. Each thread walks its rows superstep by
/// superstep; the superstep walk waits, per boundary, only for the peers
/// its next superstep reads from (BspExecutor, row lists or row ranges;
/// peer_waits.hpp), the P2P walk waits per row on completion flags
/// (P2pExecutor, SpMP-style). No team barrier is crossed inside either.
///
/// A walk is instantiated with
///   * a PLAN — the per-thread rows of one (team, fold policy) of the
///     analyzed CSR: a row list (FoldedLists) or contiguous row runs
///     (FoldedRanges). threadRows(plan, t) is thread t's cursor;
///     forEach(s, fn) visits its superstep-s rows in execution order;
///   * a ROW KERNEL — RhsKernel (one right-hand side) or TileKernel (one
///     RHS column tile), called as kernel(row, tile). Both kernels run the
///     shared row_kernels.hpp arithmetic, so the plan and the RHS shape
///     never change a result bit.
///
/// Every check the solve regions make lives here and nowhere else: the
/// team size is pinned (omp_set_dynamic(0)), each member takes its
/// ScopedPin and reports it, an obs::StepTracer attributes compute against
/// wait, and tools/check_conventions.py rejects a team region anywhere
/// else in src/exec.

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

/// The cross-thread parents a P2P row waits on: row i waits for every
/// adj[ptr[i] .. ptr[i + 1]).
struct WaitLists {
  std::span<const offset_t> ptr;
  std::span<const index_t> adj;
};

/// Re-establishes the team-join happens-before edge through atomics after
/// a P2P walk. The OpenMP implicit barrier already joined the team, but
/// libgomp's futex-based barrier is invisible to ThreadSanitizer (it is
/// not TSan-instrumented), so the caller's reads of x would appear to race
/// with worker writes. Each thread's final completion-flag store is a
/// release covering all of its x writes; acquiring those flags here — they
/// are already set, so the loops do not spin — rebuilds the same edge in
/// TSan's model. The superstep walk does the same on its progress words.
inline void acquireTeamWrites(const FoldedLists& order,
                              const std::atomic<std::uint32_t>* done,
                              std::uint32_t epoch) {
  for (const auto& verts : order.verts) {
    if (verts.empty()) continue;
    while (done[static_cast<std::size_t>(verts.back())].load(
               std::memory_order_acquire) != epoch) {
    }
  }
}

/// The two walks. A struct so SolveContext can befriend both at once.
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
    // The join edge, as acquireTeamWrites: each member's last progress
    // store is a release covering all of its x writes.
    if (sync && steps > 0) {
      const std::uint64_t done = base + static_cast<std::uint64_t>(steps);
      for (int t = 0; t < team; ++t) {
        while (progress[t].value.load(std::memory_order_acquire) < done) {
        }
      }
    }
  }

  /// Flag-wait walk on a `team`-thread team under a fresh epoch: each row
  /// first waits for its `waits` parents' completion flags, then runs the
  /// kernel on RHS tile `tile` and stamps its own flag. Superstep
  /// boundaries only order each thread's rows; no thread waits for
  /// another's superstep.
  template <typename Kernel>
  static void p2p(SolveContext& ctx, int team, index_t steps,
                  const FoldedLists& plan, WaitLists waits, std::size_t tile,
                  const Kernel& kernel) {
    const std::uint32_t epoch = ctx.beginP2pEpoch();
    std::atomic<std::uint32_t>* const done = ctx.done_.get();
    const std::span<const int> pin_set = ctx.pinnedCores();
    // A dynamically shrunk team would strand the flag waits on rows of the
    // missing threads.
    omp_set_dynamic(0);
#pragma omp parallel num_threads(team)
    {
      const int t = omp_get_thread_num();
      const ScopedPin pin(pin_set, t);
      ctx.notePin(pin);
      obs::StepTracer tracer(ctx.trace());
      const Kernel row_kernel = kernel;
      const ListRows rows(plan, t);
      for (index_t s = 0; s < steps; ++s) {
        rows.forEach(s, [&](index_t row) {
          const auto i = static_cast<std::size_t>(row);
          // Under a folded team some parents live on this very thread,
          // earlier in its list — their flags are already set.
          for (offset_t k = waits.ptr[i]; k < waits.ptr[i + 1]; ++k) {
            const std::atomic<std::uint32_t>& flag =
                done[static_cast<std::size_t>(
                    waits.adj[static_cast<std::size_t>(k)])];
            // Only unresolved dependencies are timed: the first load
            // doubles as the resolved-already fast path.
            if (flag.load(std::memory_order_acquire) != epoch) {
              tracer.spinBegin();
              spinUntil([&] {
                return flag.load(std::memory_order_acquire) == epoch;
              });
              tracer.spinEnd(static_cast<std::uint64_t>(i));
            }
          }
          row_kernel(row, tile);
          done[i].store(epoch, std::memory_order_release);
        });
      }
      tracer.finishP2p(static_cast<std::uint64_t>(steps));
    }
    acquireTeamWrites(plan, done, epoch);
  }
};

}  // namespace sts::exec::detail
