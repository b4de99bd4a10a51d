#include "exec/bsp.hpp"

#include <stdexcept>

#include "exec/row_kernels.hpp"
#include "exec/serial.hpp"
#include "exec/walk.hpp"
#include "obs/trace.hpp"

namespace sts::exec {

using detail::requireVectorSizes;

BspExecutor::BspExecutor(const CsrMatrix& lower, const Schedule& schedule)
    : lower_(lower),
      num_threads_(schedule.numCores()),
      num_supersteps_(schedule.numSupersteps()),
      full_(detail::listsFromSchedule(schedule)),
      default_ctx_(schedule.numCores(), lower.rows()) {
  requireSolvableLower(lower);
  if (schedule.numVertices() != lower.rows()) {
    throw std::invalid_argument("BspExecutor: schedule/matrix size mismatch");
  }
  rank_loads_ = detail::threadListLoads(full_.verts, full_.step_ptr,
                                        num_supersteps_, lower.rowPtr());
  full_waits_ = detail::buildPeerWaits(lower, full_);
  folded_.init(num_threads_, &full_);
  slabs_.init(num_threads_);
  waits_.init(num_threads_, &full_waits_);
}

const detail::FoldedLists& BspExecutor::foldedPlan(
    int team, core::FoldPolicy policy) const {
  return folded_.get(team, policy, [this](int t, core::FoldPolicy p) {
    STS_TRACE_SPAN1("plan", "fold_build", "team", t);
    const auto map =
        core::foldRankMap(num_supersteps_, num_threads_, t, p, rank_loads_);
    return detail::foldThreadLists(full_.verts, full_.step_ptr,
                                   num_supersteps_, t, map);
  });
}

const detail::SlabPlan& BspExecutor::slabPlan(int team,
                                              core::FoldPolicy policy) const {
  return detail::cachedSlabPlan(
      slabs_, lower_, num_threads_, team, policy,
      [this](int t, core::FoldPolicy p) -> const detail::FoldedLists& {
        return foldedPlan(t, p);
      });
}

const detail::PeerWaits& BspExecutor::peerWaits(
    int team, core::FoldPolicy policy) const {
  return waits_.get(team, policy, [this](int t, core::FoldPolicy p) {
    STS_TRACE_SPAN1("plan", "wait_build", "team", t);
    return detail::buildPeerWaits(lower_, foldedPlan(t, p));
  });
}

template <typename Kernel>
void BspExecutor::walk(SolveContext& ctx, int team, core::FoldPolicy policy,
                       StorageKind storage, std::size_t tiles,
                       const Kernel& kernel, const char* who) const {
  detail::requireTeamSize(team, num_threads_, who);
  ctx.requireShape(team, lower_.rows(), who);
  const detail::PeerWaits& waits = peerWaits(team, policy);
  if (storage == StorageKind::kSlab) {
    detail::TeamWalk::supersteps(ctx, team, num_supersteps_,
                                 slabPlan(team, policy), waits, tiles, kernel);
  } else {
    detail::TeamWalk::supersteps(ctx, team, num_supersteps_,
                                 foldedPlan(team, policy), waits, tiles,
                                 kernel);
  }
}

void BspExecutor::solve(std::span<const double> b, std::span<double> x,
                        SolveContext& ctx, int team, core::FoldPolicy policy,
                        StorageKind storage) const {
  requireVectorSizes(lower_, b, x, 1, "BspExecutor::solve");
  walk(ctx, team, policy, storage, 1, detail::RhsKernel(lower_, b, x),
       "BspExecutor::solve");
}

void BspExecutor::solve(std::span<const double> b, std::span<double> x,
                        SolveContext& ctx, int team,
                        core::FoldPolicy policy) const {
  solve(b, x, ctx, team, policy, StorageKind::kSharedCsr);
}

void BspExecutor::solve(std::span<const double> b, std::span<double> x,
                        SolveContext& ctx, int team) const {
  solve(b, x, ctx, team, core::FoldPolicy::kModulo);
}

void BspExecutor::solve(std::span<const double> b, std::span<double> x,
                        SolveContext& ctx) const {
  solve(b, x, ctx, num_threads_, core::FoldPolicy::kModulo);
}

void BspExecutor::solve(std::span<const double> b, std::span<double> x) const {
  solve(b, x, default_ctx_, num_threads_, core::FoldPolicy::kModulo);
}

void BspExecutor::solveTiles(std::span<const double> b, std::span<double> x,
                             const TileLayout& layout, SolveContext& ctx,
                             int team, core::FoldPolicy policy,
                             StorageKind storage) const {
  requireTileShapes(lower_.rows(), layout, b, x, "BspExecutor::solveTiles");
  const TileViews tiles = makeTileViews(layout, b, x);
  walk(ctx, team, policy, storage, tiles.width.size(),
       detail::TileKernel(lower_, tiles), "BspExecutor::solveTiles");
}

std::size_t BspExecutor::storageBytesMoved(int team, core::FoldPolicy policy,
                                           StorageKind storage) const {
  if (storage == StorageKind::kSlab) {
    return detail::slabBytesMoved(slabPlan(team, policy));
  }
  return csrBytesMoved(lower_.rows(), lower_.nnz());
}

namespace {

/// Folds the full-width row ranges onto `team` threads by `rank_map`:
/// folded thread q's superstep-s runs are those of every original rank
/// mapped to q, in ascending rank, with adjacent runs merged — the
/// foldThreadLists concatenation order on contiguous rows.
detail::FoldedRanges foldRanges(const detail::FoldedRanges& full,
                                index_t steps, int team,
                                std::span<const int> rank_map) {
  const auto width = full.runs.size();
  // Inverted map: ranks of slot q in ascending order, so each superstep
  // is walked O(width) overall rather than O(team * width).
  std::vector<std::vector<size_t>> slot_ranks(static_cast<size_t>(team));
  for (size_t p = 0; p < width; ++p) {
    slot_ranks[static_cast<size_t>(rank_map[p])].push_back(p);
  }
  detail::FoldedRanges plan;
  plan.runs.resize(static_cast<size_t>(team));
  plan.step_ptr.resize(static_cast<size_t>(team));
  for (size_t q = 0; q < plan.runs.size(); ++q) {
    auto& runs = plan.runs[q];
    auto& ptr = plan.step_ptr[q];
    ptr.reserve(static_cast<size_t>(steps) + 1);
    ptr.push_back(0);
    for (index_t s = 0; s < steps; ++s) {
      for (const size_t p : slot_ranks[q]) {
        const auto& src_ptr = full.step_ptr[p];
        for (auto k = static_cast<size_t>(src_ptr[static_cast<size_t>(s)]);
             k < static_cast<size_t>(src_ptr[static_cast<size_t>(s) + 1]);
             ++k) {
          const auto [lo, hi] = full.runs[p][k];
          if (ptr.back() != static_cast<offset_t>(runs.size()) &&
              runs.back().second == lo) {
            runs.back().second = hi;  // merge adjacent runs
          } else {
            runs.emplace_back(lo, hi);
          }
        }
      }
      ptr.push_back(static_cast<offset_t>(runs.size()));
    }
  }
  return plan;
}

}  // namespace

ContiguousBspExecutor::ContiguousBspExecutor(const CsrMatrix& permuted_lower,
                                             index_t num_supersteps,
                                             int num_cores,
                                             std::vector<offset_t> group_ptr)
    : lower_(permuted_lower),
      num_supersteps_(num_supersteps),
      num_threads_(num_cores),
      default_ctx_(num_cores, permuted_lower.rows()) {
  requireSolvableLower(permuted_lower);
  const size_t groups = static_cast<size_t>(num_supersteps) *
                        static_cast<size_t>(num_cores);
  if (group_ptr.size() != groups + 1 || group_ptr.front() != 0 ||
      group_ptr.back() != static_cast<offset_t>(permuted_lower.rows())) {
    throw std::invalid_argument("ContiguousBspExecutor: bad group_ptr");
  }
  // Group (s, p) covers a contiguous row range, so its load is one rowPtr
  // difference (superstep-major, like group_ptr) and its full-width plan
  // one run (none when empty).
  const auto row_ptr = lower_.rowPtr();
  const auto cores = static_cast<size_t>(num_cores);
  rank_loads_.resize(groups);
  full_.runs.resize(cores);
  full_.step_ptr.assign(cores, {0});
  for (size_t g = 0; g < groups; ++g) {
    const auto lo = static_cast<index_t>(group_ptr[g]);
    const auto hi = static_cast<index_t>(group_ptr[g + 1]);
    rank_loads_[g] = static_cast<core::weight_t>(
        row_ptr[static_cast<size_t>(hi)] - row_ptr[static_cast<size_t>(lo)]);
    auto& runs = full_.runs[g % cores];
    if (lo < hi) runs.emplace_back(lo, hi);
    full_.step_ptr[g % cores].push_back(static_cast<offset_t>(runs.size()));
  }
  full_waits_ = detail::buildPeerWaits(lower_, full_);
  folded_.init(num_threads_, &full_);
  slabs_.init(num_threads_);
  waits_.init(num_threads_, &full_waits_);
}

const detail::FoldedRanges& ContiguousBspExecutor::foldedPlan(
    int team, core::FoldPolicy policy) const {
  return folded_.get(team, policy, [this](int t, core::FoldPolicy pol) {
    STS_TRACE_SPAN1("plan", "fold_build", "team", t);
    const auto map =
        core::foldRankMap(num_supersteps_, num_threads_, t, pol, rank_loads_);
    return foldRanges(full_, num_supersteps_, t, map);
  });
}

const detail::SlabPlan& ContiguousBspExecutor::slabPlan(
    int team, core::FoldPolicy policy) const {
  // The slab keeps the exact range walk order, so results stay bitwise
  // identical to the range path.
  return detail::cachedSlabPlan(
      slabs_, lower_, num_threads_, team, policy,
      [this](int t, core::FoldPolicy p) {
        return detail::rowLists(foldedPlan(t, p));
      });
}

const detail::PeerWaits& ContiguousBspExecutor::peerWaits(
    int team, core::FoldPolicy policy) const {
  return waits_.get(team, policy, [this](int t, core::FoldPolicy p) {
    STS_TRACE_SPAN1("plan", "wait_build", "team", t);
    return detail::buildPeerWaits(lower_, foldedPlan(t, p));
  });
}

template <typename Kernel>
void ContiguousBspExecutor::walk(SolveContext& ctx, int team,
                                 core::FoldPolicy policy, StorageKind storage,
                                 std::size_t tiles, const Kernel& kernel,
                                 const char* who) const {
  detail::requireTeamSize(team, num_threads_, who);
  ctx.requireShape(team, lower_.rows(), who);
  const detail::PeerWaits& waits = peerWaits(team, policy);
  if (storage == StorageKind::kSlab) {
    detail::TeamWalk::supersteps(ctx, team, num_supersteps_,
                                 slabPlan(team, policy), waits, tiles, kernel);
  } else {
    detail::TeamWalk::supersteps(ctx, team, num_supersteps_,
                                 foldedPlan(team, policy), waits, tiles,
                                 kernel);
  }
}

void ContiguousBspExecutor::solve(std::span<const double> b,
                                  std::span<double> x, SolveContext& ctx,
                                  int team, core::FoldPolicy policy,
                                  StorageKind storage) const {
  requireVectorSizes(lower_, b, x, 1, "ContiguousBspExecutor::solve");
  walk(ctx, team, policy, storage, 1, detail::RhsKernel(lower_, b, x),
       "ContiguousBspExecutor::solve");
}

void ContiguousBspExecutor::solve(std::span<const double> b,
                                  std::span<double> x, SolveContext& ctx,
                                  int team, core::FoldPolicy policy) const {
  solve(b, x, ctx, team, policy, StorageKind::kSharedCsr);
}

void ContiguousBspExecutor::solve(std::span<const double> b,
                                  std::span<double> x, SolveContext& ctx,
                                  int team) const {
  solve(b, x, ctx, team, core::FoldPolicy::kModulo);
}

void ContiguousBspExecutor::solve(std::span<const double> b,
                                  std::span<double> x,
                                  SolveContext& ctx) const {
  solve(b, x, ctx, num_threads_, core::FoldPolicy::kModulo);
}

void ContiguousBspExecutor::solve(std::span<const double> b,
                                  std::span<double> x) const {
  solve(b, x, default_ctx_, num_threads_, core::FoldPolicy::kModulo);
}

void ContiguousBspExecutor::solveTiles(std::span<const double> b,
                                       std::span<double> x,
                                       const TileLayout& layout,
                                       SolveContext& ctx, int team,
                                       core::FoldPolicy policy,
                                       StorageKind storage) const {
  requireTileShapes(lower_.rows(), layout, b, x,
                    "ContiguousBspExecutor::solveTiles");
  const TileViews tiles = makeTileViews(layout, b, x);
  walk(ctx, team, policy, storage, tiles.width.size(),
       detail::TileKernel(lower_, tiles), "ContiguousBspExecutor::solveTiles");
}

std::size_t ContiguousBspExecutor::storageBytesMoved(
    int team, core::FoldPolicy policy, StorageKind storage) const {
  if (storage == StorageKind::kSlab) {
    return detail::slabBytesMoved(slabPlan(team, policy));
  }
  return csrBytesMoved(lower_.rows(), lower_.nnz());
}

}  // namespace sts::exec
