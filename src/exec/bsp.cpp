#include "exec/bsp.hpp"

#include <stdexcept>

#include "exec/row_kernels.hpp"
#include "exec/walk.hpp"
#include "obs/trace.hpp"

namespace sts::exec {

namespace {

/// Folds the full-width row ranges onto `team` threads by `rank_map`:
/// folded thread q's superstep-s runs are those of every original rank
/// mapped to q, in ascending rank, with adjacent runs merged — the
/// foldThreadLists concatenation order on contiguous rows.
detail::FoldedRanges foldRows(const detail::FoldedRanges& full,
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

detail::FoldedLists foldRows(const detail::FoldedLists& full, index_t steps,
                             int team, std::span<const int> rank_map) {
  return detail::foldThreadLists(full.verts, full.step_ptr, steps, team,
                                 rank_map);
}

}  // namespace

BspExecutor::BspExecutor(const CsrMatrix& lower, const Schedule& schedule,
                         core::FoldPolicy policy)
    : Executor(lower, schedule.numCores(), schedule.numSupersteps(), policy) {
  if (schedule.numVertices() != lower.rows()) {
    throw std::invalid_argument("BspExecutor: schedule/matrix size mismatch");
  }
  detail::FoldedLists lists = detail::listsFromSchedule(schedule);
  rank_loads_ = detail::threadListLoads(lists.verts, lists.step_ptr,
                                        num_supersteps_, lower.rowPtr());
  full_ = makePlan(std::move(lists), num_threads_);
  folded_.init(num_threads_, &full_);
}

BspExecutor::BspExecutor(const CsrMatrix& permuted_lower,
                         index_t num_supersteps, int num_cores,
                         std::vector<offset_t> group_ptr,
                         core::FoldPolicy policy)
    : Executor(permuted_lower, num_cores, num_supersteps, policy) {
  const size_t groups = static_cast<size_t>(num_supersteps) *
                        static_cast<size_t>(num_cores);
  if (group_ptr.size() != groups + 1 || group_ptr.front() != 0 ||
      group_ptr.back() != static_cast<offset_t>(permuted_lower.rows())) {
    throw std::invalid_argument("BspExecutor: bad group_ptr");
  }
  // Group (s, p) covers a contiguous row range, so its load is one rowPtr
  // difference (superstep-major, like group_ptr) and its full-width plan
  // one run (none when empty).
  const auto row_ptr = lower_.rowPtr();
  const auto cores = static_cast<size_t>(num_cores);
  detail::FoldedRanges ranges;
  rank_loads_.resize(groups);
  ranges.runs.resize(cores);
  ranges.step_ptr.assign(cores, {0});
  for (size_t g = 0; g < groups; ++g) {
    const auto lo = static_cast<index_t>(group_ptr[g]);
    const auto hi = static_cast<index_t>(group_ptr[g + 1]);
    rank_loads_[g] = static_cast<core::weight_t>(
        row_ptr[static_cast<size_t>(hi)] - row_ptr[static_cast<size_t>(lo)]);
    auto& runs = ranges.runs[g % cores];
    if (lo < hi) runs.emplace_back(lo, hi);
    ranges.step_ptr[g % cores].push_back(static_cast<offset_t>(runs.size()));
  }
  full_ = makePlan(std::move(ranges), num_threads_);
  folded_.init(num_threads_, &full_);
}

BspExecutor::TeamPlan BspExecutor::makePlan(Rows rows,
                                            [[maybe_unused]] int team) const {
  TeamPlan plan{std::move(rows), {}};
  std::visit(
      [&](const auto& r) {
        STS_TRACE_SPAN1("plan", "wait_build", "team", team);
        plan.waits = detail::buildPeerWaits(lower_, r);
      },
      plan.rows);
  return plan;
}

const BspExecutor::TeamPlan& BspExecutor::plan(int team) const {
  return folded_.get(team, [this](int t) {
    Rows rows = std::visit(
        [&](const auto& full) -> Rows {
          STS_TRACE_SPAN1("plan", "fold_build", "team", t);
          return foldRows(full, num_supersteps_, t, rankMap(t));
        },
        full_.rows);
    return makePlan(std::move(rows), t);
  });
}

template <typename Kernel>
void BspExecutor::walk(SolveContext& ctx, int team, std::size_t tiles,
                       const Kernel& kernel, const char* who) const {
  requireSolve(ctx, team, who);
  const TeamPlan& p = plan(team);
  std::visit(
      [&](const auto& rows) {
        detail::TeamWalk::supersteps(ctx, team, num_supersteps_, rows,
                                     p.waits, tiles, kernel);
      },
      p.rows);
}

void BspExecutor::solve(std::span<const double> b, std::span<double> x,
                        SolveContext& ctx, int team) const {
  detail::requireVectorSizes(lower_, b, x, 1, "BspExecutor::solve");
  walk(ctx, team, 1, detail::RhsKernel(lower_, b, x), "BspExecutor::solve");
}

void BspExecutor::solveTiles(std::span<const double> b, std::span<double> x,
                             const TileLayout& layout, SolveContext& ctx,
                             int team) const {
  requireTileShapes(lower_.rows(), layout, b, x, "BspExecutor::solveTiles");
  const TileViews tiles = makeTileViews(layout, b, x);
  walk(ctx, team, tiles.width.size(), detail::TileKernel(lower_, tiles),
       "BspExecutor::solveTiles");
}

}  // namespace sts::exec
