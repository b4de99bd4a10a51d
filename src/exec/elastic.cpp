#include "exec/elastic.hpp"

#include "check/check.hpp"

namespace sts::exec::detail {

FoldedLists listsFromSchedule(const core::Schedule& schedule) {
  const auto cores = static_cast<std::size_t>(schedule.numCores());
  FoldedLists lists;
  lists.verts.resize(cores);
  lists.step_ptr.resize(cores);
  for (std::size_t t = 0; t < cores; ++t) {
    auto& verts = lists.verts[t];
    auto& ptr = lists.step_ptr[t];
    ptr.push_back(0);
    for (sts::index_t s = 0; s < schedule.numSupersteps(); ++s) {
      const auto group = schedule.group(s, static_cast<int>(t));
      verts.insert(verts.end(), group.begin(), group.end());
      ptr.push_back(static_cast<sts::offset_t>(verts.size()));
    }
  }
  return lists;
}

FoldedLists rowLists(const FoldedRanges& plan) {
  FoldedLists lists;
  lists.verts.resize(plan.runs.size());
  lists.step_ptr.resize(plan.runs.size());
  for (std::size_t q = 0; q < plan.runs.size(); ++q) {
    auto& verts = lists.verts[q];
    auto& ptr = lists.step_ptr[q];
    ptr.push_back(0);
    for (std::size_t k = 1; k < plan.step_ptr[q].size(); ++k) {
      for (auto r = static_cast<std::size_t>(plan.step_ptr[q][k - 1]);
           r < static_cast<std::size_t>(plan.step_ptr[q][k]); ++r) {
        const auto [lo, hi] = plan.runs[q][r];
        for (sts::index_t i = lo; i < hi; ++i) verts.push_back(i);
      }
      ptr.push_back(static_cast<sts::offset_t>(verts.size()));
    }
  }
  return lists;
}

FoldedLists foldThreadLists(
    const std::vector<std::vector<sts::index_t>>& verts,
    const std::vector<std::vector<sts::offset_t>>& step_ptr,
    sts::index_t num_steps, int team, std::span<const int> rank_map) {
  const int width = static_cast<int>(verts.size());
  requireTeamSize(team, width, "foldThreadLists");
  if (rank_map.size() != static_cast<std::size_t>(width)) {
    throw std::invalid_argument("foldThreadLists: rank map size mismatch");
  }
  for (const int q : rank_map) {
    if (q < 0 || q >= team) {
      throw std::invalid_argument("foldThreadLists: slot out of range");
    }
  }

  // Invert the map once (ascending rank within each slot) so each folded
  // thread's build walks only its own source ranks.
  std::vector<std::vector<int>> slot_ranks(static_cast<std::size_t>(team));
  for (int p = 0; p < width; ++p) {
    slot_ranks[static_cast<std::size_t>(rank_map[static_cast<std::size_t>(p)])]
        .push_back(p);
  }

  FoldedLists folded;
  folded.verts.resize(static_cast<std::size_t>(team));
  folded.step_ptr.resize(static_cast<std::size_t>(team));
  for (int q = 0; q < team; ++q) {
    auto& out = folded.verts[static_cast<std::size_t>(q)];
    auto& ptr = folded.step_ptr[static_cast<std::size_t>(q)];
    const auto& ranks = slot_ranks[static_cast<std::size_t>(q)];
    std::size_t total = 0;
    for (const int p : ranks) {
      total += verts[static_cast<std::size_t>(p)].size();
    }
    out.reserve(total);
    ptr.reserve(static_cast<std::size_t>(num_steps) + 1);
    ptr.push_back(0);
    for (sts::index_t s = 0; s < num_steps; ++s) {
      for (const int p : ranks) {
        const auto& src = verts[static_cast<std::size_t>(p)];
        const auto& src_ptr = step_ptr[static_cast<std::size_t>(p)];
        const auto begin = static_cast<std::size_t>(src_ptr[static_cast<std::size_t>(s)]);
        const auto end = static_cast<std::size_t>(src_ptr[static_cast<std::size_t>(s) + 1]);
        out.insert(out.end(), src.begin() + static_cast<std::ptrdiff_t>(begin),
                   src.begin() + static_cast<std::ptrdiff_t>(end));
      }
      ptr.push_back(static_cast<sts::offset_t>(out.size()));
    }
  }
#if STS_CHECKS
  check::enforce(check::validateRankMap(width, team, rank_map),
                 "foldThreadLists");
  sts::index_t rows = 0;
  for (const auto& list : verts) rows += static_cast<sts::index_t>(list.size());
  check::enforce(check::validateFoldedLists(folded, num_steps, rows),
                 "foldThreadLists");
#endif
  return folded;
}

std::vector<core::weight_t> threadListLoads(
    const std::vector<std::vector<sts::index_t>>& verts,
    const std::vector<std::vector<sts::offset_t>>& step_ptr,
    sts::index_t num_steps, std::span<const sts::offset_t> row_ptr) {
  const int width = static_cast<int>(verts.size());
  std::vector<core::weight_t> loads(static_cast<std::size_t>(num_steps) *
                                        static_cast<std::size_t>(width),
                                    0);
  for (int p = 0; p < width; ++p) {
    const auto& list = verts[static_cast<std::size_t>(p)];
    const auto& ptr = step_ptr[static_cast<std::size_t>(p)];
    for (sts::index_t s = 0; s < num_steps; ++s) {
      core::weight_t load = 0;
      const auto begin = static_cast<std::size_t>(ptr[static_cast<std::size_t>(s)]);
      const auto end = static_cast<std::size_t>(ptr[static_cast<std::size_t>(s) + 1]);
      for (std::size_t k = begin; k < end; ++k) {
        const auto v = static_cast<std::size_t>(list[k]);
        load += static_cast<core::weight_t>(row_ptr[v + 1] - row_ptr[v]);
      }
      loads[static_cast<std::size_t>(s) * static_cast<std::size_t>(width) +
            static_cast<std::size_t>(p)] = load;
    }
  }
  return loads;
}

}  // namespace sts::exec::detail
