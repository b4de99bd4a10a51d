#include "baselines/hdagg.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "dag/wavefronts.hpp"

namespace sts::baselines {

namespace {

using dag::weight_t;

/// Union-find over the vertices of the current window, with epoch-stamped
/// lazy initialization so windows can restart in O(1). Union by weight,
/// no path compression (find is O(log n) by the weight-balancing rank).
class WindowUnionFind {
 public:
  explicit WindowUnionFind(const Dag& dag)
      : dag_(dag),
        parent_(static_cast<size_t>(dag.numVertices())),
        weight_(static_cast<size_t>(dag.numVertices())),
        stamp_(static_cast<size_t>(dag.numVertices()), 0) {}

  void newWindow() { ++epoch_; }

  void init(index_t v) {
    parent_[static_cast<size_t>(v)] = v;
    weight_[static_cast<size_t>(v)] = dag_.weight(v);
    stamp_[static_cast<size_t>(v)] = epoch_;
  }

  bool inWindow(index_t v) const {
    return stamp_[static_cast<size_t>(v)] == epoch_;
  }

  index_t find(index_t v) const {
    while (parent_[static_cast<size_t>(v)] != v) {
      v = parent_[static_cast<size_t>(v)];
    }
    return v;
  }

  void unite(index_t a, index_t b) {
    index_t ra = find(a);
    index_t rb = find(b);
    if (ra == rb) return;
    if (weight_[static_cast<size_t>(ra)] < weight_[static_cast<size_t>(rb)]) {
      std::swap(ra, rb);
    }
    parent_[static_cast<size_t>(rb)] = ra;
    weight_[static_cast<size_t>(ra)] += weight_[static_cast<size_t>(rb)];
  }

  weight_t rootWeight(index_t root) const {
    return weight_[static_cast<size_t>(root)];
  }

 private:
  const Dag& dag_;
  std::vector<index_t> parent_;
  std::vector<weight_t> weight_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

/// LPT packing of component weights onto cores; returns max core load and
/// fills `core_of_root`.
weight_t lptPack(const std::vector<std::pair<weight_t, index_t>>& components,
                 int num_cores, std::vector<int>* core_of_root_out,
                 std::vector<index_t>* roots_out) {
  // components: (weight, root), to be sorted descending by weight.
  using Slot = std::pair<weight_t, int>;  // (load, core)
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> loads;
  for (int p = 0; p < num_cores; ++p) loads.emplace(0, p);
  weight_t max_load = 0;
  for (const auto& [w, root] : components) {
    auto [load, p] = loads.top();
    loads.pop();
    load += w;
    loads.emplace(load, p);
    max_load = std::max(max_load, load);
    if (core_of_root_out) {
      core_of_root_out->push_back(p);
      roots_out->push_back(root);
    }
  }
  return max_load;
}

Schedule hdaggOnDag(const Dag& dag, const HdaggOptions& opts) {
  const index_t n = dag.numVertices();
  const dag::Wavefronts wf = dag::computeWavefronts(dag);

  std::vector<int> core(static_cast<size_t>(n), 0);
  std::vector<index_t> superstep(static_cast<size_t>(n), 0);

  WindowUnionFind uf(dag);
  std::vector<index_t> window_vertices;
  std::vector<int> good_core(static_cast<size_t>(n), 0);  // last good packing
  std::vector<std::pair<weight_t, index_t>> components;
  std::vector<int> core_of_root;
  std::vector<index_t> roots;

  index_t current_superstep = 0;
  index_t a = 0;  // first level of the current window
  while (a < wf.num_levels) {
    uf.newWindow();
    window_vertices.clear();
    index_t b = a;
    while (b < wf.num_levels) {
      // Tentatively add level b.
      const auto level_verts = wf.levelVertices(b);
      for (const index_t v : level_verts) uf.init(v);
      for (const index_t v : level_verts) {
        for (const index_t u : dag.parents(v)) {
          if (uf.inWindow(u)) uf.unite(v, u);
        }
      }
      for (const index_t v : level_verts) window_vertices.push_back(v);

      // Pack the window's components.
      components.clear();
      weight_t total = 0;
      for (const index_t v : window_vertices) {
        if (uf.find(v) == v) {
          components.emplace_back(uf.rootWeight(v), v);
          total += uf.rootWeight(v);
        }
      }
      std::sort(components.begin(), components.end(),
                [](const auto& x, const auto& y) { return x.first > y.first; });
      core_of_root.clear();
      roots.clear();
      const weight_t max_load =
          lptPack(components, opts.num_cores, &core_of_root, &roots);
      const double ideal =
          static_cast<double>(total) / static_cast<double>(opts.num_cores);
      const bool balanced =
          static_cast<double>(max_load) <= opts.imbalance_theta * ideal ||
          b == a;  // a single wavefront is always accepted
      if (!balanced) {
        // Roll the window back to [a, b): drop level b's vertices.
        window_vertices.resize(window_vertices.size() - level_verts.size());
        break;
      }
      // Record the packing as the last good assignment: mark the core on
      // each root, then propagate to members via find(). Roots can change
      // as levels merge, so all window vertices are refreshed.
      for (size_t c = 0; c < roots.size(); ++c) {
        good_core[static_cast<size_t>(roots[c])] = core_of_root[c];
      }
      for (const index_t v : window_vertices) {
        good_core[static_cast<size_t>(v)] =
            good_core[static_cast<size_t>(uf.find(v))];
      }
      ++b;
    }
    // Emit [a, b) using the last good packing. b == a cannot happen: the
    // single-level window is always accepted, so b >= a+1.
    for (const index_t v : window_vertices) {
      core[static_cast<size_t>(v)] = good_core[static_cast<size_t>(v)];
      superstep[static_cast<size_t>(v)] = current_superstep;
    }
    ++current_superstep;
    a = b;
  }
  return Schedule::fromAssignment(dag, opts.num_cores, core, superstep);
}

}  // namespace

Schedule hdaggSchedule(const Dag& dag, const HdaggOptions& opts) {
  if (dag.numVertices() == 0) {
    return Schedule(0, opts.num_cores, 0, {}, {}, {},
                    std::vector<sts::offset_t>{0});
  }
  if (!opts.coarsen) return hdaggOnDag(dag, opts);
  core::FunnelOptions funnel = opts.funnel;
  if (funnel.num_threads == 0) funnel.num_threads = opts.num_cores;
  const core::Partition partition = core::funnelPartition(dag, funnel);
  const Dag coarse = core::coarsen(dag, partition);
  const Schedule coarse_schedule = hdaggOnDag(coarse, opts);
  return core::pullBackSchedule(dag, partition, coarse_schedule);
}

}  // namespace sts::baselines
