#include "core/coarsen.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/growlocal.hpp"
#include "dag/toposort.hpp"
#include "dag/transitive.hpp"
#include "dag/wavefronts.hpp"
#include "obs/trace.hpp"

namespace sts::core {

namespace {

/// Max-heap of vertex IDs: Algorithm 4.1 processes candidates roughly in
/// reverse topological (descending-ID) order, which keeps funnel members
/// contiguous in the original ordering.
class MaxIdHeap {
 public:
  void push(index_t v) {
    data_.push_back(v);
    std::push_heap(data_.begin(), data_.end());
  }
  index_t pop() {
    std::pop_heap(data_.begin(), data_.end());
    const index_t v = data_.back();
    data_.pop_back();
    return v;
  }
  bool empty() const { return data_.empty(); }
  void clear() { data_.clear(); }

 private:
  std::vector<index_t> data_;
};

/// In-funnel partition of `g` (Algorithm 4.1) with size/weight caps.
std::vector<index_t> inFunnelPartOf(const Dag& g, index_t max_size,
                                    weight_t max_weight) {
  const index_t n = g.numVertices();
  std::vector<index_t> part_of(static_cast<size_t>(n), -1);
  const auto rev_topo = dag::reverseTopologicalOrder(g);
  if (!rev_topo) {
    throw std::invalid_argument("funnelPartition: input graph has a cycle");
  }

  std::vector<index_t> children_count(static_cast<size_t>(n), 0);
  std::vector<index_t> touched;
  MaxIdHeap queue;
  index_t next_part = 0;

  for (const index_t seed : *rev_topo) {
    if (part_of[static_cast<size_t>(seed)] != -1) continue;
    touched.clear();
    queue.clear();
    queue.push(seed);
    index_t size = 0;
    weight_t weight = 0;
    while (!queue.empty()) {
      if (size >= max_size) break;
      const index_t w = queue.pop();
      if (max_weight > 0 && weight + g.weight(w) > max_weight && size > 0) {
        break;
      }
      part_of[static_cast<size_t>(w)] = next_part;
      ++size;
      weight += g.weight(w);
      for (const index_t u : g.parents(w)) {
        if (part_of[static_cast<size_t>(u)] != -1) continue;
        if (children_count[static_cast<size_t>(u)] == 0) touched.push_back(u);
        ++children_count[static_cast<size_t>(u)];
        if (children_count[static_cast<size_t>(u)] == g.outDegree(u)) {
          // All children of u are in the current part: adding u keeps the
          // in-funnel property (its only cut children would be none).
          queue.push(u);
        }
      }
    }
    for (const index_t u : touched) children_count[static_cast<size_t>(u)] = 0;
    ++next_part;
  }
  return part_of;
}

}  // namespace

Partition Partition::fromPartOf(index_t n, std::span<const index_t> part_of) {
  if (static_cast<index_t>(part_of.size()) != n) {
    throw std::invalid_argument("Partition::fromPartOf: size mismatch");
  }
  index_t max_label = -1;
  for (const index_t p : part_of) {
    if (p < 0) throw std::invalid_argument("Partition::fromPartOf: negative label");
    max_label = std::max(max_label, p);
  }
  // Relabel parts by their minimum member (first occurrence when scanning
  // ascending vertex IDs).
  std::vector<index_t> relabel(static_cast<size_t>(max_label) + 1, -1);
  index_t next = 0;
  for (index_t v = 0; v < n; ++v) {
    auto& r = relabel[static_cast<size_t>(part_of[static_cast<size_t>(v)])];
    if (r == -1) r = next++;
  }

  Partition result;
  result.num_parts = next;
  result.part_of.resize(static_cast<size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    result.part_of[static_cast<size_t>(v)] =
        relabel[static_cast<size_t>(part_of[static_cast<size_t>(v)])];
  }
  result.part_ptr.assign(static_cast<size_t>(next) + 1, 0);
  for (index_t v = 0; v < n; ++v) {
    ++result.part_ptr[static_cast<size_t>(result.part_of[static_cast<size_t>(v)]) + 1];
  }
  std::partial_sum(result.part_ptr.begin(), result.part_ptr.end(),
                   result.part_ptr.begin());
  result.part_members.resize(static_cast<size_t>(n));
  std::vector<offset_t> cursor(result.part_ptr.begin(),
                               result.part_ptr.end() - 1);
  for (index_t v = 0; v < n; ++v) {
    const auto p = static_cast<size_t>(result.part_of[static_cast<size_t>(v)]);
    result.part_members[static_cast<size_t>(cursor[p]++)] = v;
  }
  return result;
}

Partition Partition::singletons(index_t n) {
  std::vector<index_t> part_of(static_cast<size_t>(n));
  std::iota(part_of.begin(), part_of.end(), index_t{0});
  return fromPartOf(n, part_of);
}

Partition funnelPartition(const Dag& dag, const FunnelOptions& opts) {
  if (opts.max_part_size <= 0) {
    throw std::invalid_argument("funnelPartition: max_part_size must be positive");
  }
  const Dag* work = &dag;
  Dag reduced;
  if (opts.pre_transitive_reduction) {
    dag::TransitiveReductionOptions reduction;
    reduction.num_threads = std::max(1, opts.num_threads);
    reduced = dag::approximateTransitiveReduction(dag, reduction).dag;
    work = &reduced;
  }
  std::vector<index_t> part_of;
  if (opts.direction == FunnelOptions::Direction::kIn) {
    part_of = inFunnelPartOf(*work, opts.max_part_size, opts.max_part_weight);
  } else {
    // Out-funnels are in-funnels of the reversed graph.
    const Dag rev = work->reversed();
    part_of = inFunnelPartOf(rev, opts.max_part_size, opts.max_part_weight);
  }
  return Partition::fromPartOf(dag.numVertices(), part_of);
}

Dag coarsen(const Dag& dag, const Partition& partition) {
  if (static_cast<index_t>(partition.part_of.size()) != dag.numVertices()) {
    throw std::invalid_argument("coarsen: partition size mismatch");
  }
  STS_TRACE_SPAN1("plan", "coarsen", "parts", partition.num_parts);
  const auto parts = static_cast<size_t>(partition.num_parts);
  std::vector<weight_t> weights(parts, 0);
  for (index_t v = 0; v < dag.numVertices(); ++v) {
    weights[static_cast<size_t>(partition.part_of[static_cast<size_t>(v)])] +=
        dag.weight(v);
  }
  // The parent parts of each part: collected once each with a marker array
  // (last_seen[q] == p once q is listed for p), then sorted per part.
  std::vector<offset_t> in_ptr(parts + 1, 0);
  std::vector<index_t> in_adj;
  std::vector<index_t> last_seen(parts, -1);
  for (index_t p = 0; p < partition.num_parts; ++p) {
    const auto begin = static_cast<std::ptrdiff_t>(in_adj.size());
    for (const index_t v : partition.members(p)) {
      for (const index_t u : dag.parents(v)) {
        const index_t q = partition.part_of[static_cast<size_t>(u)];
        if (q != p && last_seen[static_cast<size_t>(q)] != p) {
          last_seen[static_cast<size_t>(q)] = p;
          in_adj.push_back(q);
        }
      }
    }
    std::sort(in_adj.begin() + begin, in_adj.end());
    in_ptr[static_cast<size_t>(p) + 1] = static_cast<offset_t>(in_adj.size());
  }
  return Dag::fromParents(partition.num_parts, std::move(in_ptr),
                          std::move(in_adj), std::move(weights));
}

Schedule pullBackSchedule(const Dag& fine_dag, const Partition& partition,
                          const Schedule& coarse_schedule) {
  const index_t n = fine_dag.numVertices();
  if (coarse_schedule.numVertices() != partition.num_parts) {
    throw std::invalid_argument("pullBackSchedule: schedule/partition mismatch");
  }
  const dag::Wavefronts wf = dag::computeWavefronts(fine_dag);

  std::vector<int> core(static_cast<size_t>(n));
  std::vector<index_t> superstep(static_cast<size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    const index_t part = partition.part_of[static_cast<size_t>(v)];
    core[static_cast<size_t>(v)] = coarse_schedule.coreOf(part);
    superstep[static_cast<size_t>(v)] = coarse_schedule.superstepOf(part);
  }

  // Expand the coarse execution order part by part; inside a part, order by
  // (level, ID) which respects every intra-part edge.
  std::vector<index_t> order;
  order.reserve(static_cast<size_t>(n));
  const size_t groups = static_cast<size_t>(coarse_schedule.numSupersteps()) *
                        static_cast<size_t>(coarse_schedule.numCores());
  std::vector<offset_t> group_ptr(groups + 1, 0);
  std::vector<index_t> buf;
  for (index_t s = 0; s < coarse_schedule.numSupersteps(); ++s) {
    for (int p = 0; p < coarse_schedule.numCores(); ++p) {
      for (const index_t part : coarse_schedule.group(s, p)) {
        const auto members = partition.members(part);
        buf.assign(members.begin(), members.end());
        std::sort(buf.begin(), buf.end(), [&wf](index_t a, index_t b) {
          const index_t la = wf.level[static_cast<size_t>(a)];
          const index_t lb = wf.level[static_cast<size_t>(b)];
          return la != lb ? la < lb : a < b;
        });
        order.insert(order.end(), buf.begin(), buf.end());
      }
      const size_t g = static_cast<size_t>(s) *
                           static_cast<size_t>(coarse_schedule.numCores()) +
                       static_cast<size_t>(p);
      group_ptr[g + 1] = static_cast<offset_t>(order.size());
    }
  }
  return Schedule(n, coarse_schedule.numCores(),
                  coarse_schedule.numSupersteps(), std::move(core),
                  std::move(superstep), std::move(order),
                  std::move(group_ptr));
}

bool isCascade(const Dag& dag, std::span<const index_t> members) {
  std::vector<char> in_set(static_cast<size_t>(dag.numVertices()), 0);
  for (const index_t v : members) in_set[static_cast<size_t>(v)] = 1;

  std::vector<index_t> in_cut_targets;   // v in U with an incoming cut edge
  std::vector<index_t> out_cut_sources;  // u in U with an outgoing cut edge
  for (const index_t v : members) {
    for (const index_t w : dag.parents(v)) {
      if (!in_set[static_cast<size_t>(w)]) {
        in_cut_targets.push_back(v);
        break;
      }
    }
    for (const index_t w : dag.children(v)) {
      if (!in_set[static_cast<size_t>(w)]) {
        out_cut_sources.push_back(v);
        break;
      }
    }
  }
  for (const index_t v : in_cut_targets) {
    for (const index_t u : out_cut_sources) {
      if (!dag::isReachable(dag, v, u)) return false;
    }
  }
  return true;
}

Schedule funnelGrowLocalSchedule(const Dag& dag,
                                 const GrowLocalOptions& gl_opts,
                                 const FunnelOptions& funnel_opts) {
  FunnelOptions funnel = funnel_opts;
  if (funnel.num_threads == 0) funnel.num_threads = gl_opts.num_cores;
  const Partition partition = funnelPartition(dag, funnel);
  const Dag coarse = coarsen(dag, partition);
  const Schedule coarse_schedule = growLocalSchedule(coarse, gl_opts);
  return pullBackSchedule(dag, partition, coarse_schedule);
}

}  // namespace sts::core
