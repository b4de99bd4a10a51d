#include "baselines/spmp.hpp"

#include "baselines/wavefront.hpp"
#include "dag/wavefronts.hpp"

namespace sts::baselines {

SpmpResult spmpSchedule(const Dag& dag, const SpmpOptions& opts) {
  SpmpResult result;
  if (opts.transitive_reduction) {
    dag::TransitiveReductionOptions reduction_opts = opts.reduction;
    reduction_opts.num_threads = opts.num_cores;
    auto reduction = dag::approximateTransitiveReduction(dag, reduction_opts);
    result.reduced_dag = std::move(reduction.dag);
    result.removed_edges = reduction.removed_edges;
  }
  // The level partition itself is the wavefront schedule: contiguous
  // weight-balanced chunks preserve the input ordering's locality, as SpMP
  // does.
  result.schedule =
      wavefrontSchedule(dag, WavefrontOptions{.num_cores = opts.num_cores});
  return result;
}

}  // namespace sts::baselines
