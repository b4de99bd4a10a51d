#include "exec/executor.hpp"

#include "exec/elastic.hpp"
#include "exec/serial.hpp"

namespace sts::exec {

Executor::Executor(const sparse::CsrMatrix& lower, int num_threads,
                   sts::index_t num_supersteps, core::FoldPolicy policy)
    : lower_(lower), num_threads_(num_threads),
      num_supersteps_(num_supersteps), policy_(policy) {
  requireSolvableLower(lower);
}

void Executor::requireSolve(const SolveContext& ctx, int team,
                            const char* who) const {
  detail::requireTeamSize(team, num_threads_, who);
  ctx.requireShape(team, lower_.rows(), who);
}

std::vector<int> Executor::rankMap(int team) const {
  return core::foldRankMap(num_supersteps_, num_threads_, team, policy_,
                           rank_loads_);
}

}  // namespace sts::exec
