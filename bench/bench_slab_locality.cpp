/// Slab-storage locality bench: shared-CSR vs slab matrix layout across
/// executor x team x nrhs. The slab layout (exec/slab.hpp) packs each
/// thread's rows, in execution order, into a private cache-line-aligned
/// record stream — zero row_ptr indirection, no cross-thread sharing of
/// matrix data. Both layouts run the same row kernels (row_kernels.hpp),
/// so this bench measures what the layout alone buys on the hot path and
/// re-checks the storage contract end to end: both layouts must produce
/// bitwise-identical solutions on every configuration. Each solve is one
/// solveTiles call on the batch as a single row-major n x nrhs tile, in
/// the solver's internal row order (no permute or pack pass is timed).
///
///   STS_BENCH_SCALE / STS_BENCH_REPS  dataset sizing as usual;
///   STS_SLAB_WIDTH  (default 4)       analyzed schedule width C;
///   STS_SLAB_REPS   (default 5)       timed passes per configuration.
///
/// Emits JSON with host metadata (schema in docs/BENCHMARKS.md). Exit
/// code 0 iff the slab results are bitwise equal to the shared-CSR
/// results everywhere — deliberately NOT a speed gate, so the bench stays
/// robust on 1-core CI runners; the timings and the multi-RHS geomean
/// speedup are reported for the trajectory snapshots (BENCH_5.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/solver.hpp"
#include "harness/datasets.hpp"
#include "harness/stats.hpp"

namespace {

using namespace sts;
using exec::SchedulerKind;
using exec::SolverOptions;
using exec::StorageKind;
using exec::TileLayout;
using exec::TriangularSolver;

using sts::bench::envInt;

struct Row {
  std::string dataset;
  std::string matrix;
  std::string executor;
  int team = 0;
  index_t nrhs = 1;
  double shared_seconds = 0.0;
  double slab_seconds = 0.0;
  double slab_speedup = 0.0;
};

double timeSolves(const TriangularSolver& solver, exec::SolveContext& ctx,
                  std::span<const double> b, std::span<double> x,
                  index_t nrhs, int team, int reps) {
  using Clock = std::chrono::high_resolution_clock;
  std::vector<double> seconds;
  seconds.reserve(static_cast<size_t>(reps));
  for (int pass = 0; pass < reps; ++pass) {
    const auto t0 = Clock::now();
    solver.solveTiles(b, x, TileLayout(solver.numRows(), nrhs, nrhs), ctx,
                      team);
    seconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return harness::quantile(seconds, 0.5);
}

}  // namespace

int main() {
  const int width = envInt("STS_SLAB_WIDTH", 4);
  const int reps = envInt("STS_SLAB_REPS", 5);

  bench::banner("Slab storage locality", "Steiner et al. (locality follow-up)",
                "Shared-CSR vs thread-local slab layout, executor x team x "
                "nrhs");
  std::printf("schedule width %d, %d timed reps per configuration\n\n", width,
              reps);

  std::vector<harness::DatasetEntry> entries;
  std::vector<std::string> entry_dataset;
  {
    auto narrow = harness::narrowBandSet();
    if (!narrow.empty()) {
      entry_dataset.push_back("narrow-band");
      entries.push_back(std::move(narrow.front()));
    }
    auto erdos = harness::erdosRenyiSet();
    if (!erdos.empty()) {
      entry_dataset.push_back("erdos-renyi");
      entries.push_back(std::move(erdos.front()));
    }
    auto real = harness::suiteSparseReal();
    auto standin = harness::suiteSparseStandin();
    if (!real.empty()) {
      entry_dataset.push_back("suitesparse");
      entries.push_back(std::move(real.front()));
    } else if (!standin.empty()) {
      entry_dataset.push_back("suitesparse-standin");
      entries.push_back(std::move(standin.front()));
    }
  }

  struct ExecConfig {
    std::string name;
    SolverOptions options;
  };
  std::vector<ExecConfig> configs;
  {
    SolverOptions opts;
    opts.num_threads = width;
    opts.validate = false;
    opts.reorder = true;
    configs.push_back({"contiguous", opts});
    opts.reorder = false;
    configs.push_back({"bsp", opts});
    opts.scheduler = SchedulerKind::kSpmp;
    configs.push_back({"p2p", opts});
  }

  std::vector<int> teams = {1, width};
  teams.erase(std::unique(teams.begin(), teams.end()), teams.end());
  const std::vector<index_t> nrhs_sweep = {1, 4, 8};

  std::vector<Row> rows;
  bool bitwise_ok = true;
  for (size_t e = 0; e < entries.size(); ++e) {
    const auto& entry = entries[e];
    const auto n = static_cast<size_t>(entry.lower.rows());
    for (const auto& config : configs) {
      // One solver analyzed per storage: storage is an analysis setting.
      SolverOptions slab_options = config.options;
      slab_options.storage = StorageKind::kSlab;
      const auto shared = TriangularSolver::analyze(entry.lower,
                                                    config.options);
      const auto slab = TriangularSolver::analyze(entry.lower, slab_options);
      auto ctx = shared.createContext();
      for (const int team : teams) {
        for (const index_t nrhs : nrhs_sweep) {
          const auto r = static_cast<size_t>(nrhs);
          std::vector<double> b(n * r);
          for (size_t i = 0; i < b.size(); ++i) {
            b[i] = 1.0 + 0.25 * static_cast<double>((3 * i + e) % 17);
          }
          std::vector<double> x_shared(b.size());
          std::vector<double> x_slab(b.size());
          // Warmup pass per storage also pays the one-time plan/slab
          // builds outside the timed region (the amortized regime).
          const TileLayout one_tile(shared.numRows(), nrhs, nrhs);
          shared.solveTiles(b, x_shared, one_tile, *ctx, team);
          slab.solveTiles(b, x_slab, one_tile, *ctx, team);
          if (x_shared != x_slab) bitwise_ok = false;

          Row row;
          row.dataset = entry_dataset[e];
          row.matrix = entry.name;
          row.executor = config.name;
          row.team = team;
          row.nrhs = nrhs;
          row.shared_seconds =
              timeSolves(shared, *ctx, b, x_shared, nrhs, team, reps);
          row.slab_seconds =
              timeSolves(slab, *ctx, b, x_slab, nrhs, team, reps);
          if (x_shared != x_slab) bitwise_ok = false;
          row.slab_speedup = row.slab_seconds > 0.0
                                 ? row.shared_seconds / row.slab_seconds
                                 : 0.0;
          std::printf("%-14s %-10s team %2d nrhs %2d: shared %9.3f ms  "
                      "slab %9.3f ms  (%.2fx)\n",
                      entry.name.c_str(), config.name.c_str(), team,
                      static_cast<int>(nrhs), row.shared_seconds * 1e3,
                      row.slab_seconds * 1e3, row.slab_speedup);
          rows.push_back(std::move(row));
        }
      }
    }
  }

  std::vector<double> multi_speedups;
  for (const auto& row : rows) {
    if (row.nrhs > 1 && row.slab_speedup > 0.0) {
      multi_speedups.push_back(row.slab_speedup);
    }
  }
  const double multi_geomean =
      multi_speedups.empty() ? 0.0 : harness::geometricMean(multi_speedups);

  std::printf("\nJSON: {\"bench\":\"slab_locality\",%s,"
              "\"schedule_width\":%d,\"reps\":%d,\"results\":[",
              bench::hostMetaJson().c_str(), width, reps);
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::printf("%s{\"dataset\":\"%s\",\"matrix\":\"%s\","
                "\"executor\":\"%s\",\"team\":%d,\"nrhs\":%d,"
                "\"shared_seconds\":%.6g,\"slab_seconds\":%.6g,"
                "\"slab_speedup\":%.4g}",
                i == 0 ? "" : ",", r.dataset.c_str(), r.matrix.c_str(),
                r.executor.c_str(), r.team, static_cast<int>(r.nrhs),
                r.shared_seconds, r.slab_seconds, r.slab_speedup);
  }
  std::printf("],\"multi_rhs_geomean_speedup\":%.4g,\"bitwise_equal\":%s}\n",
              multi_geomean, bitwise_ok ? "true" : "false");

  std::printf("\nclaim under test: the slab walk is bitwise identical to the "
              "shared-CSR walk on every\nexecutor x team x nrhs "
              "configuration (speed is reported, not gated).\n");
  std::printf("multi-RHS slab geomean speedup: %.2fx\n", multi_geomean);
  std::printf(bitwise_ok ? "claim holds.\n" : "claim FAILED.\n");
  return bitwise_ok ? 0 : 1;
}
