/// Tiled multi-RHS bench: cache-sized column tiles vs the untiled
/// baseline — the whole batch as ONE row-major n x nrhs tile — across
/// executor x team x nrhs. The tile layout (exec/tile.hpp)
/// repacks the batch into per-tile row-major n x w blocks sized to a
/// per-thread L2 share, so each superstep's matrix pass touches a working
/// set that fits in cache. Both runs must produce bitwise-identical
/// solutions on every configuration — a tile is an independent n x w
/// sub-problem, so each column's FP sequence is unchanged.
///
///   STS_BENCH_SCALE / STS_BENCH_REPS  dataset sizing as usual;
///   STS_TILED_WIDTH  (default 4)      analyzed schedule width C;
///   STS_TILED_REPS   (default 5)      timed passes per configuration;
///   STS_TILE_COLS                     overrides the tile width (tile.cpp).
///
/// Timing compares like with like: both runs are solveTiles passes on
/// PRE-packed, pre-permuted buffers on the same team (the engine's
/// zero-copy entry packs requests directly into tiles, so steady-state
/// serving never pays a separate pack); only the layout differs. The
/// public solveMultiRhs (fused permute + pack) is checked bitwise too.
/// Per-row bytes_moved/flops feed tools/roofline.py. Exit code 0 iff
/// every result equals the one-tile baseline bitwise — deliberately NOT a
/// speed gate, so the bench stays robust on 1-core CI runners; the
/// nrhs >= 8 geomean speedup is reported for the trajectory snapshots
/// (BENCH_8.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/solver.hpp"
#include "exec/tile.hpp"
#include "harness/datasets.hpp"
#include "harness/stats.hpp"

namespace {

using namespace sts;
using exec::SchedulerKind;
using exec::SolverOptions;
using exec::TileLayout;
using exec::TriangularSolver;

using sts::bench::envInt;

struct Row {
  std::string dataset;
  std::string matrix;
  std::string executor;
  int team = 0;
  index_t nrhs = 1;
  index_t tile_cols = 0;
  index_t num_tiles = 0;
  long long rows_n = 0;
  long long nnz = 0;
  double untiled_seconds = 0.0;
  double tiled_seconds = 0.0;
  double tiled_speedup = 0.0;
  std::size_t bytes_moved = 0;
  std::size_t flops = 0;
};

/// Median seconds of `reps` solveTiles passes on pre-packed buffers.
double timeTiles(const TriangularSolver& solver, exec::SolveContext& ctx,
                 std::span<const double> b, std::span<double> x,
                 const TileLayout& layout, int team, int reps) {
  using Clock = std::chrono::high_resolution_clock;
  std::vector<double> seconds;
  seconds.reserve(static_cast<size_t>(reps));
  for (int pass = 0; pass < reps; ++pass) {
    const auto t0 = Clock::now();
    solver.solveTiles(b, x, layout, ctx, team);
    seconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return harness::quantile(seconds, 0.5);
}

}  // namespace

int main() {
  const int width = envInt("STS_TILED_WIDTH", 4);
  const int reps = envInt("STS_TILED_REPS", 5);

  bench::banner("Tiled multi-RHS", "Steiner et al. (locality follow-up)",
                "Cache-sized RHS column tiles vs one row-major tile, "
                "executor x team x nrhs");
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
    configs.push_back({"spmp", opts});
  }

  std::vector<int> teams = {1, width};
  teams.erase(std::unique(teams.begin(), teams.end()), teams.end());
  const std::vector<index_t> nrhs_sweep = {1, 8, 16, 32};

  std::vector<Row> rows;
  bool bitwise_ok = true;
  for (size_t e = 0; e < entries.size(); ++e) {
    const auto& entry = entries[e];
    const auto n = static_cast<size_t>(entry.lower.rows());
    for (const auto& config : configs) {
      const auto solver =
          TriangularSolver::analyze(entry.lower, config.options);
      auto ctx = solver.createContext();
      const auto perm = solver.permutation();
      const bool permuted = solver.isPermuted();
      for (const int team : teams) {
        for (const index_t nrhs : nrhs_sweep) {
          const auto r = static_cast<size_t>(nrhs);
          std::vector<double> b(n * r);
          for (size_t i = 0; i < b.size(); ++i) {
            b[i] = 1.0 + 0.25 * static_cast<double>((3 * i + e) % 17);
          }
          const TileLayout layout = solver.tileLayout(nrhs);
          const TileLayout one_tile(solver.numRows(), nrhs, nrhs);

          // Permute into schedule order once, outside the timing: the
          // row-major result is already the one-tile packed form, and
          // tiling it is exactly what the engine's fused pack produces.
          std::vector<double> b_perm(b.size());
          for (size_t i = 0; i < n; ++i) {
            const size_t row = permuted ? static_cast<size_t>(perm[i]) : i;
            for (size_t c = 0; c < r; ++c) {
              b_perm[i * r + c] = b[row * r + c];
            }
          }
          std::vector<double> b_tiled(layout.totalDoubles());
          std::vector<double> x_tiled(layout.totalDoubles());
          layout.pack(b_perm, b_tiled);

          // Reference: the one-tile baseline (warmup also pays the
          // one-time plan builds outside the timed region).
          std::vector<double> x_ref(b.size());
          solver.solveTiles(b_perm, x_ref, one_tile, *ctx, team);

          // Full public path (internal pack + permutation): the bitwise
          // gate checks the layer users actually call.
          std::vector<double> x_public(b.size());
          solver.solveMultiRhs(b, x_public, nrhs, *ctx, team);
          for (size_t i = 0; i < n && bitwise_ok; ++i) {
            const size_t row = permuted ? static_cast<size_t>(perm[i]) : i;
            for (size_t c = 0; c < r; ++c) {
              if (x_public[row * r + c] != x_ref[i * r + c]) {
                bitwise_ok = false;
              }
            }
          }

          Row row;
          row.dataset = entry_dataset[e];
          row.matrix = entry.name;
          row.executor = config.name;
          row.team = team;
          row.nrhs = nrhs;
          row.tile_cols = layout.tileCols();
          row.num_tiles = layout.numTiles();
          row.rows_n = static_cast<long long>(entry.lower.rows());
          row.nnz = static_cast<long long>(entry.lower.nnz());
          row.untiled_seconds = timeTiles(solver, *ctx, b_perm, x_ref,
                                          one_tile, team, reps);
          row.tiled_seconds = timeTiles(solver, *ctx, b_tiled, x_tiled,
                                        layout, team, reps);
          row.tiled_speedup = row.tiled_seconds > 0.0
                                  ? row.untiled_seconds / row.tiled_seconds
                                  : 0.0;
          // Byte model for tools/roofline.py: the matrix is streamed
          // once per tile (the tile loop replays the matrix walk), the
          // RHS/solution doubles move once each way.
          row.bytes_moved =
              exec::csrBytesMoved(entry.lower.rows(), entry.lower.nnz()) *
                  static_cast<std::size_t>(layout.numTiles()) +
              layout.bytesMoved();
          row.flops = 2 * static_cast<std::size_t>(entry.lower.nnz()) * r;

          // The tiled result must match the reference after unpacking.
          std::vector<double> x_unpacked(b.size());
          layout.unpack(x_tiled, x_unpacked);
          if (x_unpacked != x_ref) bitwise_ok = false;

          std::printf("%-14s %-10s team %2d nrhs %2d "
                      "(tile %2d x%2d): untiled %9.3f ms  tiled %9.3f ms "
                      " (%.2fx)\n",
                      entry.name.c_str(), config.name.c_str(), team,
                      static_cast<int>(nrhs),
                      static_cast<int>(row.tile_cols),
                      static_cast<int>(row.num_tiles),
                      row.untiled_seconds * 1e3, row.tiled_seconds * 1e3,
                      row.tiled_speedup);
          rows.push_back(std::move(row));
        }
      }
    }
  }

  std::vector<double> multi_speedups;
  for (const auto& row : rows) {
    if (row.nrhs >= 8 && row.tiled_speedup > 0.0) {
      multi_speedups.push_back(row.tiled_speedup);
    }
  }
  const double multi_geomean =
      multi_speedups.empty() ? 0.0 : harness::geometricMean(multi_speedups);

  std::printf("\nJSON: {\"bench\":\"tiled_multirhs\",%s,"
              "\"schedule_width\":%d,\"reps\":%d,\"results\":[",
              bench::hostMetaJson().c_str(), width, reps);
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    std::printf("%s{\"dataset\":\"%s\",\"matrix\":\"%s\","
                "\"executor\":\"%s\",\"storage\":\"shared-csr\",\"team\":%d,"
                "\"nrhs\":%d,\"tile_cols\":%d,\"num_tiles\":%d,"
                "\"rows\":%lld,\"nnz\":%lld,"
                "\"untiled_seconds\":%.6g,\"tiled_seconds\":%.6g,"
                "\"tiled_speedup\":%.4g,\"bytes_moved\":%zu,\"flops\":%zu}",
                i == 0 ? "" : ",", row.dataset.c_str(), row.matrix.c_str(),
                row.executor.c_str(), row.team,
                static_cast<int>(row.nrhs), static_cast<int>(row.tile_cols),
                static_cast<int>(row.num_tiles), row.rows_n, row.nnz,
                row.untiled_seconds, row.tiled_seconds, row.tiled_speedup,
                row.bytes_moved, row.flops);
  }
  std::printf("],\"multi_rhs_geomean_speedup\":%.4g,\"bitwise_equal\":%s}\n",
              multi_geomean, bitwise_ok ? "true" : "false");

  std::printf("\nclaim under test: the tiled walk is bitwise identical to "
              "the one-tile walk on\nevery executor x team "
              "x nrhs configuration (speed is reported, not gated).\n");
  std::printf("multi-RHS (nrhs >= 8) tiled geomean speedup: %.2fx\n",
              multi_geomean);
  std::printf(bitwise_ok ? "claim holds.\n" : "claim FAILED.\n");
  return bitwise_ok ? 0 : 1;
}
