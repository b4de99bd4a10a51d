#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/schedule.hpp"
#include "datagen/grids.hpp"
#include "datagen/random_matrices.hpp"
#include "engine/solver_engine.hpp"
#include "exec/slab.hpp"
#include "exec/solver.hpp"
#include "exec/storage.hpp"
#include "test_util.hpp"

/// \file test_slab.cpp
/// The storage contract (exec/storage.hpp): the slab layout — per-thread
/// packed row records built per team for a solver analyzed with kSlab —
/// is bitwise indistinguishable from the shared-CSR walk for every
/// executor kind, team size, fold policy, and RHS count; slab construction
/// packs exactly the CSR row data (ASan-covered in CI); rebuilding slabs
/// across refolds is consistent; concurrent mixed-storage solves are safe
/// (TSan-covered in CI); and an engine serving a kSlab solver serves
/// bitwise-identical batches on slabs. Plus the SLO cold-start seeding satellite: registerSolver
/// seeds the controller from the analyze-time cost model.

namespace sts {
namespace {

using exec::SchedulerKind;
using sparse::CsrMatrix;
using exec::SolverOptions;
using exec::StorageKind;
using exec::TriangularSolver;

struct ExecutorConfig {
  std::string name;
  SolverOptions options;
};

/// One configuration per executor class: contiguous BSP (the reordered
/// §5 path), plain BSP, and the asynchronous P2P executor, plus a
/// wavefront-scheduled BSP for a structurally different schedule.
std::vector<ExecutorConfig> executorConfigs(int width) {
  std::vector<ExecutorConfig> configs;
  {
    SolverOptions opts;
    opts.scheduler = SchedulerKind::kGrowLocal;
    opts.num_threads = width;
    opts.reorder = true;
    configs.push_back({"contiguous", opts});
  }
  {
    SolverOptions opts;
    opts.scheduler = SchedulerKind::kGrowLocal;
    opts.num_threads = width;
    opts.reorder = false;
    configs.push_back({"bsp", opts});
  }
  {
    SolverOptions opts;
    opts.scheduler = SchedulerKind::kWavefront;
    opts.num_threads = width;
    opts.reorder = false;
    configs.push_back({"bsp-wavefront", opts});
  }
  {
    SolverOptions opts;
    opts.scheduler = SchedulerKind::kSpmp;
    opts.num_threads = width;
    configs.push_back({"p2p", opts});
  }
  return configs;
}

std::vector<double> makeRhs(size_t n, index_t nrhs, unsigned salt = 0) {
  std::vector<double> b(n * static_cast<size_t>(nrhs));
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + 0.125 * static_cast<double>((i * 7 + salt) % 23) -
           0.5 * static_cast<double>((i + salt) % 3);
  }
  return b;
}

TEST(SlabRecords, PackExactRowDataAligned) {
  const auto lower = datagen::erdosRenyiLower({.n = 120, .p = 4e-2,
                                               .seed = 5});
  // Two threads, two supersteps, rows interleaved: thread 0 gets even
  // rows, thread 1 odd rows, split halfway into two steps.
  exec::detail::FoldedLists lists;
  lists.verts.resize(2);
  lists.step_ptr.resize(2);
  for (index_t i = 0; i < lower.rows(); ++i) {
    lists.verts[static_cast<size_t>(i % 2)].push_back(i);
  }
  for (int t = 0; t < 2; ++t) {
    const auto total = static_cast<offset_t>(lists.verts[static_cast<size_t>(t)].size());
    lists.step_ptr[static_cast<size_t>(t)] = {0, total / 2, total};
  }

  const auto plan = exec::detail::buildSlabPlan(lower, lists);
  ASSERT_EQ(plan.threads.size(), 2u);
  for (int t = 0; t < 2; ++t) {
    const auto& slab = plan.threads[static_cast<size_t>(t)];
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(slab.bytes.data()) %
                  exec::detail::kSlabAlignment,
              0u);
    EXPECT_EQ(slab.step_ptr, lists.step_ptr[static_cast<size_t>(t)]);
    const std::byte* p = slab.bytes.data();
    for (const index_t v : lists.verts[static_cast<size_t>(t)]) {
      const auto rec = exec::detail::slabRecordAt(p);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(rec.vals) % 8, 0u);
      ASSERT_EQ(rec.row, v);
      const auto cols = lower.rowCols(v);
      const auto vals = lower.rowValues(v);
      ASSERT_EQ(rec.nnz, cols.size() - 1) << "row " << v;
      for (size_t k = 0; k < rec.nnz; ++k) {
        EXPECT_EQ(rec.cols[k], cols[k]);
        EXPECT_EQ(rec.vals[k], vals[k]);
      }
      EXPECT_EQ(rec.diag, vals.back());
      p = rec.next;
    }
    EXPECT_EQ(p, slab.bytes.data() + slab.bytes.size());
  }
}

/// The solver analyzed with `opts` under (policy, storage).
TriangularSolver analyzeWith(const CsrMatrix& lower, SolverOptions opts,
                             core::FoldPolicy policy, StorageKind storage) {
  opts.fold_policy = policy;
  opts.storage = storage;
  return TriangularSolver::analyze(lower, opts);
}

TEST(SlabSolve, BitwiseMatchesSharedCsrForEveryConfig) {
  const int width = 4;
  const auto matrices = {
      datagen::grid2dLaplacian5(14, 17).lowerTriangle(),
      datagen::erdosRenyiLower({.n = 350, .p = 8e-3, .seed = 21}),
      datagen::narrowBandLower({.n = 300, .p = 0.2, .b = 8.0, .seed = 22}),
  };
  for (const auto& lower : matrices) {
    const auto n = static_cast<size_t>(lower.rows());
    for (const auto& config : executorConfigs(width)) {
      for (const auto policy :
           {core::FoldPolicy::kModulo, core::FoldPolicy::kBinPack}) {
        const auto shared = analyzeWith(lower, config.options, policy,
                                        StorageKind::kSharedCsr);
        const auto slab =
            analyzeWith(lower, config.options, policy, StorageKind::kSlab);
        auto shared_ctx = shared.createContext();
        auto slab_ctx = slab.createContext();
        for (int team = 1; team <= shared.numThreads(); ++team) {
          for (const index_t nrhs : {1, 3, 8}) {
            const auto b = makeRhs(n, nrhs);
            std::vector<double> x_shared(b.size());
            std::vector<double> x_slab(b.size());
            shared.solveMultiRhs(b, x_shared, nrhs, *shared_ctx, team);
            slab.solveMultiRhs(b, x_slab, nrhs, *slab_ctx, team);
            ASSERT_EQ(x_slab, x_shared)
                << config.name << " team " << team << " policy "
                << core::foldPolicyName(policy) << " nrhs " << nrhs;
            if (nrhs == 1) {
              std::vector<double> x1_shared(n);
              std::vector<double> x1_slab(n);
              shared.solve(b, x1_shared, *shared_ctx, team);
              slab.solve(b, x1_slab, *slab_ctx, team);
              ASSERT_EQ(x1_slab, x1_shared) << config.name << " team "
                                            << team;
            }
          }
        }
      }
    }
  }
}

TEST(SlabSolve, RebuildOnRefoldStaysBitwise) {
  // Alternating team sizes and policies forces slab builds at every new
  // (solver, team) and cache reuse on revisits; each must agree with the
  // shared-CSR walk of the same fold.
  const auto lower = datagen::bandedLower(280, 10, 0.6, 31);
  const auto n = static_cast<size_t>(lower.rows());
  SolverOptions opts;
  opts.num_threads = 4;
  std::vector<TriangularSolver> shared, slab;
  for (const auto policy :
       {core::FoldPolicy::kModulo, core::FoldPolicy::kBinPack}) {
    shared.push_back(
        analyzeWith(lower, opts, policy, StorageKind::kSharedCsr));
    slab.push_back(analyzeWith(lower, opts, policy, StorageKind::kSlab));
  }
  auto ctx = shared.front().createContext();
  const auto b = makeRhs(n, 3);
  const int sequence[] = {4, 1, 3, 4, 2, 1, 3};
  for (int round = 0; round < 2; ++round) {
    for (const int team : sequence) {
      const auto p = static_cast<size_t>((round + team) % 2);
      std::vector<double> x_shared(b.size());
      std::vector<double> x_slab(b.size());
      shared[p].solveMultiRhs(b, x_shared, 3, *ctx, team);
      slab[p].solveMultiRhs(b, x_slab, 3, *ctx, team);
      ASSERT_EQ(x_slab, x_shared) << "team " << team << " round " << round;
    }
  }
}

TEST(SlabSolve, UpperTriangularAndOptionDefaultPaths) {
  // The reversal-normalized (upper-triangular) path routes through slabs
  // when the solver is analyzed with SolverOptions::storage = kSlab.
  const auto lower = datagen::grid2dLaplacian5(12, 12).lowerTriangle();
  const auto upper = lower.transposed();
  const auto n = static_cast<size_t>(upper.rows());
  SolverOptions shared_opts;
  shared_opts.num_threads = 3;
  SolverOptions slab_opts = shared_opts;
  slab_opts.storage = StorageKind::kSlab;
  const auto shared_solver = TriangularSolver::analyze(upper, shared_opts);
  const auto slab_solver = TriangularSolver::analyze(upper, slab_opts);
  EXPECT_EQ(slab_solver.options().storage, StorageKind::kSlab);
  const auto b = makeRhs(n, 1);
  std::vector<double> x_shared(n);
  std::vector<double> x_slab(n);
  shared_solver.solve(b, x_shared);
  slab_solver.solve(b, x_slab);
  EXPECT_EQ(x_slab, x_shared);

  const auto bm = makeRhs(n, 5);
  std::vector<double> xm_shared(bm.size());
  std::vector<double> xm_slab(bm.size());
  shared_solver.solveMultiRhs(bm, xm_shared, 5,
                              *shared_solver.createContext());
  slab_solver.solveMultiRhs(bm, xm_slab, 5, *slab_solver.createContext());
  EXPECT_EQ(xm_slab, xm_shared);
}

TEST(SlabSolveConcurrent, MixedStorageAndTeamsAreSafe) {
  // Concurrent solves with distinct contexts on four solvers (one per
  // policy x storage). Workers w and w + 4 share a solver and a team on
  // every rep, so the first touch of each team races the builders of the
  // same per-team plan slot (folded rows, plus slabs for the kSlab
  // solvers); the team rotates per rep, so each solver also runs mixed
  // teams — TSan covers this in CI.
  const auto lower = datagen::erdosRenyiLower({.n = 400, .p = 6e-3,
                                               .seed = 41});
  const auto n = static_cast<size_t>(lower.rows());
  SolverOptions opts;
  opts.num_threads = 4;
  opts.reorder = false;
  std::vector<TriangularSolver> solvers;
  for (const auto policy :
       {core::FoldPolicy::kModulo, core::FoldPolicy::kBinPack}) {
    for (const auto storage : {StorageKind::kSharedCsr, StorageKind::kSlab}) {
      solvers.push_back(analyzeWith(lower, opts, policy, storage));
    }
  }

  const auto b = makeRhs(n, 2);
  std::vector<double> expected(b.size());
  solvers.front().solveMultiRhs(b, expected, 2,
                                *solvers.front().createContext(),
                                solvers.front().numThreads());

  constexpr int kWorkers = 8;
  std::vector<std::future<std::vector<double>>> results;
  for (int w = 0; w < kWorkers; ++w) {
    results.push_back(std::async(std::launch::async, [&, w] {
      const TriangularSolver& solver =
          solvers[static_cast<size_t>(w) % solvers.size()];
      auto ctx = solver.createContext();
      std::vector<double> x(b.size());
      for (int rep = 0; rep < 3; ++rep) {
        const int team = 1 + (w + rep) % solver.numThreads();
        solver.solveMultiRhs(b, x, 2, *ctx, team);
      }
      return x;
    }));
  }
  for (auto& f : results) {
    EXPECT_EQ(f.get(), expected);
  }
}

TEST(SlabEngine, SlabSolverServesBitwiseAndCounts) {
  // An engine serving a solver analyzed with kSlab runs every batch on
  // slabs: the stats count each one and the attribution rows carry kSlab.
  const auto lower = datagen::grid2dLaplacian5(13, 13).lowerTriangle();
  const auto n = static_cast<size_t>(lower.rows());
  SolverOptions solver_opts;
  solver_opts.num_threads = 2;
  const auto shared = TriangularSolver::analyze(lower, solver_opts);
  solver_opts.storage = StorageKind::kSlab;
  auto solver = std::make_shared<const TriangularSolver>(
      TriangularSolver::analyze(lower, solver_opts));

  std::vector<std::vector<double>> rhs;
  for (unsigned j = 0; j < 12; ++j) rhs.push_back(makeRhs(n, 1, j));
  std::vector<std::vector<double>> expected;
  auto ctx = shared.createContext();
  for (const auto& b : rhs) {
    std::vector<double> x(n);
    shared.solve(b, x, *ctx);
    expected.push_back(std::move(x));
  }

  engine::EngineOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 4;
  engine::SolverEngine engine(opts);
  const auto id = engine.registerSolver(solver);
  std::vector<std::future<std::vector<double>>> futures;
  for (const auto& b : rhs) futures.push_back(engine.submit(id, b));
  for (size_t j = 0; j < futures.size(); ++j) {
    EXPECT_EQ(futures[j].get(), expected[j]) << "request " << j;
  }
  engine.drain();  // stats post after the promises resolve
  const auto stats = engine.stats(id);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.batches_failed, 0u);
  EXPECT_EQ(stats.slab_batches, stats.batches);
  const auto rows = engine.traceSummary(id);
#if STS_TRACING
  ASSERT_FALSE(rows.empty());
#endif
  for (const auto& row : rows) {
    EXPECT_EQ(row.storage, StorageKind::kSlab) << "team " << row.team;
  }
}

TEST(SlabEngine, SloColdStartSeedsFromCostModel) {
  const auto lower = datagen::grid2dLaplacian5(12, 12).lowerTriangle();
  const auto n = static_cast<size_t>(lower.rows());
  SolverOptions solver_opts;
  solver_opts.num_threads = 4;
  auto solver = std::make_shared<const TriangularSolver>(
      TriangularSolver::analyze(lower, solver_opts));
  const int base = 4;

  // Generous target: the cost model must conclude the minimum team still
  // meets it and seed the controller below the base width. team_size pins
  // the base at the analyzed width so the test is host-independent (the
  // default team clamps to the machine's cores).
  engine::EngineOptions opts;
  opts.num_workers = 1;
  opts.team_size = base;
  opts.elastic = true;
  opts.target_p95 = 30.0;  // far above any solve on this matrix
  opts.start_paused = true;
  engine::SolverEngine engine(opts);
  const auto id = engine.registerSolver(solver);
  const auto seeded = engine.stats(id).seeded_team;
  EXPECT_GE(seeded, 1);
  EXPECT_LT(seeded, base);

  // The first window must be served at the seeded width, not the base.
  std::vector<std::future<std::vector<double>>> futures;
  for (unsigned j = 0; j < 4; ++j) {
    futures.push_back(engine.submit(id, makeRhs(n, 1, j)));
  }
  engine.resume();
  for (auto& f : futures) f.get();
  // Futures resolve before the worker posts its stats; drain() returns
  // only after the batch fully retires, so the snapshot below is stable.
  engine.drain();
  const auto stats = engine.stats(id);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_LE(stats.mean_team_size, static_cast<double>(seeded) + 1e-9);

  // Unreachable target: the model must keep the base width (no seed).
  engine::EngineOptions tight = opts;
  tight.target_p95 = 1e-12;
  engine::SolverEngine tight_engine(tight);
  const auto tight_id = tight_engine.registerSolver(solver);
  EXPECT_EQ(tight_engine.stats(tight_id).seeded_team, 0);
}

TEST(SlabCore, FoldedMakespanAtMatchesManualComposition) {
  const auto lower = datagen::erdosRenyiLower({.n = 200, .p = 1e-2,
                                               .seed = 51});
  const auto dag = dag::Dag::fromLowerTriangular(lower);
  const auto schedule = core::growLocalSchedule(dag, {.num_cores = 4});
  for (const auto policy :
       {core::FoldPolicy::kModulo, core::FoldPolicy::kBinPack}) {
    for (int t = 1; t <= schedule.numCores(); ++t) {
      const auto loads = schedule.rankLoads();
      const auto map = core::foldRankMap(schedule.numSupersteps(),
                                         schedule.numCores(), t, policy,
                                         loads);
      const auto expected = core::foldedMakespan(
          loads, schedule.numSupersteps(), schedule.numCores(), t, map);
      EXPECT_EQ(core::foldedMakespanAt(schedule, t, policy), expected);
    }
  }
  EXPECT_THROW(core::foldedMakespanAt(schedule, 0, core::FoldPolicy::kModulo),
               std::invalid_argument);
  EXPECT_THROW(core::foldedMakespanAt(schedule, schedule.numCores() + 1,
                                      core::FoldPolicy::kModulo),
               std::invalid_argument);
}

}  // namespace
}  // namespace sts
