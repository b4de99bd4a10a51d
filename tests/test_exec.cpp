#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/bsplist.hpp"
#include "baselines/hdagg.hpp"
#include "baselines/spmp.hpp"
#include "baselines/wavefront.hpp"
#include "core/growlocal.hpp"
#include "core/reorder.hpp"
#include "dag/dag.hpp"
#include "exec/affinity.hpp"
#include "exec/bsp.hpp"
#include "exec/serial.hpp"
#include "exec/solver.hpp"
#include "exec/verify.hpp"
#include "datagen/grids.hpp"
#include "datagen/random_matrices.hpp"
#include "sparse/permute.hpp"
#include "test_util.hpp"

namespace sts::exec {
namespace {

using core::Schedule;
using dag::Dag;
using sparse::CsrMatrix;

std::vector<double> rhsFor(const CsrMatrix& lower,
                           const std::vector<double>& x_true) {
  return lower.multiply(x_true);
}

/// One full-width solve on a fresh context (executors keep none).
void solveFullWidth(const Executor& exec, std::span<const double> b,
                    std::span<double> x) {
  exec.solve(b, x, *exec.createContext(), exec.numThreads());
}

TEST(SerialSolve, RoundTripOnZoo) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const auto x_true = referenceSolution(lower.rows(), 77);
    const auto b = rhsFor(lower, x_true);
    std::vector<double> x(static_cast<size_t>(lower.rows()), 0.0);
    solveLowerSerial(lower, b, x);
    EXPECT_LT(relMaxAbsDiff(x, x_true), 1e-9) << name;
    EXPECT_LT(residualInf(lower, x, b), 1e-9) << name;
  }
}

TEST(SerialSolve, UpperRoundTrip) {
  const auto lower = datagen::bandedLower(300, 6, 0.5, 31);
  const CsrMatrix upper = lower.transposed();
  const auto x_true = referenceSolution(300, 78);
  const auto b = upper.multiply(x_true);
  std::vector<double> x(300, 0.0);
  solveUpperSerial(upper, b, x);
  EXPECT_LT(relMaxAbsDiff(x, x_true), 1e-9);
}

TEST(SerialSolve, RejectsMissingDiagonal) {
  // Row 1 has no diagonal entry.
  const std::vector<Triplet> t = {{0, 0, 1.0}, {1, 0, 1.0}};
  const CsrMatrix bad = CsrMatrix::fromTriplets(2, 2, t);
  EXPECT_THROW(requireSolvableLower(bad), std::invalid_argument);
}

TEST(SerialSolve, RejectsZeroDiagonal) {
  const std::vector<Triplet> t = {{0, 0, 0.0}, {1, 1, 1.0}};
  const CsrMatrix bad = CsrMatrix::fromTriplets(2, 2, t);
  EXPECT_THROW(requireSolvableLower(bad), std::invalid_argument);
}

TEST(SerialSolve, RejectsNonTriangular) {
  const std::vector<Triplet> t = {{0, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}};
  const CsrMatrix bad = CsrMatrix::fromTriplets(2, 2, t);
  EXPECT_THROW(requireSolvableLower(bad), std::invalid_argument);
}

TEST(SerialSolve, SizeMismatchThrows) {
  const CsrMatrix id = CsrMatrix::identity(3);
  std::vector<double> b(2, 1.0), x(3, 0.0);
  EXPECT_THROW(solveLowerSerial(id, b, x), std::invalid_argument);
}

/// Parallel executors must reproduce the serial result bit-for-bit: each
/// row sums its CSR entries in the same order regardless of the schedule.
/// SpMP's level tasks run on the same walk over un-reordered row lists.
/// Repeated solves on one context each run above a fresh progress base.
TEST(BspExecutor, BitIdenticalToSerialOnZoo) {
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const std::pair<const char*, Schedule> schedules[] = {
        {"GrowLocal", core::growLocalSchedule(d, {.num_cores = 2})},
        {"SpMP", baselines::spmpSchedule(
                     d, {.num_cores = 2, .transitive_reduction = false})
                     .schedule},
    };
    const auto x_true = referenceSolution(lower.rows(), 80);
    const auto b = rhsFor(lower, x_true);
    std::vector<double> x_serial(b.size(), 0.0), x_par(b.size(), 0.0);
    solveLowerSerial(lower, b, x_serial);
    for (const auto& [kind, sched] : schedules) {
      const BspExecutor exec(lower, sched);
      const auto ctx = exec.createContext();
      for (int rep = 0; rep < 3; ++rep) {
        std::fill(x_par.begin(), x_par.end(), -1.0);
        exec.solve(b, x_par, *ctx, exec.numThreads());
        EXPECT_EQ(x_serial, x_par) << name << " " << kind << " rep " << rep;
      }
    }
  }
}

baselines::HdaggOptions hdaggOptions(int cores) {
  baselines::HdaggOptions opts;
  opts.num_cores = cores;
  return opts;
}

/// Solves alternating right-hand sides b[0], b[1], b[0], ... into ONE x
/// buffer on `ctx` and checks each against the serial reference bitwise.
/// The row kernel reads x in place, so a missing superstep wait reads the
/// previous solve's value of a parent — the other right-hand side's — and
/// fails; with one right-hand side the stale value would already be right.
/// `make(policy)` builds one executor per fold policy.
template <typename MakeExec>
void expectAlternatingSolvesExact(const MakeExec& make, const CsrMatrix& lower,
                                  const std::string& where) {
  std::vector<std::vector<double>> b, expected;
  for (int k = 0; k < 2; ++k) {
    b.push_back(rhsFor(lower, referenceSolution(lower.rows(), 83 + k)));
    expected.emplace_back(b.back().size());
    solveLowerSerial(lower, b.back(), expected.back());
  }
  std::vector<double> x(b[0].size(), 0.0);
  for (const auto policy :
       {core::FoldPolicy::kModulo, core::FoldPolicy::kBinPack}) {
    const BspExecutor exec = make(policy);
    auto ctx = exec.createContext();
    for (const int team : {2, 3, 4}) {
      for (int rep = 0; rep < 6; ++rep) {
        exec.solve(b[rep % 2], x, *ctx, team);
        ASSERT_EQ(x, expected[rep % 2])
            << where << " team " << team << " policy "
            << static_cast<int>(policy) << " solve " << rep;
      }
    }
  }
}

TEST(BspExecutor, RepeatedSolvesAreStable) {
  const std::vector<std::pair<std::string, CsrMatrix>> matrices = {
      {"grid", datagen::grid2dLaplacian5(24, 24).lowerTriangle()},
      {"er", datagen::erdosRenyiLower({.n = 600, .p = 5e-3, .seed = 82})},
  };
  for (const auto& [name, lower] : matrices) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const Schedule gl = core::growLocalSchedule(d, {.num_cores = 4});
    const std::pair<std::string, Schedule> schedules[] = {
        {"GrowLocal", gl},
        {"HDagg", baselines::hdaggSchedule(d, hdaggOptions(4))},
        {"BSPg", baselines::bspListSchedule(d, {.num_cores = 4})},
        {"SpMP", baselines::spmpSchedule(d, {.num_cores = 4}).schedule},
    };
    for (const auto& [kind, sched] : schedules) {
      expectAlternatingSolvesExact(
          [&](core::FoldPolicy policy) {
            return BspExecutor(lower, sched, policy);
          },
          lower, name + " " + kind);
    }
    const core::ReorderedProblem problem = core::reorderForLocality(lower, gl);
    expectAlternatingSolvesExact(
        [&](core::FoldPolicy policy) {
          return BspExecutor(problem.matrix, problem.num_supersteps,
                             problem.num_cores, problem.group_ptr, policy);
        },
        problem.matrix, name + " GrowLocal contiguous");
  }
}

SolverOptions spmpSolverOptions(int threads) {
  SolverOptions opts;
  opts.scheduler = SchedulerKind::kSpmp;
  opts.num_threads = threads;
  return opts;
}

/// Distinct contexts allow simultaneous solves on one SpMP solver; results
/// stay bitwise the serial solve's regardless of interleaving.
TEST(SpmpSolver, ConcurrentSolvesWithDistinctContexts) {
  const auto lower = datagen::erdosRenyiLower({.n = 400, .p = 8e-3, .seed = 89});
  const auto solver = TriangularSolver::analyze(lower, spmpSolverOptions(2));
  ASSERT_FALSE(solver.isPermuted());
  const auto x_true = referenceSolution(lower.rows(), 84);
  const auto b = rhsFor(lower, x_true);
  std::vector<double> expected(b.size(), 0.0);
  solveLowerSerial(lower, b, expected);

  constexpr int kThreads = 3;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto ctx = solver.createContext();
      std::vector<double> x(b.size(), 0.0);
      for (int rep = 0; rep < 3; ++rep) {
        std::fill(x.begin(), x.end(), -1.0);
        solver.solve(b, x, *ctx, solver.numThreads());
        if (x != expected) failures[static_cast<size_t>(t)] += 1;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

TEST(ContiguousExecutor, MatchesSerialWithinTolerance) {
  // The permuted matrix reorders row entries, so the sums can differ by
  // rounding; compare with a norm-wise tolerance.
  for (const auto& [name, lower] : testutil::lowerTriangularZoo()) {
    const Dag d = Dag::fromLowerTriangular(lower);
    const Schedule s = core::growLocalSchedule(d, {.num_cores = 2});
    core::ReorderedProblem problem = core::reorderForLocality(lower, s);
    const BspExecutor exec(problem.matrix, problem.num_supersteps,
                           problem.num_cores, problem.group_ptr);
    const auto x_true = referenceSolution(lower.rows(), 88);
    const auto b = rhsFor(lower, x_true);
    const auto b_perm = sparse::permuteVector(b, problem.new_to_old);
    std::vector<double> x_perm(b.size(), 0.0);
    solveFullWidth(exec, b_perm, x_perm);
    const auto x = sparse::unpermuteVector(x_perm, problem.new_to_old);
    EXPECT_LT(relMaxAbsDiff(x, x_true), 1e-8) << name;
  }
}

/// Distinct contexts allow simultaneous solves on one executor; results
/// stay bit-identical to serial regardless of interleaving.
TEST(BspExecutor, ConcurrentSolvesWithDistinctContexts) {
  const auto lower = datagen::erdosRenyiLower({.n = 500, .p = 6e-3, .seed = 90});
  const Dag d = Dag::fromLowerTriangular(lower);
  const Schedule s = core::growLocalSchedule(d, {.num_cores = 2});
  const BspExecutor exec(lower, s);
  const auto x_true = referenceSolution(lower.rows(), 91);
  const auto b = rhsFor(lower, x_true);
  std::vector<double> expected(b.size(), 0.0);
  solveLowerSerial(lower, b, expected);

  constexpr int kThreads = 3;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto ctx = exec.createContext();
      std::vector<double> x(b.size(), 0.0);
      for (int rep = 0; rep < 3; ++rep) {
        std::fill(x.begin(), x.end(), -1.0);
        exec.solve(b, x, *ctx, exec.numThreads());
        if (x != expected) failures[static_cast<size_t>(t)] += 1;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

/// The superstep walk's peer waits on one CPU: a waiter must yield to
/// the descheduled peer whose progress it waits for, or every wait burns
/// the producer's whole time slice (seconds per solve instead of
/// microseconds).
TEST(BspExecutor, TeamPinnedToOneCpuYieldsToProducers) {
  if (!affinitySupported()) GTEST_SKIP() << "no affinity support";
  const auto lower = datagen::grid2dLaplacian5(120, 120).lowerTriangle();
  const Dag d = Dag::fromLowerTriangular(lower);
  const auto b = rhsFor(lower, referenceSolution(lower.rows(), 99));
  std::vector<double> expected(b.size());
  solveLowerSerial(lower, b, expected);
  const std::pair<const char*, Schedule> schedules[] = {
      {"GrowLocal", core::growLocalSchedule(d, {.num_cores = 2})},
      {"HDagg", baselines::hdaggSchedule(d, hdaggOptions(2))},
      {"SpMP", baselines::spmpSchedule(d, {.num_cores = 2}).schedule},
  };
  for (const auto& [kind, sched] : schedules) {
    const BspExecutor exec(lower, sched);
    auto ctx = exec.createContext();
    ctx->setPinnedCores({0});
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<double> x(b.size());
      exec.solve(b, x, *ctx, 2);
      ASSERT_EQ(x, expected) << kind << " solve " << rep;
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    EXPECT_LT(elapsed.count(), 5.0) << kind;
  }
}

TEST(BspExecutor, MultiRhsMatchesSingleSolvesBitwise) {
  const auto lower = datagen::bandedLower(300, 7, 0.5, 92);
  const Dag d = Dag::fromLowerTriangular(lower);
  const Schedule s = core::growLocalSchedule(d, {.num_cores = 2});
  const BspExecutor exec(lower, s);
  const auto n = static_cast<size_t>(lower.rows());
  constexpr index_t kNrhs = 3;
  std::vector<double> b_multi(n * kNrhs), x_multi(n * kNrhs, 0.0);
  std::vector<std::vector<double>> expected;
  for (index_t c = 0; c < kNrhs; ++c) {
    const auto x_true = referenceSolution(lower.rows(), 93 + c);
    const auto b = rhsFor(lower, x_true);
    for (size_t i = 0; i < n; ++i) {
      b_multi[i * kNrhs + static_cast<size_t>(c)] = b[i];
    }
    expected.emplace_back(n, 0.0);
    solveFullWidth(exec, b, expected.back());
  }
  exec.solveTiles(b_multi, x_multi, TileLayout(lower.rows(), kNrhs, kNrhs),
                  *exec.createContext(), exec.numThreads());
  for (index_t c = 0; c < kNrhs; ++c) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x_multi[i * kNrhs + static_cast<size_t>(c)],
                expected[static_cast<size_t>(c)][i]);
    }
  }
}

TEST(ContiguousExecutor, MultiRhsMatchesSingleSolvesBitwise) {
  const auto lower = datagen::bandedLower(300, 7, 0.5, 94);
  const Dag d = Dag::fromLowerTriangular(lower);
  const Schedule s = core::growLocalSchedule(d, {.num_cores = 2});
  core::ReorderedProblem problem = core::reorderForLocality(lower, s);
  const BspExecutor exec(problem.matrix, problem.num_supersteps,
                         problem.num_cores, problem.group_ptr);
  const auto n = static_cast<size_t>(lower.rows());
  constexpr index_t kNrhs = 3;
  std::vector<double> b_multi(n * kNrhs), x_multi(n * kNrhs, 0.0);
  std::vector<std::vector<double>> expected;
  for (index_t c = 0; c < kNrhs; ++c) {
    const auto x_true = referenceSolution(lower.rows(), 95 + c);
    const auto b_perm =
        sparse::permuteVector(rhsFor(lower, x_true), problem.new_to_old);
    for (size_t i = 0; i < n; ++i) {
      b_multi[i * kNrhs + static_cast<size_t>(c)] = b_perm[i];
    }
    expected.emplace_back(n, 0.0);
    solveFullWidth(exec, b_perm, expected.back());
  }
  exec.solveTiles(b_multi, x_multi, TileLayout(lower.rows(), kNrhs, kNrhs),
                  *exec.createContext(), exec.numThreads());
  for (index_t c = 0; c < kNrhs; ++c) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x_multi[i * kNrhs + static_cast<size_t>(c)],
                expected[static_cast<size_t>(c)][i]);
    }
  }
}

/// Each column of a kSpmp solver's multi-RHS solve is bitwise that
/// column's solve() and the serial solve, on every team.
TEST(SpmpSolver, MultiRhsMatchesPerColumnSolves) {
  const auto lower = datagen::erdosRenyiLower({.n = 400, .p = 8e-3, .seed = 96});
  const auto solver = TriangularSolver::analyze(lower, spmpSolverOptions(3));
  const auto n = static_cast<size_t>(lower.rows());
  constexpr index_t kNrhs = 3;
  std::vector<double> b_multi(n * kNrhs);
  std::vector<std::vector<double>> columns;
  for (index_t c = 0; c < kNrhs; ++c) {
    const auto b = rhsFor(lower, referenceSolution(lower.rows(), 97 + c));
    for (size_t i = 0; i < n; ++i) {
      b_multi[i * kNrhs + static_cast<size_t>(c)] = b[i];
    }
    columns.push_back(b);
  }
  auto ctx = solver.createContext();
  for (int team = 1; team <= solver.numThreads(); ++team) {
    std::vector<double> x_multi(n * kNrhs, 0.0);
    solver.solveMultiRhs(b_multi, x_multi, kNrhs, *ctx, team);
    for (index_t c = 0; c < kNrhs; ++c) {
      const auto& b = columns[static_cast<size_t>(c)];
      std::vector<double> x_col(n, 0.0), x_serial(n, 0.0);
      solver.solve(b, x_col, *ctx, team);
      solveLowerSerial(lower, b, x_serial);
      EXPECT_EQ(x_col, x_serial) << "team " << team << " rhs " << c;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(x_multi[i * kNrhs + static_cast<size_t>(c)], x_col[i])
            << "team " << team << " rhs " << c << " row " << i;
      }
    }
  }
}

/// The reversal-normalized (upper-triangular) path of a solver analyzed
/// with default options (only the width set): the context-free solve()
/// matches backward substitution, and each column of a default-team
/// solveMultiRhs batch is bitwise that column's solve().
TEST(UpperTriangularSolve, DefaultOptionsSolveAndMultiRhsAgree) {
  const CsrMatrix upper =
      datagen::grid2dLaplacian5(12, 12).lowerTriangle().transposed();
  const auto n = static_cast<size_t>(upper.rows());
  SolverOptions opts;
  opts.num_threads = 3;
  const auto solver = TriangularSolver::analyze(upper, opts);
  ASSERT_TRUE(solver.isPermuted());

  constexpr index_t kNrhs = 5;
  std::vector<double> b_multi(n * kNrhs), x_multi(n * kNrhs, 0.0);
  std::vector<std::vector<double>> expected;
  for (index_t c = 0; c < kNrhs; ++c) {
    const auto x_true = referenceSolution(upper.rows(), 98 + c);
    const auto b = upper.multiply(x_true);
    for (size_t i = 0; i < n; ++i) {
      b_multi[i * kNrhs + static_cast<size_t>(c)] = b[i];
    }
    std::vector<double> x_serial(n, 0.0);
    solveUpperSerial(upper, b, x_serial);
    expected.emplace_back(n, 0.0);
    solver.solve(b, expected.back());
    EXPECT_LT(relMaxAbsDiff(expected.back(), x_serial), 1e-12) << "rhs " << c;
    EXPECT_LT(relMaxAbsDiff(expected.back(), x_true), 1e-8) << "rhs " << c;
  }
  solver.solveMultiRhs(b_multi, x_multi, kNrhs, *solver.createContext());
  for (index_t c = 0; c < kNrhs; ++c) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(x_multi[i * kNrhs + static_cast<size_t>(c)],
                expected[static_cast<size_t>(c)][i])
          << "rhs " << c << " row " << i;
    }
  }
}

TEST(VerifyHelpers, Norms) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {1.0, 2.5, 3.0};
  EXPECT_DOUBLE_EQ(maxAbsDiff(a, b), 0.5);
  EXPECT_DOUBLE_EQ(relMaxAbsDiff(a, b), 0.5 / 3.0);
  EXPECT_THROW(maxAbsDiff(a, std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(VerifyHelpers, ReferenceSolutionDeterministicNonZero) {
  const auto x1 = referenceSolution(100, 5);
  const auto x2 = referenceSolution(100, 5);
  EXPECT_EQ(x1, x2);
  for (const double v : x1) {
    EXPECT_GE(std::abs(v), 0.1);
    EXPECT_LE(std::abs(v), 1.0);
  }
}

}  // namespace
}  // namespace sts::exec
