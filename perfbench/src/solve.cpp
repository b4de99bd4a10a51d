#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "baselines/hdagg.hpp"
#include "baselines/spmp.hpp"
#include "core/coarsen.hpp"
#include "core/growlocal.hpp"
#include "core/reorder.hpp"
#include "dag/dag.hpp"
#include "dag/transitive.hpp"
#include "datagen/random_matrices.hpp"
#include "exec/serial.hpp"
#include "exec/solver.hpp"
#include "obs/trace.hpp"
#include "phases.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using sts::exec::SchedulerKind;
using sts::exec::TriangularSolver;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::array<SchedulerKind, kNumSched> kKinds = {
    SchedulerKind::kSerial, SchedulerKind::kGrowLocal,
    SchedulerKind::kFunnelGrowLocal, SchedulerKind::kHdagg,
    SchedulerKind::kSpmp};

sts::exec::SolverOptions solverOptions(Sched s, int width) {
  sts::exec::SolverOptions o;
  o.scheduler = kKinds[s];
  o.num_threads = width;
  // As in the harness (§1.1.3): the §5 reordering belongs to the paper's
  // schedulers, not to the baselines.
  o.reorder = s == kGl || s == kFgl;
  o.validate = false;  // timed analysis; correctness is checked on x
  return o;
}

/// Traced run: every layer call analyze() makes, timed from outside, so
/// exec.executor_build = analyze - (DAG + scheduler + reorder + stats).
std::map<std::string, double> layerTimes(
    const sts::sparse::CsrMatrix& m, int width, SpanRecorder& spans,
    const std::array<double, kNumSched>& analyze_s) {
  auto timed = [&](const char* name, double& took, auto&& fn) {
    ScopedSpan span(spans, name);
    const auto t0 = Clock::now();
    auto result = fn();
    took = since(t0);
    return result;
  };
  double dag_s = 0, tr_s = 0, gl_s = 0, fgl_s = 0, gl_re_s = 0, fgl_re_s = 0,
         hd_s = 0, sp_s = 0, stats_s = 0;
  const auto dag = timed("dag.build", dag_s, [&] {
    return sts::dag::Dag::fromLowerTriangular(m);
  });
  timed("dag.transitive", tr_s,
        [&] { return sts::dag::approximateTransitiveReduction(dag); });
  sts::core::GrowLocalOptions gl;
  gl.num_cores = width;
  const auto gl_sched = timed("core.growlocal", gl_s, [&] {
    return sts::core::growLocalSchedule(dag, gl);
  });
  const auto fgl_sched = timed("core.funnel", fgl_s, [&] {
    return sts::core::funnelGrowLocalSchedule(dag, gl);
  });
  timed("core.reorder", gl_re_s,
        [&] { return sts::core::reorderForLocality(m, gl_sched); });
  timed("core.reorder", fgl_re_s,
        [&] { return sts::core::reorderForLocality(m, fgl_sched); });
  timed("baselines.hdagg", hd_s, [&] {
    sts::baselines::HdaggOptions o;
    o.num_cores = width;
    return sts::baselines::hdaggSchedule(dag, o);
  });
  timed("baselines.spmp", sp_s, [&] {
    sts::baselines::SpmpOptions o;
    o.num_cores = width;
    return sts::baselines::spmpSchedule(dag, o);
  });
  timed("core.stats", stats_s,
        [&] { return sts::core::computeScheduleStats(dag, gl_sched); });

  const double common = dag_s + stats_s;
  const std::array<double, kNumSched> parts = {
      0.0, common + gl_s + gl_re_s, common + fgl_s + fgl_re_s,
      common + hd_s, common + sp_s};
  double executor_s = 0.0;
  for (int s = kGl; s < kNumSched; ++s) {
    executor_s += std::max(0.0, analyze_s[s] - parts[s]);
  }
  return {{"dag.build", dag_s},         {"dag.transitive", tr_s},
          {"core.growlocal", gl_s},     {"core.funnel", fgl_s},
          {"core.reorder", gl_re_s + fgl_re_s},
          {"baselines.hdagg", hd_s},    {"baselines.spmp", sp_s},
          {"core.stats", stats_s},      {"exec.executor_build", executor_s}};
}

/// Global warm-up plus the dispatch probe: a 256-row diagonal system is one
/// superstep of trivial rows, so its solve time is the team-start floor.
Summary dispatchProbe(int width, double warmup_s) {
  const auto diag = sts::datagen::diagonalMatrix(256);
  sts::exec::SolverOptions o;
  o.num_threads = width;
  o.validate = false;
  const auto solver = TriangularSolver::analyze(diag, o);
  auto ctx = solver.createContext();
  const std::vector<double> b(256, 1.0);
  std::vector<double> x(256, 0.0);
  const auto t0 = Clock::now();
  while (since(t0) < warmup_s) solver.solvePermuted(b, x, *ctx, width);
  std::vector<double> samples;
  for (int i = 0; i < 4000; ++i) {
    const auto s0 = Clock::now();
    solver.solvePermuted(b, x, *ctx, width);
    samples.push_back(since(s0));
  }
  return summarize(samples);
}

}  // namespace

SolvePhaseResult runSolvePhase(const std::vector<MatrixSpec>& specs,
                               const PhaseConfig& config) {
  SolvePhaseResult out;
  SpanRecorder& spans = *config.spans;
  out.dispatch = dispatchProbe(config.width, 1.0);
  const double per_matrix = config.seconds / static_cast<double>(specs.size());

  for (std::size_t mi = 0; mi < specs.size(); ++mi) {
    const MatrixSpec& spec = specs[mi];
    MatrixResult mr;
    mr.family = spec.family;
    mr.name = spec.name;
    const auto g0 = Clock::now();
    const sts::sparse::CsrMatrix m = [&] {
      ScopedSpan span(spans, "datagen.matrix");
      return spec.make();
    }();
    mr.datagen_s = since(g0);
    out.datagen_s += mr.datagen_s;
    mr.rows = m.rows();
    mr.nnz = m.nnz();
    const auto n = static_cast<std::size_t>(m.rows());

    // Set-up: the analyses the program needs before its first solve. The
    // schedulers take turns rep by rep, so drift within the matrix hits all
    // four alike; a solver's set-up time is the median of its reps.
    std::array<std::unique_ptr<TriangularSolver>, kNumSched> solvers;
    std::array<double, kNumSched> analyze_s{};
    for (int r = 0; r < config.setup_reps; ++r) {
      for (int s = kGl; s < kNumSched; ++s) {
        ScopedSpan span(spans, "exec.analyze");
        solvers[s].reset();  // one analyzed copy per scheduler alive
        const auto t0 = Clock::now();
        auto analyzed = TriangularSolver::analyze(
            m, solverOptions(static_cast<Sched>(s), config.width));
        mr.series[s].analyze_reps.push_back(since(t0));
        solvers[s] = std::make_unique<TriangularSolver>(std::move(analyzed));
      }
    }
    for (int s = kGl; s < kNumSched; ++s) {
      analyze_s[s] = summarize(mr.series[s].analyze_reps).median;
      mr.series[s].analyze_s = analyze_s[s];
      mr.series[s].stats = solvers[s]->stats();
      mr.series[s].bytes_moved =
          static_cast<double>(solvers[s]->storageBytesMoved(
              config.width, sts::core::FoldPolicy::kModulo,
              sts::exec::StorageKind::kSharedCsr)) +
          16.0 * static_cast<double>(n);
      out.setup_s += analyze_s[s];
    }
    if (config.trace) mr.layer_s = layerTimes(m, config.width, spans, analyze_s);

    // Inputs in each solver's internal order (the paper's permuted-space
    // methodology, §5), permuted once, outside the timed loop. Each solver
    // alternates between two right-hand sides and every x is checked: the
    // row kernel reads x in place, so a solve that reads an operand before
    // it is written this time (a missing barrier or wait) picks up the
    // other right-hand side's value and misses the reference.
    std::array<std::vector<double>, 2> b, x_ref;
    std::array<double, 2> ref_scale{};
    for (int k = 0; k < 2; ++k) {
      b[k] = randomVector(n, mixSeed(config.seed, 1000 * (k + 1) + mi));
      x_ref[k].assign(n, 0.0);
      sts::exec::solveLowerSerial(m, b[k], x_ref[k]);
      ref_scale[k] = relErrorScale(x_ref[k]);
    }
    std::array<std::array<std::vector<double>, 2>, kNumSched> bp, xp_ref;
    std::array<std::vector<double>, kNumSched> xs;
    std::array<std::uint64_t, kNumSched> uses{};
    std::array<std::unique_ptr<sts::exec::SolveContext>, kNumSched> ctx;
    for (int s = 0; s < kNumSched; ++s) {
      xs[s].assign(n, 0.0);
      for (int k = 0; k < 2; ++k) {
        bp[s][k] = b[k];
        xp_ref[s][k] = x_ref[k];
      }
      if (s == kSerial) continue;
      const auto perm = solvers[s]->permutation();
      for (int k = 0; k < 2; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
          const auto p = static_cast<std::size_t>(perm[i]);
          bp[s][k][i] = b[k][p];
          xp_ref[s][k][i] = x_ref[k][p];
        }
      }
      ctx[s] = solvers[s]->createContext();
    }
    static const std::array<std::string, kNumSched> kSpanNames = {
        "exec.solve.serial", "exec.solve.gl", "exec.solve.fgl",
        "exec.solve.hdagg", "exec.solve.spmp"};
    // One checked solve; returns its time (the check is not timed).
    auto solveOnce = [&](int s) {
      const auto k = static_cast<std::size_t>(uses[s]++ % 2);
      const auto s0 = Clock::now();
      {
        ScopedSpan span(spans, kSpanNames[s]);
        if (s == kSerial) {
          sts::exec::solveLowerSerial(m, bp[s][k], xs[s]);
        } else {
          solvers[s]->solvePermuted(bp[s][k], xs[s], *ctx[s], config.width);
        }
      }
      const double dt = since(s0);
      const double err = relError(xs[s], xp_ref[s][k], ref_scale[k]);
      SeriesResult& sr = mr.series[s];
      ++out.attempted;
      if (!(err <= 1e-10)) {
        if (sr.wrong++ == 0) {
          std::fprintf(stderr, "WRONG RESULT: %s %s solve %llu rel err %.3g\n",
                       mr.name.c_str(), kSchedKey[s],
                       static_cast<unsigned long long>(uses[s]), err);
        }
        ++out.failed;
      }
      if (!(err <= sr.max_rel_err)) sr.max_rel_err = err;  // NaN sticks
      return dt;
    };

    // Warm-up rounds, then timed rounds with a rotating start. A traced run
    // spends the second half of the budget with the obs session open and a
    // span around every solve; the first half gives the untraced baseline.
    for (int r = 0; r < 3; ++r) {
      for (int s = 0; s < kNumSched; ++s) solveOnce(s);
    }
    const double halves = config.trace ? 2.0 : 1.0;
    for (int half = 0; half < static_cast<int>(halves); ++half) {
      const bool traced = half == 1;
      std::shared_ptr<sts::obs::TraceSession> session;
      if (traced) {
        session = sts::obs::TraceSession::start();
        spans.setEnabled(true);
      } else if (config.trace) {
        spans.setEnabled(false);
      }
      const auto t0 = Clock::now();
      for (std::size_t round = 0;; ++round) {
        for (int j = 0; j < kNumSched; ++j) {
          const int s = static_cast<int>((round + j) % kNumSched);
          const double dt = solveOnce(s);
          (traced ? mr.series[s].traced : mr.series[s].samples).push_back(dt);
        }
        if (round >= 10 && since(t0) >= per_matrix / halves) break;
      }
      if (session) session->stop();
    }
    if (config.trace) spans.setEnabled(true);
    out.matrices.push_back(std::move(mr));
  }
  return out;
}

}  // namespace perfbench
