#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "benchmath.hpp"
#include "core/schedule.hpp"
#include "inputs.hpp"
#include "spans.hpp"

/// \file phases.hpp
/// The two measurement phases every workload runs, and what they record.
///
/// Solve phase (solve.cpp): per matrix — generate, analyze each scheduler
/// `setup_reps` times (median = set-up time), warm up, then hot
/// single-RHS solvePermuted loops in which Serial, GrowLocal, Funnel+GL,
/// HDagg and SpMP take turns round-robin, the starting scheduler rotating
/// every round so host drift hits all five alike. Each solver alternates
/// between two right-hand sides, and every x is checked against the serial
/// reference off the timer.
///
/// Serve phase (serve.cpp): GrowLocal solvers registered in one
/// engine::SolverEngine; one generator thread offers open-loop traffic at
/// each rate of a fixed ladder, times every request from its due time, and
/// verifies a seeded sample of responses by residual off the timed path.

namespace perfbench {

/// Row order of every per-scheduler array.
enum Sched { kSerial = 0, kGl, kFgl, kHdagg, kSpmp, kNumSched };
inline constexpr std::array<const char*, kNumSched> kSchedKey = {
    "serial", "gl", "fgl", "hdagg", "spmp"};

struct SeriesResult {
  std::vector<double> samples;  ///< untraced per-solve seconds
  std::vector<double> traced;   ///< traced-half per-solve seconds
  std::vector<double> analyze_reps;  ///< analyze() wall time of each rep
  double analyze_s = 0.0;       ///< median of analyze_reps
  sts::core::ScheduleStats stats;
  double bytes_moved = 0.0;     ///< computed: storage + b read + x write
  double max_rel_err = 0.0;     ///< worst x vs. serial reference
  std::uint64_t wrong = 0;      ///< solves that missed the 1e-10 bound
};

struct MatrixResult {
  std::string family;
  std::string name;
  std::int64_t rows = 0;
  std::int64_t nnz = 0;
  double datagen_s = 0.0;
  std::array<SeriesResult, kNumSched> series;
  /// Traced run only: seconds per layer call ("dag.build", ...,
  /// "exec.executor_build").
  std::map<std::string, double> layer_s;
};

struct PhaseConfig {
  int width = 1;            ///< team size of the solve phase
  double seconds = 1.0;     ///< timed budget of this phase
  int setup_reps = 3;       ///< analyses per solver; set-up = their median
  bool trace = false;       ///< traced run: layer spans + obs session
  std::uint64_t seed = 0;
  SpanRecorder* spans = nullptr;
};

struct SolvePhaseResult {
  std::vector<MatrixResult> matrices;
  Summary dispatch;          ///< 256-row diagonal probe (one superstep)
  double setup_s = 0.0;      ///< sum of median analyze() times
  double datagen_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< solves whose x missed 1e-10
};

SolvePhaseResult runSolvePhase(const std::vector<MatrixSpec>& specs,
                               const PhaseConfig& config);

struct ServeConfig {
  std::vector<double> rates;   ///< offered requests/s, ascending
  double limit_s = 0.0;        ///< p99 latency limit of serve_max_rps
  int workers = 1;
  int team = 1;
  std::string obs_trace_path;  ///< traced run: obs session JSON goes here
};

struct StepResult {
  double rate = 0.0;
  double duration_s = 0.0;
  std::vector<RequestTimes> requests;
  Summary latency;                  ///< due-time latency (s)
  double p99 = 0.0;                 ///< inf when failures reach it
  std::size_t backlog = 0;
  bool backlog_grows = false;
  std::uint64_t failed = 0;
  double max_late_s = 0.0;
};

struct ServePhaseResult {
  std::vector<StepResult> steps;
  double setup_s = 0.0;        ///< median analyze() + registration
  double datagen_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;    ///< failed requests + wrong sampled results
  std::uint64_t verified = 0;  ///< sampled responses checked by residual
  std::uint64_t wrong = 0;
  /// Engine-side figures from stats() / metrics() / traceSummary().
  std::map<std::string, double> engine;
};

ServePhaseResult runServePhase(const std::vector<MatrixSpec>& specs,
                               const PhaseConfig& config,
                               const ServeConfig& serve);

}  // namespace perfbench
