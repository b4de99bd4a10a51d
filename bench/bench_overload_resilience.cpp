/// Overload resilience: open-loop serving at a multiple of the engine's
/// measured capacity, with overload admission control engaged
/// (EngineOptions::overload_control) and — under -DSTS_FAULTS=ON —
/// deterministic fault injection active (superstep latency spikes plus a
/// stalling worker pop; src/fault/failpoint.hpp). Phase 1 measures
/// capacity with a warmed closed loop on the engine without overload
/// control, using the same request count, priority mix (every fourth
/// request latency-class with a deadline) and armed faults as phase 2,
/// which replays that mix open-loop at STS_OVERLOAD_MULT x the measured
/// rate and checks the robustness contracts docs/ROBUSTNESS.md states:
///
///   * every submitted future resolves — a value or a typed EngineError
///     (kRejected / kExpired); nothing is left hanging,
///   * admitted latency-class requests stay under a bounded p95,
///   * every admitted response is bitwise equal to
///     TriangularSolver::solve — shedding load never changes a result, and
///   * aggregate throughput stays within a factor of the closed-loop
///     capacity — admission control sheds requests, not the pipeline.
///
///   STS_BENCH_SCALE / STS_BENCH_REPS   dataset sizing as usual;
///   STS_OVERLOAD_REQUESTS (default 96) open-loop arrivals;
///   STS_OVERLOAD_MULT     (default 2)  offered load / measured capacity;
///   STS_OVERLOAD_WIDTH    (default 4)  analyzed schedule width;
///   STS_OVERLOAD_WORKERS  (default 2)  engine dispatcher threads;
///   STS_OVERLOAD_DEPTH    (default 64) bounded queue depth;
///   STS_OVERLOAD_TARGET_MS (default 60) queue delay at which
///                         throughput-class work is rejected;
///   STS_OVERLOAD_DEADLINE_S (default 2) latency-class deadline;
///   STS_OVERLOAD_P95_S    (default 2x deadline) latency p95 gate;
///   STS_OVERLOAD_TPUT_FLOOR (default 0.25) throughput-ratio gate;
///   STS_OVERLOAD_FAULTS   (default 1)  arm failpoints (STS_FAULTS=ON).
///
/// Emits JSON with host metadata (schema in docs/BENCHMARKS.md). Exit
/// code 0 iff all four contracts hold.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "engine/solver_engine.hpp"
#include "fault/failpoint.hpp"
#include "harness/datasets.hpp"
#include "harness/stats.hpp"

namespace {

using namespace sts;
using engine::EngineError;
using engine::EngineErrorCode;
using engine::RequestPriority;
using engine::SubmitOptions;

using sts::bench::envInt;

double envDouble(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  return raw && *raw ? std::atof(raw) : fallback;
}

enum class Kind { kPending, kOk, kRejected, kExpired, kShutdown, kError };

struct Outcome {
  RequestPriority priority = RequestPriority::kThroughput;
  Kind kind = Kind::kPending;
  double submit_s = 0.0;  ///< seconds since open-loop start
  double done_s = 0.0;
  bool exact = false;  ///< x bitwise equal to TriangularSolver::solve
};

/// Request j's submission options — the priority mix both phases share.
SubmitOptions submitOptionsFor(int j, double deadline) {
  SubmitOptions so;
  if (j % 4 == 0) {
    so.priority = RequestPriority::kLatency;
    so.deadline_seconds = deadline;
  }
  return so;
}

}  // namespace

int main() {
  const int requests = envInt("STS_OVERLOAD_REQUESTS", 96);
  const double mult = envDouble("STS_OVERLOAD_MULT", 2.0);
  const int width = envInt("STS_OVERLOAD_WIDTH", 4);
  const int workers = envInt("STS_OVERLOAD_WORKERS", 2);
  const auto depth =
      static_cast<std::size_t>(envInt("STS_OVERLOAD_DEPTH", 64));
  const double target_delay =
      envDouble("STS_OVERLOAD_TARGET_MS", 60.0) / 1e3;
  const double deadline = envDouble("STS_OVERLOAD_DEADLINE_S", 2.0);
  const double p95_bound = envDouble("STS_OVERLOAD_P95_S", 2.0 * deadline);
  const double tput_floor = envDouble("STS_OVERLOAD_TPUT_FLOOR", 0.25);

  bench::banner("Overload resilience", "Robustness contracts",
                "Open-loop 2x overload with deadlines, admission control "
                "and fault injection");
  std::printf("%d arrivals at %.1fx capacity, width %d, %d workers, queue "
              "depth %zu, target delay %.0f ms\n\n",
              requests, mult, width, workers, depth, target_delay * 1e3);

  auto standin = harness::suiteSparseStandin();
  if (standin.empty()) {
    std::printf("no dataset available; nothing to measure\n");
    return 1;
  }
  const auto entry = std::move(standin.front());
  const auto n = static_cast<size_t>(entry.lower.rows());

  exec::SolverOptions solver_opts;
  solver_opts.scheduler = exec::SchedulerKind::kGrowLocal;
  solver_opts.num_threads = width;
  solver_opts.validate = false;
  auto solver = std::make_shared<const exec::TriangularSolver>(
      exec::TriangularSolver::analyze(entry.lower, solver_opts));

  std::vector<std::vector<double>> rhs(static_cast<size_t>(requests));
  for (size_t j = 0; j < rhs.size(); ++j) {
    rhs[j].resize(n);
    for (size_t i = 0; i < n; ++i) {
      rhs[j][i] = 1.0 + 0.25 * static_cast<double>((i + 7 * j) % 13);
    }
  }
  // The reference every admitted response must match bitwise.
  std::vector<std::vector<double>> expected(rhs.size(),
                                            std::vector<double>(n));
  for (size_t j = 0; j < rhs.size(); ++j) solver->solve(rhs[j], expected[j]);

  using Clock = std::chrono::steady_clock;

  // ---- Fault arming (STS_FAULTS=ON builds only): rank-stable superstep
  // latency spikes plus a bounded run of 5 ms stalls on the worker pop —
  // the "straggler thread + hiccuping dispatcher" mix. Delay/stall
  // actions only, per the executor hook contract. Both timed phases run
  // under the same spec and seed, re-armed with fresh counters, so the
  // floor compares the open loop against the capacity of the same faulted
  // host rather than charging the injected stalls to admission control.
  const bool faults_armed =
      STS_FAULTS != 0 && envInt("STS_OVERLOAD_FAULTS", 1) != 0;
  const auto arm_faults = [&] {
#if STS_FAULTS
    if (faults_armed) {
      fault::FailpointRegistry::global().configure(
          "exec.superstep=delay(200),p=0.05;"
          "engine.worker_pop=stall(5),p=0.25,limit=8",
          /*seed=*/42);
    }
#endif
  };

  // ---- Phase 1: closed-loop capacity, overload control off. One
  // untimed, fault-free pass warms the engine (fold plans, tile scratch,
  // OpenMP teams); the timed pass then keeps `window` requests in flight
  // — enough to fill every worker's batch — submitting request
  // j + window as request j resolves, with phase 2's request count and
  // priority mix. The open-loop phase offers `mult` times the rate
  // measured here.
  double baseline_rps = 0.0;
  {
    engine::EngineOptions opts;
    opts.num_workers = workers;
    opts.coalesce = true;
    opts.max_queue_depth = depth;
    engine::SolverEngine eng(opts);
    const auto id = eng.registerSolver(solver);
    const auto window = std::min(
        rhs.size(), static_cast<size_t>(workers) *
                        static_cast<size_t>(opts.max_batch));
    const auto closed_loop = [&] {
      std::vector<std::future<std::vector<double>>> futures(rhs.size());
      const auto submit = [&](size_t j) {
        futures[j] = eng.submit(id, rhs[j],
                                submitOptionsFor(static_cast<int>(j),
                                                 deadline));
      };
      for (size_t j = 0; j < window; ++j) submit(j);
      for (size_t j = 0; j < rhs.size(); ++j) {
        futures[j].get();
        if (j + window < rhs.size()) submit(j + window);
      }
    };
    closed_loop();
    eng.drain();
    arm_faults();
    const auto t0 = Clock::now();
    closed_loop();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    baseline_rps = static_cast<double>(requests) / elapsed;
    std::printf("baseline (warmed closed loop, %zu in flight): %.3f s for "
                "%d requests = %.0f rhs/s\n",
                window, elapsed, requests, baseline_rps);
  }

  // ---- Phase 2: open loop at mult x capacity with admission control.
  arm_faults();
  std::vector<Outcome> outcomes(static_cast<size_t>(requests));
  std::size_t unresolved = 0;
  std::uint64_t rejected = 0, expired = 0, ok_count = 0;
  double overload_rps = 0.0;
  {
    engine::EngineOptions opts;
    opts.num_workers = workers;
    opts.coalesce = true;
    opts.max_queue_depth = depth;
    opts.overload_control = true;
    opts.overload_target_delay = target_delay;
    engine::SolverEngine eng(opts);
    const auto id = eng.registerSolver(solver);

    const double interval = 1.0 / (mult * baseline_rps);
    std::vector<std::future<std::vector<double>>> futures;
    futures.reserve(rhs.size());
    const auto start = Clock::now();
    for (int j = 0; j < requests; ++j) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(interval * j)));
      const SubmitOptions so = submitOptionsFor(j, deadline);
      auto& out = outcomes[static_cast<size_t>(j)];
      out.priority = so.priority;
      out.submit_s =
          std::chrono::duration<double>(Clock::now() - start).count();
      futures.push_back(
          eng.submit(id, rhs[static_cast<size_t>(j)], so));
    }

    // Resolve every future by polling so per-request completion times are
    // observed when they happen, not in submission order. The 120 s cap
    // exists only so a wedged engine fails the gate instead of hanging
    // the bench.
    std::size_t pending = futures.size();
    const auto hard_stop = Clock::now() + std::chrono::seconds(120);
    double last_ok_s = 0.0;
    while (pending > 0 && Clock::now() < hard_stop) {
      for (size_t j = 0; j < futures.size(); ++j) {
        auto& out = outcomes[j];
        if (out.kind != Kind::kPending || !futures[j].valid()) continue;
        if (futures[j].wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          continue;
        }
        out.done_s =
            std::chrono::duration<double>(Clock::now() - start).count();
        try {
          const std::vector<double> x = futures[j].get();
          out.kind = Kind::kOk;
          out.exact = x == expected[j];
        } catch (const EngineError& err) {
          out.kind = err.code() == EngineErrorCode::kRejected
                         ? Kind::kRejected
                         : err.code() == EngineErrorCode::kExpired
                               ? Kind::kExpired
                               : Kind::kShutdown;
        } catch (...) {
          out.kind = Kind::kError;
        }
      }
      pending = 0;
      for (const auto& out : outcomes) pending += out.kind == Kind::kPending;
      if (pending > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    unresolved = pending;

    for (const auto& out : outcomes) {
      switch (out.kind) {
        case Kind::kOk:
          ++ok_count;
          last_ok_s = std::max(last_ok_s, out.done_s);
          break;
        case Kind::kRejected: ++rejected; break;
        case Kind::kExpired: ++expired; break;
        default: break;
      }
    }
    overload_rps =
        last_ok_s > 0.0 ? static_cast<double>(ok_count) / last_ok_s : 0.0;
  }
#if STS_FAULTS
  const std::uint64_t superstep_hits =
      fault::FailpointRegistry::global().hits("exec.superstep");
  const std::uint64_t worker_pop_hits =
      fault::FailpointRegistry::global().hits("engine.worker_pop");
#else
  const std::uint64_t superstep_hits = 0;
  const std::uint64_t worker_pop_hits = 0;
#endif
  if (faults_armed) fault::FailpointRegistry::global().reset();

  // ---- Contracts.
  std::vector<double> latency_latencies;
  for (const auto& out : outcomes) {
    if (out.kind == Kind::kOk && out.priority == RequestPriority::kLatency) {
      latency_latencies.push_back(out.done_s - out.submit_s);
    }
  }
  const double lat_p50 = latency_latencies.empty()
                             ? 0.0
                             : harness::quantile(latency_latencies, 0.5);
  const double lat_p95 = latency_latencies.empty()
                             ? 0.0
                             : harness::quantile(latency_latencies, 0.95);

  const bool gate_resolved = unresolved == 0;
  const bool gate_latency =
      !latency_latencies.empty() && lat_p95 <= p95_bound;
  bool gate_exact = true;
  for (const auto& out : outcomes) {
    if (out.kind == Kind::kOk && !out.exact) gate_exact = false;
  }
  const double tput_ratio =
      baseline_rps > 0.0 ? overload_rps / baseline_rps : 0.0;
  const bool gate_throughput = tput_ratio >= tput_floor;

  std::printf("\noverload (open loop%s): %llu ok, %llu rejected, %llu "
              "expired, %zu unresolved\n",
              faults_armed ? ", faults armed" : "",
              static_cast<unsigned long long>(ok_count),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(expired), unresolved);
  std::printf("latency-class admitted: %zu requests, p50 %.1f ms, p95 "
              "%.1f ms (bound %.1f ms)\n",
              latency_latencies.size(), lat_p50 * 1e3, lat_p95 * 1e3,
              p95_bound * 1e3);
  std::printf("throughput: %.0f rhs/s vs %.0f rhs/s baseline = %.2fx "
              "(floor %.2fx)\n",
              overload_rps, baseline_rps, tput_ratio, tput_floor);

  std::printf("JSON: {\"bench\":\"overload_resilience\",%s,"
              "\"requests\":%d,\"mult\":%.3g,\"width\":%d,\"workers\":%d,"
              "\"queue_depth\":%zu,\"target_delay_seconds\":%.6g,"
              "\"deadline_seconds\":%.6g,\"faults_armed\":%s,"
              "\"results\":[{\"matrix\":\"%s\","
              "\"baseline_rhs_per_second\":%.6g,"
              "\"overload_rhs_per_second\":%.6g,"
              "\"throughput_ratio\":%.4g,"
              "\"latency_p50_seconds\":%.6g,\"latency_p95_seconds\":%.6g,"
              "\"admitted\":%llu,\"rejected\":%llu,"
              "\"expired\":%llu,\"unresolved\":%zu,"
              "\"superstep_hits\":%llu,\"worker_pop_hits\":%llu}],"
              "\"gates\":{\"all_resolved\":%s,\"latency_p95\":%s,"
              "\"exact_results\":%s,\"throughput_floor\":%s}}\n",
              bench::hostMetaJson().c_str(), requests, mult, width, workers,
              depth, target_delay, deadline,
              faults_armed ? "true" : "false", entry.name.c_str(),
              baseline_rps, overload_rps, tput_ratio, lat_p50, lat_p95,
              static_cast<unsigned long long>(ok_count),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(expired), unresolved,
              static_cast<unsigned long long>(superstep_hits),
              static_cast<unsigned long long>(worker_pop_hits),
              gate_resolved ? "true" : "false",
              gate_latency ? "true" : "false",
              gate_exact ? "true" : "false",
              gate_throughput ? "true" : "false");

  std::printf("\nclaims under test: every future resolves (typed errors, "
              "never hangs); admitted latency-class\np95 stays bounded; "
              "every admitted response is the exact solve, bitwise;\nand "
              "overload throughput stays within %.2fx of the closed-loop "
              "capacity.\n",
              tput_floor);
  const bool ok =
      gate_resolved && gate_latency && gate_exact && gate_throughput;
  std::printf(ok ? "claims hold.\n" : "claims FAILED.\n");
  if (!ok) {
    std::printf("  all_resolved=%d latency_p95=%d exact_results=%d "
                "throughput_floor=%d\n",
                gate_resolved, gate_latency, gate_exact, gate_throughput);
  }
  return ok ? 0 : 1;
}
