#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "engine/solver_engine.hpp"
#include "exec/solver.hpp"
#include "harness/serving.hpp"
#include "obs/trace.hpp"
#include "phases.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using sts::exec::TriangularSolver;

// The request mix: about 1/8 of requests are multi-RHS blocks of 8 columns
// (one full coalescing budget each); the rest are single-RHS submits.
constexpr double kMultiShare = 0.125;
constexpr int kMultiNrhs = 8;
/// Seeded single-RHS vectors per served solver.
constexpr std::size_t kPoolSize = 4;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Served {
  sts::sparse::CsrMatrix matrix;
  sts::engine::SolverId id = 0;
  std::vector<std::vector<double>> singles;  ///< seeded single-RHS pool
  std::vector<double> multi;                 ///< seeded n x nrhs row-major
};

/// One planned request of a step: when it is due and what it carries.
struct Planned {
  double due = 0.0;
  std::size_t solver = 0;
  int pool = -1;  ///< index into `singles`; -1 = the multi-RHS block
  bool sample = false;
};

std::vector<Planned> planStep(double rate, double duration,
                              std::size_t num_solvers, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  // About 24 verified responses per step, whatever the rate.
  const double sample_p = std::min(1.0, 24.0 / (rate * duration));
  std::vector<Planned> plan;
  for (double t = gap(rng); t < duration; t += gap(rng)) {
    Planned p;
    p.due = t;
    p.solver = static_cast<std::size_t>(rng() % num_solvers);
    p.pool = unit(rng) < kMultiShare
                 ? -1
                 : static_cast<int>(rng() % kPoolSize);
    p.sample = unit(rng) < sample_p;
    plan.push_back(p);
  }
  return plan;
}

/// A response kept for verification off the timed path.
struct Sampled {
  std::size_t solver = 0;
  int pool = -1;
  std::vector<double> x;
};

bool verifyResponse(const Served& s, int pool, const std::vector<double>& x,
                    int nrhs) {
  const auto n = static_cast<std::size_t>(s.matrix.rows());
  const std::vector<double>& b = pool < 0 ? s.multi : s.singles[pool];
  const auto cols = static_cast<std::size_t>(pool < 0 ? nrhs : 1);
  if (x.size() != n * cols) return false;
  std::vector<double> bc(n), xc(n);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      bc[i] = b[i * cols + c];
      xc[i] = x[i * cols + c];
    }
    // ||A x - b||_inf / max(1, ||b||_inf), failing on any non-finite entry
    // (exec::residualInf's max would skip a NaN).
    const double res = relError(s.matrix.multiply(xc), bc, relErrorScale(bc));
    if (!(res <= 1e-10)) return false;
  }
  return true;
}

/// Reads `name value` from the registry's text rendering (0 if absent).
double registryValue(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string key;
  double value = 0.0;
  while (in >> key >> value) {
    if (key == name) return value;
  }
  return 0.0;
}

}  // namespace

ServePhaseResult runServePhase(const std::vector<MatrixSpec>& specs,
                               const PhaseConfig& config,
                               const ServeConfig& serve) {
  ServePhaseResult out;
  SpanRecorder& spans = *config.spans;

  sts::engine::EngineOptions eo;
  eo.num_workers = serve.workers;
  eo.team_size = serve.team;
  eo.core_budget = serve.workers * serve.team;
  eo.max_batch = kMultiNrhs;
  sts::engine::SolverEngine engine(eo);

  std::vector<Served> served(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Served& s = served[i];
    const auto g0 = Clock::now();
    {
      ScopedSpan span(spans, "datagen.matrix");
      s.matrix = specs[i].make();
    }
    out.datagen_s += since(g0);
    sts::exec::SolverOptions so;
    so.scheduler = sts::exec::SchedulerKind::kGrowLocal;
    so.num_threads = serve.team;
    so.validate = false;
    std::vector<double> analyze_times;
    std::shared_ptr<const TriangularSolver> solver;
    for (int r = 0; r < config.setup_reps; ++r) {
      solver.reset();
      ScopedSpan span(spans, "exec.analyze");
      const auto t0 = Clock::now();
      auto analyzed = TriangularSolver::analyze(s.matrix, so);
      analyze_times.push_back(since(t0));
      solver = std::make_shared<const TriangularSolver>(std::move(analyzed));
    }
    const auto r0 = Clock::now();
    {
      ScopedSpan span(spans, "engine.register");
      s.id = engine.registerSolver(solver);
    }
    out.setup_s += summarize(analyze_times).median + since(r0);

    const auto n = static_cast<std::size_t>(s.matrix.rows());
    for (std::size_t k = 0; k < kPoolSize; ++k) {
      s.singles.push_back(randomVector(n, mixSeed(config.seed, 3000 + 16 * i + k)));
    }
    s.multi = randomVector(n * static_cast<std::size_t>(kMultiNrhs),
                           mixSeed(config.seed, 3000 + 16 * i + 15));
  }

  std::shared_ptr<sts::obs::TraceSession> session;
  if (config.trace) session = sts::obs::TraceSession::start();

  std::uint64_t next_request_id = 1;
  std::vector<double> service_latency;  // sent -> completed, every step

  // One open-loop step. `record` = false is the warm-up: its requests are
  // served and checked for failure but not reported.
  auto runStep = [&](double rate, double duration, std::uint64_t step_seed,
                     bool record) {
    const auto plan = planStep(rate, duration, served.size(), step_seed);
    StepResult step;
    step.rate = rate;
    step.duration_s = duration;
    step.requests.resize(plan.size());
    std::vector<Sampled> sampled;
    struct Pending {
      std::size_t idx;
      std::uint64_t id;
      std::uint64_t sent_ns;
      std::future<std::vector<double>> fut;
    };
    std::deque<Pending> pending;
    // One time base for due, sent and completed: t0 on the nowNs() scale.
    const auto t0 = Clock::now();
    const auto t0_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t0.time_since_epoch())
            .count());
    auto rel = [&](std::uint64_t ns) {
      return static_cast<double>(ns - t0_ns) * 1e-9;
    };

    auto complete = [&](Pending& p) {
      RequestTimes& r = step.requests[p.idx];
      const std::uint64_t done_ns = nowNs();
      r.completed = rel(done_ns);
      try {
        std::vector<double> x = p.fut.get();
        if (plan[p.idx].sample) {
          sampled.push_back({plan[p.idx].solver, plan[p.idx].pool, std::move(x)});
        }
      } catch (const std::exception& e) {
        r.ok = false;
        std::fprintf(stderr, "request %llu failed: %s\n",
                     static_cast<unsigned long long>(p.id), e.what());
      }
      spans.addRequest("engine.request", p.id, p.sent_ns, done_ns);
    };
    // Collect whatever is ready among the oldest pending requests. A
    // request is observed at the first wake-up (its own completion if it
    // is the oldest, else the next due time or older completion) after it
    // finished, so out-of-order completions read slightly late, never
    // early.
    auto harvest = [&] {
      const std::size_t scan = std::min<std::size_t>(pending.size(), 64);
      std::size_t kept = 0;
      for (std::size_t k = 0; k < pending.size(); ++k) {
        if (k < scan && pending[k].fut.wait_for(std::chrono::seconds(0)) ==
                            std::future_status::ready) {
          complete(pending[k]);
        } else {
          if (kept != k) pending[kept] = std::move(pending[k]);
          ++kept;
        }
      }
      pending.resize(kept);
    };

    for (std::size_t i = 0; i < plan.size(); ++i) {
      const auto due_tp =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(plan[i].due));
      while (!pending.empty() &&
             pending.front().fut.wait_until(due_tp) ==
                 std::future_status::ready) {
        harvest();
      }
      harvest();
      std::this_thread::sleep_until(due_tp);
      RequestTimes& r = step.requests[i];
      r.due = plan[i].due;
      const Served& s = served[plan[i].solver];
      const std::uint64_t id = next_request_id++;
      const std::uint64_t sent_ns = nowNs();
      r.sent = rel(sent_ns);
      std::future<std::vector<double>> fut;
      {
        ScopedSpan span(spans, "engine.submit");
        fut = plan[i].pool < 0
                  ? engine.submitMulti(s.id, s.multi, kMultiNrhs)
                  : engine.submit(s.id, s.singles[plan[i].pool]);
      }
      pending.push_back({i, id, sent_ns, std::move(fut)});
    }
    while (!pending.empty()) {
      pending.front().fut.wait();
      harvest();
    }

    out.attempted += plan.size();
    std::vector<double> latencies;
    for (const auto& r : step.requests) {
      latencies.push_back(dueLatency(r));
      if (!r.ok) ++step.failed;
      if (r.ok) service_latency.push_back(r.completed - r.sent);
    }
    out.failed += step.failed;
    for (const auto& smp : sampled) {
      ++out.verified;
      if (!verifyResponse(served[smp.solver], smp.pool, smp.x, kMultiNrhs)) {
        ++out.wrong;
        ++out.failed;
        std::fprintf(stderr, "WRONG RESULT: served solver %zu\n", smp.solver);
      }
    }
    if (!record || latencies.empty()) return;
    step.latency = summarize(latencies);
    std::sort(latencies.begin(), latencies.end());
    step.p99 = quantileSorted(latencies, 0.99);
    step.backlog = backlogAtLastSend(step.requests);
    step.backlog_grows = backlogGrows(step.backlog, rate, serve.limit_s);
    step.max_late_s = maxLateness(step.requests);
    out.steps.push_back(std::move(step));
  };

  const double mid_rate = serve.rates[serve.rates.size() / 2];
  runStep(mid_rate, 1.0, mixSeed(config.seed, 4000), false);
  service_latency.clear();
  const double step_s = config.seconds / static_cast<double>(serve.rates.size());
  for (std::size_t k = 0; k < serve.rates.size(); ++k) {
    runStep(serve.rates[k], step_s, mixSeed(config.seed, 4001 + k), true);
  }
  engine.drain();
  if (session) {
    session->stop();
    if (!serve.obs_trace_path.empty()) session->writeJson(serve.obs_trace_path);
  }

  // Engine-side layer figures.
  double batches = 0, failed_batches = 0, rhs = 0, coalesced = 0, busy = 0,
         pack = 0, unpack = 0, team_weighted = 0, rejected = 0, expired = 0;
  std::vector<sts::engine::TraceSummaryRow> rows;
  for (const Served& s : served) {
    const auto st = engine.stats(s.id);
    batches += static_cast<double>(st.batches);
    failed_batches += static_cast<double>(st.batches_failed);
    rhs += static_cast<double>(st.rhs_solved);
    coalesced += static_cast<double>(st.coalesced_rhs);
    busy += st.busy_seconds;
    pack += st.pack_seconds;
    unpack += st.unpack_seconds;
    team_weighted += st.mean_team_size * static_cast<double>(st.batches);
    rejected += static_cast<double>(st.rejected_requests);
    expired += static_cast<double>(st.expired_requests);
    const auto summary = engine.traceSummary(s.id);
    rows.insert(rows.end(), summary.begin(), summary.end());
  }
  const std::string registry = engine.metrics().renderText();
  const double batch_p50 =
      registryValue(registry, "sts.engine.batch_seconds_p50");
  const double service_p50 =
      service_latency.empty() ? 0.0 : summarize(service_latency).median;
  out.engine = {
      {"batches", batches},
      {"rhs_per_batch", batches > 0 ? rhs / batches : 0.0},
      {"coalesced_share", rhs > 0 ? coalesced / rhs : 0.0},
      {"busy_s", busy},
      {"batch_p50_s", batch_p50},
      {"queue_wait_s", service_p50 - batch_p50},
      {"pack_s", pack},
      {"unpack_s", unpack},
      {"wait_fraction", sts::harness::waitFraction(rows)},
      {"mean_team", batches > 0 ? team_weighted / batches : 0.0},
      {"rejected", rejected},
      {"expired", expired},
      {"failed_batches", failed_batches},
  };
  return out;
}

}  // namespace perfbench
