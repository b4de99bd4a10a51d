#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

/// \file benchmath.hpp
/// The benchmark's own statistics, kept free of the library so the
/// self-tests (tests/test_benchmath.cpp) pin down exactly what every
/// reported number means:
///
///   * relError — the solve check, which a NaN or infinity cannot pass;
///   * geomean / quantile / summarize — medians, quartiles and the "highest
///     percentile with at least ten samples beyond it" tail rule;
///   * tickStall — whether slow samples cluster on scheduler-tick multiples;
///   * open-loop accounting — latency from each request's DUE time, how
///     late the generator ran, and the backlog test;
///   * maxSustainedRate — the serve_max_rps selection over the rate ladder.

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// max_i |x_i - ref_i| / max(1, max_i |ref_i|), where `scale` is that
/// denominator, computed once per reference. NaN as soon as any difference
/// is not finite: std::max-style folding would skip a NaN and pass it.
inline double relError(std::span<const double> x, std::span<const double> ref,
                       double scale) {
  if (x.size() != ref.size()) throw std::invalid_argument("relError: sizes");
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = std::abs(x[i] - ref[i]);
    if (!(d <= worst)) {
      if (!std::isfinite(d)) return std::numeric_limits<double>::quiet_NaN();
      worst = d;
    }
  }
  return worst / scale;
}

/// The denominator of relError for one reference vector.
inline double relErrorScale(std::span<const double> ref) {
  double scale = 1.0;
  for (const double v : ref) scale = std::max(scale, std::abs(v));
  return scale;
}

/// exp(mean(log v)); throws on an empty input or a non-positive value (a
/// silent 0 would poison every ratio built on it).
inline double geomean(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("geomean: empty input");
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0) || std::isinf(v)) {
      throw std::invalid_argument("geomean: values must be positive, finite");
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Linear-interpolation quantile of `sorted` (ascending), q in [0, 1] — the
/// same definition as numpy's default and Python's statistics "inclusive".
inline double quantileSorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile: empty input");
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return sorted[lo];  // exact rank
  if (std::isinf(sorted[hi])) return sorted[hi];  // a failure reaches q
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// The tail percentiles a timing may be reported at, highest first.
inline constexpr double kTailPercentiles[] = {99.9, 99.0, 95.0, 90.0,
                                              75.0, 50.0};

/// Highest percentile of kTailPercentiles that has at least `min_beyond`
/// samples strictly above its rank, i.e. n * (1 - p/100) >= min_beyond.
/// 0 when even the median lacks that support (n < 2 * min_beyond).
inline double supportedTailPercentile(std::size_t n,
                                      std::size_t min_beyond = 10) {
  for (const double p : kTailPercentiles) {
    // Integer form of n * (1 - p/100) >= min_beyond, free of rounding:
    // p is given to one decimal, so scale by 1000.
    const auto keep_permille =
        static_cast<std::size_t>(std::lround(1000.0 - p * 10.0));
    if (n * keep_permille >= min_beyond * 1000) return p;
  }
  return 0.0;
}

/// Median, quartiles and the supported tail of one sample set.
struct Summary {
  std::size_t n = 0;
  double q25 = 0.0;
  double median = 0.0;
  double q75 = 0.0;
  double tail_pct = 0.0;  ///< supportedTailPercentile(n); 0 = none
  double tail = 0.0;      ///< value at tail_pct (median when tail_pct == 0)
};

inline Summary summarize(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("summarize: no samples");
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.q25 = quantileSorted(samples, 0.25);
  s.median = quantileSorted(samples, 0.50);
  s.q75 = quantileSorted(samples, 0.75);
  s.tail_pct = supportedTailPercentile(s.n);
  s.tail = s.tail_pct > 0.0 ? quantileSorted(samples, s.tail_pct / 100.0)
                            : s.median;
  return s;
}

/// Share of samples slower than `factor` times `median`.
inline double slowShare(std::span<const double> samples, double median,
                        double factor = 2.0) {
  if (samples.empty()) return 0.0;
  std::size_t slow = 0;
  for (const double v : samples) slow += v > factor * median ? 1 : 0;
  return static_cast<double>(slow) / static_cast<double>(samples.size());
}

/// Scheduler-tick stall test. A sample is an outlier when it exceeds both
/// 4x the median and half a tick; it is tick-aligned when it lies within
/// `tolerance` (share of a tick) of a whole multiple of `tick_seconds`.
/// Stalls that come from a preempted team member last whole scheduler
/// slices, so they land on tick multiples; honest slow solves do not.
struct TickStall {
  std::size_t outliers = 0;
  std::size_t aligned = 0;  ///< outliers on a tick multiple
  bool flagged = false;     ///< >= 3 aligned and they are most outliers
};

inline TickStall tickStall(std::span<const double> samples, double median,
                           double tick_seconds = 0.004,
                           double tolerance = 0.15) {
  TickStall t;
  for (const double v : samples) {
    if (!(v > 4.0 * median && v > 0.5 * tick_seconds)) continue;
    ++t.outliers;
    const double ticks = v / tick_seconds;
    const double off = std::abs(ticks - std::round(ticks));
    if (std::round(ticks) >= 1.0 && off <= tolerance) ++t.aligned;
  }
  t.flagged = t.aligned >= 3 && 2 * t.aligned > t.outliers;
  return t;
}

// ---------------------------------------------------------- open loop ----

/// One request of an open-loop step, all times in seconds on one clock.
struct RequestTimes {
  double due = 0.0;        ///< when the schedule said to send it
  double sent = 0.0;       ///< when the generator actually sent it
  double completed = 0.0;  ///< when its result was observed
  bool ok = true;          ///< false: failed, refused or expired
};

/// Latency from the due time: a stalled generator or a stalled server both
/// show, because a late send does not reset the clock. A failed request
/// counts as +inf — it misses any latency limit.
inline double dueLatency(const RequestTimes& r) {
  return r.ok ? r.completed - r.due : kInf;
}

/// How late the generator ran: max over requests of (sent - due), >= 0.
inline double maxLateness(std::span<const RequestTimes> requests) {
  double late = 0.0;
  for (const auto& r : requests) late = std::max(late, r.sent - r.due);
  return late;
}

/// Requests sent but not yet completed at the moment the last request was
/// sent — the queue the step leaves behind.
inline std::size_t backlogAtLastSend(std::span<const RequestTimes> requests) {
  if (requests.empty()) return 0;
  double last_sent = 0.0;
  for (const auto& r : requests) last_sent = std::max(last_sent, r.sent);
  std::size_t open = 0;
  for (const auto& r : requests) {
    open += (!r.ok || r.completed > last_sent) ? 1 : 0;
  }
  return open;
}

/// A backlog grows when the step ends with more queued work than the
/// latency limit's worth of arrivals (rate * limit requests, at least 1):
/// such a queue alone keeps later requests past the limit.
inline bool backlogGrows(std::size_t backlog, double rate, double limit) {
  return static_cast<double>(backlog) > std::max(1.0, rate * limit);
}

/// Outcome of one ladder rung.
struct StepOutcome {
  double rate = 0.0;  ///< offered requests per second
  double p99 = 0.0;   ///< due-time p99 latency (inf when failures reach it)
  bool backlog_grows = false;
};

inline bool stepMeets(const StepOutcome& s, double limit) {
  return s.p99 <= limit && !s.backlog_grows;
}

/// serve_max_rps: the highest ladder rate that meets the limit, refined
/// toward the next (failing) rung by where log(p99) crosses log(limit)
/// between the two — a continuous figure instead of a rung index, so one
/// borderline rung flipping does not move the metric by a whole rung. The
/// refinement never reaches the failing rung. A ladder whose top rung
/// still meets the limit reports that rate; one where no rung does
/// reports 0, a measurement like any other rate.
inline double maxSustainedRate(std::span<const StepOutcome> ladder,
                               double limit) {
  std::vector<StepOutcome> steps(ladder.begin(), ladder.end());
  std::sort(steps.begin(), steps.end(),
            [](const auto& a, const auto& b) { return a.rate < b.rate; });
  int best = -1;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (stepMeets(steps[i], limit)) best = static_cast<int>(i);
  }
  if (best < 0) return 0.0;
  const auto k = static_cast<std::size_t>(best);
  if (k + 1 == steps.size()) return steps[k].rate;
  const StepOutcome& lo = steps[k];
  const StepOutcome& hi = steps[k + 1];
  // Interpolate only across a finite p99 crossing (hi.p99 > limit >=
  // lo.p99); a rung lost to backlog alone, or to failures, refines nothing.
  double frac = 0.0;
  if (lo.p99 > 0.0 && std::isfinite(hi.p99) && hi.p99 > limit) {
    frac = std::clamp(std::log(limit / lo.p99) / std::log(hi.p99 / lo.p99),
                      0.0, 0.999);
  }
  return lo.rate + (hi.rate - lo.rate) * frac;
}

}  // namespace perfbench
