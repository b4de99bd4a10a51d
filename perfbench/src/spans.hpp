#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

/// \file spans.hpp
/// The traced run's span recorder. Spans are recorded only here, in the
/// benchmark, around each call into a library layer; they stay in memory
/// and are written as Chrome/Perfetto trace_event JSON when the run ends.
///
/// Nested spans (ScopedSpan) live on the recording thread's stack and are
/// exported with their parent's index; a trace viewer derives self times
/// from the nesting. Request spans (addRequest) overlap each other freely
/// and are exported as async events keyed by request id — the identifier
/// every span of one request shares.

namespace perfbench {

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string name;   ///< "<layer>.<call>", e.g. "core.growlocal"
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;     ///< index of the enclosing span, -1 = root
  std::uint64_t request = 0;    ///< request id (0 = not a request span)
};

/// Single-threaded: every span of a run is recorded by the benchmark's main
/// thread (the open-loop generator runs there too). Disabled recorders cost
/// one branch per call.
class SpanRecorder {
 public:
  bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }

  /// Opens a nested span; returns its index (or -1 when disabled).
  std::int64_t open(const std::string& name);
  void close(std::int64_t index);

  /// A finished request span with explicit bounds (submit -> ready).
  void addRequest(const std::string& name, std::uint64_t request_id,
                  std::uint64_t begin_ns, std::uint64_t end_ns);

  /// Chrome/Perfetto trace_event JSON; false on I/O failure.
  bool writeJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII nested span on a recorder (no-op while it is disabled).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name)
      : rec_(rec), index_(rec.enabled() ? rec.open(name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) rec_.close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::int64_t index_;
};

}  // namespace perfbench
