#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::int64_t SpanRecorder::open(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.begin_ns = nowNs();
  spans_.push_back(std::move(span));
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(std::int64_t index) {
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("SpanRecorder: spans must close in LIFO order");
  }
  stack_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = nowNs();
}

void SpanRecorder::addRequest(const std::string& name,
                              std::uint64_t request_id,
                              std::uint64_t begin_ns, std::uint64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.begin_ns = begin_ns;
  span.end_ns = end_ns;
  span.request = request_id;
  spans_.push_back(std::move(span));
}

namespace {

void writeEscaped(std::FILE* f, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
}

}  // namespace

bool SpanRecorder::writeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t epoch = spans_.empty() ? 0 : spans_.front().begin_ns;
  auto us = [&](std::uint64_t ns) {
    return static_cast<double>(ns - std::min(ns, epoch)) * 1e-3;
  };
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.begin_ns) continue;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    if (s.request == 0) {
      sep();
      std::fputs("{\"name\":\"", f);
      writeEscaped(f, s.name);
      std::fputs("\",\"cat\":\"", f);
      writeEscaped(f, layer);
      std::fprintf(f,
                   "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld}}",
                   us(s.begin_ns), us(s.end_ns) - us(s.begin_ns), i,
                   static_cast<long long>(s.parent));
    } else {
      // Async begin/end pair: overlapping requests get their own rows.
      for (const char* ph : {"b", "e"}) {
        sep();
        std::fputs("{\"name\":\"", f);
        writeEscaped(f, s.name);
        std::fputs("\",\"cat\":\"", f);
        writeEscaped(f, layer);
        std::fprintf(f,
                     "\",\"ph\":\"%s\",\"pid\":1,\"tid\":2,\"id\":%llu,"
                     "\"ts\":%.3f,\"args\":{\"request\":%llu}}",
                     ph, static_cast<unsigned long long>(s.request),
                     us(ph[0] == 'b' ? s.begin_ns : s.end_ns),
                     static_cast<unsigned long long>(s.request));
      }
    }
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
