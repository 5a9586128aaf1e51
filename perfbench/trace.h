#ifndef DPR_PERFBENCH_TRACE_H_
#define DPR_PERFBENCH_TRACE_H_

// Span recording for the benchmark's traced run. Spans are recorded only
// from the benchmark's own call sites, around its calls into the store's
// public API; they live in memory until WriteCsv at exit.

#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.h"

namespace dpr::perfbench {

/// One timed interval. Spans of one op share `id`; `parent` names the span
/// (same id) whose interval contains this one, or is empty at top level.
struct Span {
  std::string name;
  uint64_t id = 0;
  std::string parent;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Thread-safe, bounded span store. Spans past `capacity` are counted and
/// dropped so a long run cannot grow memory without bound.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) : capacity_(capacity) {}

  void Add(Span span);
  /// Id for a top-level call span, disjoint from op ids.
  uint64_t NextCallId();

  /// Writes "name,id,parent,start_us,end_us" rows (times relative to
  /// `origin_ns`). Returns false when the file cannot be written.
  bool WriteCsv(const std::string& path, uint64_t origin_ns) const;

  struct SelfTime {
    std::string name;
    uint64_t count = 0;
    double total_ms = 0;  // duration minus the time children cover
    double mean_us = 0;
  };
  /// Per span name: how long the span ran outside its children.
  std::vector<SelfTime> SelfTimes() const;

  size_t size() const;
  uint64_t dropped() const;

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
  uint64_t next_call_id_ GUARDED_BY(mu_) = 1ull << 63;
};

/// RAII span around one call; a no-op when `log` is null (untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  uint64_t start_ns_ = 0;
};

}  // namespace dpr::perfbench

#endif  // DPR_PERFBENCH_TRACE_H_
