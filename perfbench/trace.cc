#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "common/clock.h"

namespace dpr::perfbench {

void SpanLog::Add(Span span) {
  MutexLock lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(std::move(span));
}

uint64_t SpanLog::NextCallId() {
  MutexLock lock(mu_);
  return next_call_id_++;
}

size_t SpanLog::size() const {
  MutexLock lock(mu_);
  return spans_.size();
}

uint64_t SpanLog::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

bool SpanLog::WriteCsv(const std::string& path, uint64_t origin_ns) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "name,id,parent,start_us,end_us\n");
  MutexLock lock(mu_);
  for (const Span& s : spans_) {
    fprintf(f, "%s,%llu,%s,%.3f,%.3f\n", s.name.c_str(),
            static_cast<unsigned long long>(s.id), s.parent.c_str(),
            (static_cast<double>(s.start_ns) - origin_ns) / 1e3,
            (static_cast<double>(s.end_ns) - origin_ns) / 1e3);
  }
  return fclose(f) == 0;
}

std::vector<SpanLog::SelfTime> SpanLog::SelfTimes() const {
  MutexLock lock(mu_);
  // A child shares its parent's id, so (id, name) finds the parent.
  std::map<std::pair<uint64_t, std::string>, uint64_t> covered_ns;
  for (const Span& s : spans_) {
    if (s.parent.empty()) continue;
    covered_ns[{s.id, s.parent}] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SelfTime> by_name;
  for (const Span& s : spans_) {
    const uint64_t total = s.end_ns - s.start_ns;
    auto it = covered_ns.find({s.id, s.name});
    const uint64_t children =
        it == covered_ns.end() ? 0 : std::min(it->second, total);
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    t.count += 1;
    t.total_ms += static_cast<double>(total - children) / 1e6;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) {
    t.mean_us = t.count == 0 ? 0 : t.total_ms * 1e3 / t.count;
    out.push_back(t);
  }
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.total_ms > b.total_ms;
  });
  return out;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name)
    : log_(log), name_(name) {
  if (log_ != nullptr) start_ns_ = NowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  log_->Add(Span{name_, log_->NextCallId(), "", start_ns_, NowNanos()});
}

}  // namespace dpr::perfbench
