#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t SpanLog::Add(const char* name, uint32_t parent, uint64_t request,
                      int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{name, parent, request, start_ns, end_ns});
  return static_cast<uint32_t>(spans_.size() - 1);
}

uint32_t SpanLog::Begin(const char* name, uint32_t parent, uint64_t request) {
  const int64_t now = NowNs();
  return Add(name, parent, request, now, now);
}

void SpanLog::End(uint32_t id) { spans_[id].end_ns = NowNs(); }

void SpanLog::Merge(SpanLog&& other) {
  const uint32_t base = static_cast<uint32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent != kNoParent) s.parent += base;
    spans_.push_back(s);
  }
  other.spans_.clear();
}

double CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                 int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  int64_t cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      covered += static_cast<double>(b - a);
      cursor = b;
    }
  }
  return covered;
}

std::map<std::string, SpanLog::Totals> SpanLog::Summarize() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    Totals& t = out[s.name];
    ++t.count;
    t.total_ns += duration;
    t.self_ns +=
        duration - CoveredNs(std::move(children[i]), s.start_ns, s.end_ns);
    t.durations_ns.push_back(duration);
  }
  return out;
}

wmp::Status SpanLog::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return wmp::Status::IOError("cannot write " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%lld,\"request\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0 ? wmp::Status::OK()
                             : wmp::Status::IOError("cannot close " + path);
}

}  // namespace perfbench
