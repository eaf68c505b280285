#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

SpanRecorder::SpanRecorder(int max_threads) : per_thread_(max_threads) {
  for (auto& buffer : per_thread_) buffer.reserve(1 << 15);
}

uint32_t SpanRecorder::Name(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<uint32_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint64_t SpanRecorder::Add(int thread, uint32_t name, uint64_t parent,
                           uint64_t request, int64_t start_ns, int64_t end_ns,
                           uint64_t id) {
  Span span;
  span.id = id != 0 ? id : NewId();
  span.parent = parent;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.name = name;
  span.thread = static_cast<uint32_t>(thread);
  per_thread_[static_cast<size_t>(thread)].push_back(span);
  return span.id;
}

std::vector<Span> SpanRecorder::Merged() const {
  std::vector<Span> all;
  all.reserve(static_cast<size_t>(size()));
  for (const auto& buffer : per_thread_) {
    all.insert(all.end(), buffer.begin(), buffer.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

int64_t SpanRecorder::size() const {
  int64_t n = 0;
  for (const auto& buffer : per_thread_) n += static_cast<int64_t>(buffer.size());
  return n;
}

std::vector<SpanRecorder::Summary> SpanRecorder::Summarize() const {
  const std::vector<Span> all = Merged();
  // Child intervals per parent, clipped to the parent and unioned, give
  // the covered part of each span; self time is the rest.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const Span& s : all) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<Summary> out(names_.size());
  for (size_t i = 0; i < names_.size(); ++i) out[i].name = names_[i];
  for (const Span& s : all) {
    int64_t covered = 0;
    const auto it = kids.find(s.id);
    if (it != kids.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cur_lo = 0;
      int64_t cur_hi = -1;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    Summary& sum = out[s.name];
    ++sum.count;
    sum.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    sum.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  out.erase(std::remove_if(out.begin(), out.end(),
                           [](const Summary& s) { return s.count == 0; }),
            out.end());
  std::sort(out.begin(), out.end(), [](const Summary& a, const Summary& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tname\tthread\tstart_ns\tend_ns\n");
  for (const Span& s : Merged()) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%u\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 names_[s.name].c_str(), s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
