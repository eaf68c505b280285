#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// One timed interval recorded at a call site of the benchmark.  Spans of
// one request (a reader block, a writer round, a probe) share `request`;
// `parent` is the enclosing span's id, 0 for a request's root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t name = 0;
  uint32_t thread = 0;
};

// In-memory span store for the traced run.  Each thread appends to its
// own pre-reserved buffer, so recording is a clock read plus a vector
// append with no shared cache line; everything is merged and written out
// once the run ends.
class SpanRecorder {
 public:
  explicit SpanRecorder(int max_threads);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Interns a span name.  Not thread-safe: intern before workers start.
  uint32_t Name(const std::string& name);

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Appends a finished span from thread slot `thread` (one owner per
  // slot) and returns its id.  `id` 0 allocates a fresh one, so a parent
  // can hand its pre-allocated id to children recorded before it ends.
  uint64_t Add(int thread, uint32_t name, uint64_t parent, uint64_t request,
               int64_t start_ns, int64_t end_ns, uint64_t id = 0);

  struct Summary {
    std::string name;
    int64_t count = 0;
    double total_ms = 0.0;
    // Duration minus the part of it covered by child spans.
    double self_ms = 0.0;
  };
  // Per-name totals over every recorded span, sorted by self time.
  std::vector<Summary> Summarize() const;

  // Tab-separated dump, one span per line:
  // id parent request name thread start_ns end_ns.
  bool WriteTsv(const std::string& path) const;

  int64_t size() const;

 private:
  std::vector<Span> Merged() const;

  std::vector<std::string> names_;
  std::vector<std::vector<Span>> per_thread_;
  std::atomic<uint64_t> next_id_{1};
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
