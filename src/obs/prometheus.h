#ifndef TREL_OBS_PROMETHEUS_H_
#define TREL_OBS_PROMETHEUS_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace trel {

// Incremental builder for the Prometheus text exposition format
// (version 0.0.4).  Usage: one Family() per metric family, then its
// sample lines.  The builder does no name validation — callers pass
// well-formed snake_case names; label VALUES are escaped here.
class PrometheusText {
 public:
  // Emits the `# HELP` / `# TYPE` header for a family.  `type` is one of
  // "counter" / "gauge" / "histogram".
  void Family(std::string_view name, std::string_view help,
              std::string_view type);

  // One sample: `name{labels} value`.  `labels` is the raw text inside
  // the braces (e.g. `kind="full",phase="export"`); pass "" for an
  // unlabeled sample.
  void Sample(std::string_view name, std::string_view labels, int64_t value);
  void Sample(std::string_view name, std::string_view labels, double value);

  // Renders a power-of-two bucket array (bucket i counts [2^i, 2^(i+1)),
  // as LogHistogram folds) as a cumulative Prometheus histogram:
  // `name_bucket{labels,le="2^(i+1)"}` lines, the `+Inf` bucket, then
  // `name_sum` (pass the tracked total; it is NOT derivable from the
  // buckets) and `name_count`.  Call Family(name, ..., "histogram")
  // once before the first series of the family.
  void Histogram(std::string_view name, std::string_view labels,
                 const int64_t* buckets, int num_buckets, int64_t sum);

  // Escapes a label value per the exposition format (backslash, quote,
  // newline) and wraps it in `key="..."`.
  static std::string Label(std::string_view key, std::string_view value);

  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

}  // namespace trel

#endif  // TREL_OBS_PROMETHEUS_H_
