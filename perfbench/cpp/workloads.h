#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Rerun the workload with spans recorded and per-layer probes; the
  // result then carries the per-layer metrics instead of the end-to-end
  // ones, and every span is written to spans_<workload>.tsv in the
  // working directory.
  bool trace = false;
  // Tiny graphs and op counts, for the self-test.
  bool tiny = false;
};

struct RunResult {
  bool known_workload = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  // Exact, seed-determined facts for reproducibility checks: an input
  // digest and counts such as publishes by kind.
  std::vector<std::pair<std::string, int64_t>> exact;
};

// Names of the workloads RunWorkload accepts.
std::vector<std::string> WorkloadNames();

RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
