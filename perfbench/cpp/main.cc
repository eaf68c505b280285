// End-to-end benchmark binary:
//
//   trel_e2e_bench --workload <point_reads|update_mix|sharded_mix>
//                  --seed <n> --seconds <s> --trace <0|1> [--tiny]
//
// Prints a human summary on stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// With --trace 1 it also writes every span to spans_<workload>.tsv in the
// working directory.  Exits 1 when any answer or update was wrong, 2 on
// bad arguments.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: trel_e2e_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny]\nworkloads:");
  for (const std::string& w : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  // The service reads these at construction; the benchmark fixes what it
  // measures itself.
  unsetenv("TREL_INDEX");
  unsetenv("TREL_PUBLISH");
  unsetenv("TREL_TRACE_SAMPLE");

  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return Usage();
    }
  }
  if (!(config.seconds > 0.0) || config.seconds > 600.0) return Usage();

  const perfbench::RunResult result = perfbench::RunWorkload(config);
  if (!result.known_workload) return Usage();

  std::fprintf(stderr, "perfbench: exact");
  for (const auto& [name, value] : result.exact) {
    std::fprintf(stderr, " %s=%lld", name.c_str(), static_cast<long long>(value));
  }
  std::fprintf(stderr, "\n");

  bool finite = true;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    finite = finite && std::isfinite(m.value);
    if (i > 0) std::printf(", ");
    PrintJsonString(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", std::isfinite(m.value) ? m.value : 0.0);
    PrintJsonString(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  if (!finite) std::fprintf(stderr, "perfbench: non-finite metric value\n");
  return result.failed == 0 && finite ? 0 : 1;
}
