#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/digraph.h"

namespace perfbench {

using trel::NodeId;
using Pair = std::pair<NodeId, NodeId>;
using PairList = std::vector<Pair>;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Pins the calling thread to one CPU of the process's allowed set, picked
// round-robin by `slot`, so thread placement is the same in every run.
inline void PinThread(int slot) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<size_t>(slot) % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// Zipf-skewed node sampling over a shuffled id space, as tools/loadgen
// samples it: rank 1 is an arbitrary node, so hot keys scatter across
// the label arena instead of clustering at low ids.
class ZipfSampler {
 public:
  ZipfSampler(NodeId n, double s, uint64_t seed) : ids_(n) {
    cdf_.reserve(n);
    double total = 0.0;
    for (NodeId rank = 1; rank <= n; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    for (NodeId i = 0; i < n; ++i) ids_[i] = i;
    trel::Random rng(seed ^ 0x5eedULL);
    for (NodeId i = n - 1; i > 0; --i) {
      std::swap(ids_[i], ids_[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
    }
  }

  NodeId Sample(trel::Random& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.NextDouble());
    const size_t rank = static_cast<size_t>(it - cdf_.begin());
    return ids_[std::min(rank, ids_.size() - 1)];
  }

  PairList Pairs(int64_t count, trel::Random& rng) const {
    PairList pairs;
    pairs.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      const NodeId u = Sample(rng);
      pairs.emplace_back(u, Sample(rng));
    }
    return pairs;
  }

 private:
  std::vector<double> cdf_;
  std::vector<NodeId> ids_;
};

// One named measurement as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
