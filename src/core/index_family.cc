#include "core/index_family.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace trel {

const char* IndexFamilyName(IndexFamily family) {
  switch (family) {
    case IndexFamily::kIntervals:
      return "intervals";
    case IndexFamily::kHop:
      return "hop";
  }
  return "unknown";
}

IndexFamilySetting ParseIndexFamilySetting(const char* value) {
  if (value == nullptr) return IndexFamilySetting::kAuto;
  if (std::strcmp(value, "intervals") == 0) {
    return IndexFamilySetting::kForceIntervals;
  }
  if (std::strcmp(value, "hop") == 0) return IndexFamilySetting::kForceHop;
  return IndexFamilySetting::kAuto;
}

IndexFamilySetting IndexFamilySettingFromEnv() {
  return ParseIndexFamilySetting(std::getenv("TREL_INDEX"));
}

IndexFamily SelectIndexFamily(const Digraph& graph, int64_t total_intervals,
                              FamilySignals* signals) {
  FamilySignals local;
  FamilySignals& sig = signals != nullptr ? *signals : local;
  sig.num_nodes = graph.NumNodes();
  sig.num_arcs = graph.NumArcs();
  sig.total_intervals = total_intervals;
  const double n = std::max<double>(1.0, sig.num_nodes);
  sig.interval_blowup = static_cast<double>(total_intervals) / n;

  // Hub skew: how many arcs the kHubProbe highest-degree nodes touch.
  // One pass over degrees plus a partial sort of the probe set — cheap
  // enough to run on every full publish.
  sig.hub_arc_fraction = 0.0;
  if (sig.num_arcs > 0) {
    std::vector<NodeId> by_degree(static_cast<size_t>(sig.num_nodes));
    for (NodeId v = 0; v < sig.num_nodes; ++v) by_degree[v] = v;
    const auto degree = [&graph](NodeId v) {
      return graph.OutDegree(v) + graph.InDegree(v);
    };
    const size_t probe =
        std::min<size_t>(kHubProbe, by_degree.size());
    std::partial_sort(by_degree.begin(),
                      by_degree.begin() + static_cast<ptrdiff_t>(probe),
                      by_degree.end(), [&](NodeId a, NodeId b) {
                        return degree(a) > degree(b);
                      });
    std::vector<uint8_t> is_hub(static_cast<size_t>(sig.num_nodes), 0);
    for (size_t i = 0; i < probe; ++i) is_hub[by_degree[i]] = 1;
    int64_t covered = 0;
    for (NodeId v = 0; v < sig.num_nodes; ++v) {
      if (is_hub[v]) {
        covered += graph.OutDegree(v);
        continue;
      }
      for (NodeId w : graph.OutNeighbors(v)) {
        if (is_hub[w]) ++covered;
      }
    }
    sig.hub_arc_fraction =
        static_cast<double>(covered) / static_cast<double>(sig.num_arcs);
  }

  if (sig.interval_blowup > kMaxIntervalBlowup &&
      sig.hub_arc_fraction >= kMinHubArcFraction) {
    return IndexFamily::kHop;
  }
  return IndexFamily::kIntervals;
}

IndexFamily ResolveIndexFamily(IndexFamilySetting setting,
                               const Digraph& graph, int64_t total_intervals,
                               FamilySignals* signals) {
  switch (setting) {
    case IndexFamilySetting::kForceIntervals:
      if (signals != nullptr) {
        SelectIndexFamily(graph, total_intervals, signals);
      }
      return IndexFamily::kIntervals;
    case IndexFamilySetting::kForceHop:
      if (signals != nullptr) {
        SelectIndexFamily(graph, total_intervals, signals);
      }
      return IndexFamily::kHop;
    case IndexFamilySetting::kAuto:
      break;
  }
  return SelectIndexFamily(graph, total_intervals, signals);
}

}  // namespace trel
