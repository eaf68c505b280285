// Differential fuzz suite for the flat LabelArena query path: every
// query the arena answers (Reaches, BatchReaches, Successors,
// CountSuccessors, Predecessors) must agree with a naive per-node
// IntervalSet reference evaluated over the same labeling, across
// randomized DAGs, gap-numbered labelings, and WithDelta overlay chains.
// The reference never touches the arena — it reads NodeLabels directly —
// so a layout bug anywhere in the arena (Eytzinger runs, coverage
// filters, directory, overlay slots) trips it.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/tree_cover_index.h"
#include "common/status.h"
#include "core/arena_kernels.h"
#include "core/chain_propagator.h"
#include "core/compressed_closure.h"
#include "core/dynamic_closure.h"
#include "core/labeling.h"
#include "core/simd_dispatch.h"
#include "core/tree_cover.h"
#include "service/snapshot.h"
#include "common/random.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "storage/buffer_pool.h"
#include "storage/closure_store.h"
#include "storage/page_store.h"

namespace trel {
namespace {

// Answers every query shape straight off the per-node labels, the way
// the paper defines them: u reaches v iff some interval of u contains
// v's postorder number.
class ReferenceClosure {
 public:
  explicit ReferenceClosure(const NodeLabels& labels) : labels_(labels) {}

  bool Reaches(NodeId u, NodeId v) const {
    return u == v || labels_.intervals[u].Contains(labels_.postorder[v]);
  }

  // Ascending postorder-number order, matching the closure's contract.
  std::vector<NodeId> Successors(NodeId u) const {
    std::vector<NodeId> out;
    for (NodeId w = 0; w < NumNodes(); ++w) {
      if (w != u && labels_.intervals[u].Contains(labels_.postorder[w])) {
        out.push_back(w);
      }
    }
    std::sort(out.begin(), out.end(), [&](NodeId a, NodeId b) {
      return labels_.postorder[a] < labels_.postorder[b];
    });
    return out;
  }

  // Ascending node id, matching the closure's arena sweep.
  std::vector<NodeId> Predecessors(NodeId v) const {
    std::vector<NodeId> out;
    for (NodeId u = 0; u < NumNodes(); ++u) {
      if (u != v && labels_.intervals[u].Contains(labels_.postorder[v])) {
        out.push_back(u);
      }
    }
    return out;
  }

  NodeId NumNodes() const {
    return static_cast<NodeId>(labels_.postorder.size());
  }

 private:
  const NodeLabels& labels_;
};

// The labeling CompressedClosure::Build computes, for tests that need the
// labels themselves (the closure keeps only its arena).
NodeLabels OptimalLabels(const Digraph& graph,
                         const LabelingOptions& labeling = {}) {
  auto cover = ComputeTreeCover(graph, TreeCoverStrategy::kOptimal);
  TREL_CHECK(cover.ok());
  auto labels = BuildLabels(graph, *cover, labeling);
  TREL_CHECK(labels.ok());
  return std::move(*labels);
}

// One endpoint's label as the closure reads it — postorder number,
// interval set, and which layer holds it — for failure messages, so a
// mismatch can be debugged from the log alone.
std::string DescribeNode(const CompressedClosure& closure, NodeId v) {
  std::ostringstream os;
  os << "node " << v;
  if (!closure.IsValidNode(v)) return os.str() + " (invalid)";
  os << " post " << closure.PostorderOf(v) << " intervals "
     << closure.IntervalsOf(v)
     << (closure.IsOverlayMember(v) ? " [overlay]" : " [base]");
  return os.str();
}

std::string DescribePair(const CompressedClosure& closure, NodeId u,
                         NodeId v) {
  return "\n  source " + DescribeNode(closure, u) + "\n  target " +
         DescribeNode(closure, v);
}

// Every query shape, all pairs, closure vs reference.
void ExpectMatchesReference(const CompressedClosure& closure,
                            const ReferenceClosure& ref,
                            const char* what) {
  ASSERT_EQ(closure.NumNodes(), ref.NumNodes()) << what;
  const NodeId n = closure.NumNodes();
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(closure.Reaches(u, v), ref.Reaches(u, v))
          << what << " Reaches " << u << "->" << v
          << DescribePair(closure, u, v);
    }
    const std::vector<NodeId> succ = ref.Successors(u);
    ASSERT_EQ(closure.Successors(u), succ)
        << what << " Successors of " << DescribeNode(closure, u);
    ASSERT_EQ(closure.CountSuccessors(u), static_cast<int64_t>(succ.size()))
        << what << " CountSuccessors of " << DescribeNode(closure, u);
    ASSERT_EQ(closure.Predecessors(u), ref.Predecessors(u))
        << what << " Predecessors of " << DescribeNode(closure, u);
  }
}

// Random pairs including out-of-range ids and duplicates on purpose.
// One draw in five expands into a run of 16-47 queries sharing a source,
// so the batch engine's grouped path (one 512-bit filter test per run)
// gets fuzzed alongside the per-query pipeline.
std::vector<std::pair<NodeId, NodeId>> FuzzPairs(NodeId n, uint64_t seed,
                                                 int64_t count) {
  Random rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(count);
  while (static_cast<int64_t>(pairs.size()) < count) {
    // Draw from [-2, n+1] so invalid ids show up on both sides.
    const NodeId u = static_cast<NodeId>(rng.Uniform(n + 4)) - 2;
    const int64_t run =
        rng.Uniform(5) == 0 ? 16 + static_cast<int64_t>(rng.Uniform(32)) : 1;
    for (int64_t r = 0;
         r < run && static_cast<int64_t>(pairs.size()) < count; ++r) {
      const NodeId v = static_cast<NodeId>(rng.Uniform(n + 4)) - 2;
      pairs.emplace_back(u, v);
    }
  }
  return pairs;
}

// BatchReaches snapshot semantics: invalid ids answer 0, never abort.
void ExpectBatchMatchesReference(const CompressedClosure& closure,
                                 const ReferenceClosure& ref, uint64_t seed,
                                 const char* what) {
  const NodeId n = closure.NumNodes();
  // 2048 pairs exercises the grouped kernel; 64 the per-query path.
  for (const int64_t count : {int64_t{64}, int64_t{2048}}) {
    const auto pairs = FuzzPairs(n, seed, count);
    const std::vector<uint8_t> got = closure.BatchReaches(pairs);
    ASSERT_EQ(static_cast<int64_t>(got.size()), count) << what;
    for (int64_t i = 0; i < count; ++i) {
      const auto [u, v] = pairs[i];
      const bool valid = closure.IsValidNode(u) && closure.IsValidNode(v);
      const uint8_t expected = valid && ref.Reaches(u, v) ? 1 : 0;
      ASSERT_EQ(got[i], expected)
          << what << " batch[" << count << "] " << u << "->" << v
          << DescribePair(closure, u, v);
    }
  }
}

class ArenaDifferentialTest : public ::testing::TestWithParam<
                                  std::tuple<int, double, Label, uint64_t>> {};

// The core property: a closure built over a randomized DAG — with and
// without postorder gaps — answers exactly like the IntervalSet
// reference over its own labels, and reads every label back unchanged
// (the arena is the closure's only copy of them).
TEST_P(ArenaDifferentialTest, ArenaAgreesWithIntervalSetReference) {
  const auto& [nodes, degree, gap, seed] = GetParam();
  const Digraph graph = RandomDag(nodes, degree, seed);

  ClosureOptions options;
  options.labeling.gap = gap;
  options.labeling.reserve = gap > 4 ? 3 : 0;
  const NodeLabels labels = OptimalLabels(graph, options.labeling);
  const CompressedClosure closure = CompressedClosure::FromParts(labels);

  const ReferenceClosure ref(labels);
  ExpectMatchesReference(closure, ref, "build");
  ExpectBatchMatchesReference(closure, ref, seed * 31 + 7, "build");
  EXPECT_EQ(closure.TotalIntervals(), labels.TotalIntervals());
  for (NodeId v = 0; v < closure.NumNodes(); ++v) {
    ASSERT_EQ(closure.PostorderOf(v), labels.postorder[v])
        << "PostorderOf " << v;
    ASSERT_EQ(closure.IntervalsOf(v), labels.intervals[v])
        << "IntervalsOf " << v;
    ASSERT_EQ(closure.IntervalCountOf(v), labels.intervals[v].size())
        << "IntervalCountOf " << v;
  }

  // Build() is the same cover + labels + FromParts pipeline.
  auto built = CompressedClosure::Build(graph, options);
  ASSERT_TRUE(built.ok()) << built.status().message();
  EXPECT_EQ(built->TotalIntervals(), closure.TotalIntervals());

  // Cross-check the labeling itself against DFS ground truth, so a
  // labeling bug can't hide behind a reference evaluated on the same
  // (broken) labels.
  const ReachabilityMatrix truth(graph);
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      ASSERT_EQ(built->Reaches(u, v), truth.Reaches(u, v))
          << "ground truth " << u << "->" << v
          << DescribePair(*built, u, v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ArenaDifferentialTest,
    ::testing::Values(
        // (nodes, avg degree, postorder gap, seed)
        std::make_tuple(90, 1.5, Label{1}, uint64_t{11}),
        std::make_tuple(90, 1.5, Label{1}, uint64_t{12}),
        std::make_tuple(60, 5.0, Label{1}, uint64_t{13}),   // interval-heavy
        std::make_tuple(90, 2.0, Label{64}, uint64_t{14}),  // gap-numbered
        std::make_tuple(60, 4.0, Label{64}, uint64_t{15}),
        std::make_tuple(120, 0.8, Label{7}, uint64_t{16}),  // forest-like
        // Labels up to 60 × 2^26 ≈ 4.03e9, above 2^31 (see
        // HighLabelGraphs below).
        std::make_tuple(60, 2.0, Label{1} << 26, uint64_t{71}),
        std::make_tuple(60, 3.0, Label{1} << 26, uint64_t{74}),
        std::make_tuple(60, 5.0, Label{1} << 26, uint64_t{72})),
    [](const ::testing::TestParamInfo<std::tuple<int, double, Label, uint64_t>>&
           info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_gap" +
             std::to_string(std::get<2>(info.param)) + "_seed" +
             std::to_string(std::get<3>(info.param));
    });

// A chain of WithDelta overlays over a mutating index must keep
// answering like (a) the IntervalSet reference over the index's current
// labels and (b) DFS ground truth on the current graph.  Two inputs:
//   random — random arcs plus a new leaf per round, so the deltas carry
//     both relabeled and brand-new nodes;
//   above — a short tree (0 -> 1 -> 2) gains one arc into the root of a
//     long chain, so the only overlaid node gets an interval above every
//     overlaid postorder number.  The overlay arena's coverage filters
//     must span that interval: an arena rejects labels past its last
//     filter bucket.
TEST(ArenaOverlayDifferentialTest, OverlayChainAgreesWithReference) {
  struct Input {
    const char* name;
    Digraph graph;
    int rounds;
    std::function<void(DynamicClosure&, Random&)> mutate;
  };
  Digraph two_trees(43);
  TREL_CHECK(two_trees.AddArc(0, 1).ok());
  TREL_CHECK(two_trees.AddArc(1, 2).ok());
  for (NodeId v = 3; v + 1 < two_trees.NumNodes(); ++v) {
    TREL_CHECK(two_trees.AddArc(v, v + 1).ok());
  }
  const std::vector<Input> inputs = {
      {"random", RandomDag(60, 1.5, 21), 6,
       [](DynamicClosure& dynamic, Random& rng) {
         for (int i = 0; i < 5; ++i) {
           const NodeId u =
               static_cast<NodeId>(rng.Uniform(dynamic.NumNodes()));
           const NodeId v =
               static_cast<NodeId>(rng.Uniform(dynamic.NumNodes()));
           (void)dynamic.AddArc(u, v);  // Cycles/duplicates simply drop.
         }
         TREL_CHECK(dynamic
                        .AddLeafUnder(static_cast<NodeId>(
                            rng.Uniform(dynamic.NumNodes())))
                        .ok());
       }},
      {"above", two_trees, 1,
       [](DynamicClosure& dynamic, Random&) {
         // From the root numbered lower into the other root.
         const bool zero_first =
             dynamic.labels().postorder[0] < dynamic.labels().postorder[3];
         TREL_CHECK(dynamic.AddArc(zero_first ? 0 : 3, zero_first ? 3 : 0)
                        .ok());
       }},
  };
  for (const Input& input : inputs) {
    auto dynamic = DynamicClosure::Build(input.graph);
    ASSERT_TRUE(dynamic.ok()) << input.name;
    CompressedClosure snapshot = dynamic->ExportClosure();
    dynamic->MarkClean();

    Random rng(97);
    Label max_overlaid_post = 0;
    Label max_overlaid_hi = 0;
    for (int round = 0; round < input.rounds; ++round) {
      input.mutate(*dynamic, rng);
      ClosureDelta delta = dynamic->ExportDelta();
      snapshot = CompressedClosure::WithDelta(snapshot, delta);
      ASSERT_TRUE(snapshot.IsOverlay()) << input.name;
      for (NodeId v = 0; v < snapshot.NumNodes(); ++v) {
        if (!snapshot.IsOverlayMember(v)) continue;
        max_overlaid_post =
            std::max(max_overlaid_post, snapshot.PostorderOf(v));
        max_overlaid_hi = std::max(
            max_overlaid_hi, snapshot.IntervalsOf(v).intervals().back().hi);
      }

      // The reference reads the index's current labels directly; the
      // overlay must agree with them query for query.
      const ReferenceClosure ref(dynamic->labels());
      ExpectMatchesReference(snapshot, ref, input.name);
      ExpectBatchMatchesReference(snapshot, ref, 400 + round, input.name);

      const ReachabilityMatrix truth(dynamic->graph());
      for (NodeId u = 0; u < dynamic->NumNodes(); ++u) {
        for (NodeId v = 0; v < dynamic->NumNodes(); ++v) {
          ASSERT_EQ(snapshot.Reaches(u, v), truth.Reaches(u, v))
              << input.name << " ground truth " << u << "->" << v
              << DescribePair(snapshot, u, v);
        }
      }
    }
    if (std::string(input.name) == "above") {
      // The input really has the shape it exists for.
      EXPECT_GT(max_overlaid_hi, max_overlaid_post);
    }
  }
}

// Every slot's 12 bytes past its fields must be zero, even over heap
// memory that held other bytes: a memcmp of two arenas (the fold tests
// below) compares those bytes too, and the fold copies them.
// Each round fills and frees a block a little larger than the 64 000-byte
// slot array, so the build is likely to reuse it.  A small allocation
// kept past the build stops the freed block from merging into the top of
// the heap, which the allocator could hand back to the system as zeroes.
TEST(ArenaSlotPaddingTest, PaddingIsZeroOverDirtyHeap) {
  const NodeLabels labels = OptimalLabels(RandomDag(2000, 3.0, 11));
  constexpr size_t kFieldBytes =
      offsetof(LabelArena::NodeSlot, extra_count) + sizeof(uint32_t);
  static_assert(kFieldBytes == 20, "NodeSlot fields are 20 bytes");
  constexpr size_t kJunkBytes = 120000;
  for (int round = 0; round < 20; ++round) {
    std::unique_ptr<unsigned char[]> junk(new unsigned char[kJunkBytes]);
    std::memset(junk.get(), 0xA5 + round, kJunkBytes);
    // Keeps the compiler from dropping the fill as a dead store.
    asm volatile("" : : "r"(junk.get()) : "memory");
    const auto fence = std::make_unique<uint64_t>(round);
    junk.reset();
    const CompressedClosure closure = CompressedClosure::FromParts(labels);
    const LabelArena& arena = closure.arena();
    for (NodeId v = 0; v < arena.num_nodes(); ++v) {
      unsigned char bytes[sizeof(LabelArena::NodeSlot)];
      std::memcpy(bytes, &arena.slots[v], sizeof(bytes));
      for (size_t i = kFieldBytes; i < sizeof(bytes); ++i) {
        ASSERT_EQ(bytes[i], 0) << "round " << round << " slot " << v
                               << " byte " << i;
      }
    }
  }
}

// --- Fold identity -----------------------------------------------------------
//
// CompressedClosure::Fold folds a WithDelta closure into a new base arena
// by copying slots, runs and filter lines out of the two layers.  It must
// yield the arena BuildLabelArena builds over the writer's labels, byte
// for byte, and the same answers as DFS.  The chains below cover new
// roots that move the filter scale, arcs, tree and non-tree deletions
// (whose renumbered subtrees leave stale base labels), overlays of new
// nodes only, empty deltas, and folds of folds.

// `got` against `want`, array by array.  A mismatch names the node and
// its label in `layered`, the two-layer closure the fold read.
void ExpectSameArena(const LabelArena& got, const LabelArena& want,
                     const CompressedClosure& layered,
                     const std::string& what) {
  ASSERT_EQ(got.filter_shift, want.filter_shift) << what;
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << what;
  ASSERT_EQ(got.extras.size(), want.extras.size()) << what;
  ASSERT_EQ(got.filters.size(), want.filters.size()) << what;
  ASSERT_EQ(got.ByteSize(), want.ByteSize()) << what;
  constexpr int64_t kWords = LabelArena::kFilterWords;
  for (NodeId v = 0; v < want.num_nodes(); ++v) {
    const LabelArena::NodeSlot& a = got.slots[v];
    const LabelArena::NodeSlot& b = want.slots[v];
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(a)), 0)
        << what << " slot of " << DescribeNode(layered, v)
        << ": extra_begin " << a.extra_begin << " vs " << b.extra_begin
        << ", extra_count " << a.extra_count << " vs " << b.extra_count;
    if (b.extra_count > 0) {
      ASSERT_EQ(std::memcmp(got.extras.data() + b.extra_begin,
                            want.extras.data() + b.extra_begin,
                            (b.extra_count + 1) * sizeof(ArenaInterval)),
                0)
          << what << " extras run of " << DescribeNode(layered, v);
    }
    ASSERT_TRUE(std::equal(got.filters.begin() + v * kWords,
                           got.filters.begin() + (v + 1) * kWords,
                           want.filters.begin() + v * kWords))
        << what << " filter line of " << DescribeNode(layered, v)
        << " at shift " << want.filter_shift;
  }
  ASSERT_EQ(got.dir_labels, want.dir_labels) << what;
  ASSERT_EQ(got.dir_nodes, want.dir_nodes) << what;
}

// Point, batch, successor, count and predecessor answers against DFS.
void ExpectMatchesDfs(const CompressedClosure& closure, const Digraph& graph,
                      uint64_t seed, const std::string& what) {
  const ReachabilityMatrix truth(graph);
  const NodeId n = graph.NumNodes();
  ASSERT_EQ(closure.NumNodes(), n) << what;
  for (NodeId u = 0; u < n; ++u) {
    std::vector<NodeId> preds;
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(closure.Reaches(u, v), truth.Reaches(u, v))
          << what << " Reaches " << u << "->" << v
          << DescribePair(closure, u, v);
      if (v != u && truth.Reaches(v, u)) preds.push_back(v);
    }
    const std::vector<NodeId> want = truth.Successors(u);
    std::vector<NodeId> succ = closure.Successors(u);
    std::sort(succ.begin(), succ.end());
    ASSERT_EQ(succ, want) << what << " Successors of "
                          << DescribeNode(closure, u);
    ASSERT_EQ(closure.CountSuccessors(u), static_cast<int64_t>(want.size()))
        << what << " CountSuccessors of " << DescribeNode(closure, u);
    ASSERT_EQ(closure.Predecessors(u), preds)
        << what << " Predecessors of " << DescribeNode(closure, u);
  }
  const auto pairs = FuzzPairs(n, seed, 2048);
  const std::vector<uint8_t> got = closure.BatchReaches(pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [u, v] = pairs[i];
    const bool valid = closure.IsValidNode(u) && closure.IsValidNode(v);
    ASSERT_EQ(got[i], valid && truth.Reaches(u, v) ? 1 : 0)
        << what << " batch " << u << "->" << v << DescribePair(closure, u, v);
  }
}

// Folds `layered` into `into` and checks the result against the writer's
// from-labels export (arena, interval total) and against DFS.
void FoldAndCheck(const CompressedClosure& layered,
                  const DynamicClosure& dynamic, uint64_t seed,
                  const std::string& what, CompressedClosure* folded,
                  std::shared_ptr<LabelArena> into =
                      std::make_shared<LabelArena>()) {
  *folded = CompressedClosure::Fold(layered, std::move(into));
  const CompressedClosure want = dynamic.ExportClosure();
  ASSERT_FALSE(folded->IsOverlay()) << what;
  ASSERT_NO_FATAL_FAILURE(
      ExpectSameArena(folded->arena(), want.arena(), layered, what));
  EXPECT_EQ(folded->TotalIntervals(), want.TotalIntervals()) << what;
  ASSERT_NO_FATAL_FAILURE(
      ExpectMatchesDfs(*folded, dynamic.graph(), seed, what));
}

// `folds` times: publish `deltas` WithDelta layers over the current base,
// one `mutate` call before each, then fold them into the next base, so
// every fold after the first folds a fold.  Fold f writes into
// `target(f)`, a fresh arena unless the chain recycles one.  Returns, in
// `shift_moves`, how many folds changed the filter scale.
struct FoldChain {
  const char* name;
  Digraph graph;
  int folds;
  int deltas;
  std::function<void(DynamicClosure&, Random&)> mutate;
  // Also assert that each overlay holds only nodes added since its base.
  bool only_new_nodes = false;
  std::function<std::shared_ptr<LabelArena>(int fold)> target = [](int) {
    return std::make_shared<LabelArena>();
  };
};

void RunFoldChain(const FoldChain& chain, uint64_t seed, int* shift_moves) {
  auto dynamic = DynamicClosure::Build(chain.graph);
  ASSERT_TRUE(dynamic.ok()) << chain.name;
  CompressedClosure base = dynamic->ExportClosure();
  dynamic->MarkClean();
  Random rng(seed);
  *shift_moves = 0;
  for (int f = 0; f < chain.folds; ++f) {
    CompressedClosure layered = base;
    for (int d = 0; d < chain.deltas; ++d) {
      chain.mutate(*dynamic, rng);
      layered = CompressedClosure::WithDelta(layered, dynamic->ExportDelta());
    }
    const std::string what =
        std::string(chain.name) + " fold " + std::to_string(f);
    if (chain.only_new_nodes) {
      ASSERT_TRUE(layered.IsOverlay()) << what;
      for (NodeId v = 0; v < base.NumNodes(); ++v) {
        ASSERT_FALSE(layered.IsOverlayMember(v))
            << what << " overlays old " << DescribeNode(layered, v);
      }
    }
    CompressedClosure folded;
    ASSERT_NO_FATAL_FAILURE(FoldAndCheck(layered, *dynamic, seed + f, what,
                                         &folded, chain.target(f)));
    if (folded.arena().filter_shift != base.arena().filter_shift) {
      ++*shift_moves;
    }
    base = std::move(folded);
  }
}

// A random arc of `dynamic` (which must have one).
std::pair<NodeId, NodeId> RandomArc(const DynamicClosure& dynamic,
                                    Random& rng) {
  const std::vector<std::pair<NodeId, NodeId>> arcs = dynamic.graph().Arcs();
  return arcs[rng.Uniform(arcs.size())];
}

NodeId RandomNode(const DynamicClosure& dynamic, Random& rng) {
  return static_cast<NodeId>(rng.Uniform(dynamic.NumNodes()));
}

// Each chain runs over four graph and update seeds.
constexpr uint64_t kFoldSeeds[] = {1, 2, 3, 4};

// Three arcs, a leaf and now and then a removal.
void MixedUpdate(DynamicClosure& dynamic, Random& rng) {
  for (int i = 0; i < 3; ++i) {
    (void)dynamic.AddArc(RandomNode(dynamic, rng), RandomNode(dynamic, rng));
  }
  TREL_CHECK(dynamic.AddLeafUnder(RandomNode(dynamic, rng)).ok());
  if (rng.Uniform(3) == 0) {
    const auto [from, to] = RandomArc(dynamic, rng);
    TREL_CHECK(dynamic.RemoveArc(from, to).ok());
  }
}

TEST(ArenaFoldTest, MixedUpdatesFoldByteForByte) {
  for (const uint64_t seed : kFoldSeeds) {
    const FoldChain chain{"mixed", RandomDag(80, 1.5, 610 + seed), 6, 3,
                          MixedUpdate};
    int shift_moves = 0;
    ASSERT_NO_FATAL_FAILURE(RunFoldChain(chain, seed, &shift_moves));
  }
}

// New roots number past the maximum, so enough of them move the filter
// scale: base lines must then be re-marked, not copied.
TEST(ArenaFoldTest, NewRootsMoveTheFilterScale) {
  for (const uint64_t seed : kFoldSeeds) {
    const FoldChain chain{
        "new_roots", RandomDag(40, 2.0, 620 + seed), 5, 2,
        [](DynamicClosure& dynamic, Random& rng) {
          for (int i = 0; i < 4; ++i) {
            TREL_CHECK(dynamic.AddLeafUnder(kNoNode).ok());
          }
          // Into a new root, so the overlay's runs reach past the base.
          (void)dynamic.AddArc(RandomNode(dynamic, rng),
                               dynamic.NumNodes() - 1);
        }};
    int shift_moves = 0;
    ASSERT_NO_FATAL_FAILURE(RunFoldChain(chain, seed, &shift_moves));
    EXPECT_GT(shift_moves, 0) << "seed " << seed
                              << " never moved the filter scale";
  }
}

// Tree-arc deletions renumber the detached subtree past the maximum,
// leaving its old numbers stale in the base directory; non-tree
// deletions change interval sets only.
TEST(ArenaFoldTest, DeletionsLeaveStaleLabelsBehind) {
  int tree_removals = 0;
  int other_removals = 0;
  for (const uint64_t seed : kFoldSeeds) {
    const FoldChain chain{
        "removals", RandomDag(70, 2.0, 630 + seed), 5, 2,
        [&](DynamicClosure& dynamic, Random& rng) {
          for (int i = 0; i < 2; ++i) {
            const auto [from, to] = RandomArc(dynamic, rng);
            ++(dynamic.IsTreeArc(from, to) ? tree_removals : other_removals);
            TREL_CHECK(dynamic.RemoveArc(from, to).ok());
          }
          (void)dynamic.AddArc(RandomNode(dynamic, rng),
                               RandomNode(dynamic, rng));
        }};
    int shift_moves = 0;
    ASSERT_NO_FATAL_FAILURE(RunFoldChain(chain, seed, &shift_moves));
  }
  EXPECT_GT(tree_removals, 0);
  EXPECT_GT(other_removals, 0);
}

// New leaves under distinct old parents dirty only themselves, so every
// overlay holds new nodes only and no base label goes stale.
TEST(ArenaFoldTest, OverlayOfNewNodesOnly) {
  for (const uint64_t seed : kFoldSeeds) {
    int next_parent = 0;
    FoldChain chain{"new_only", RandomDag(60, 1.5, 640 + seed), 4, 3,
                    [&](DynamicClosure& dynamic, Random&) {
                      for (int i = 0; i < 3; ++i) {
                        const NodeId parent = (next_parent++ * 7) % 60;
                        TREL_CHECK(dynamic.AddLeafUnder(parent).ok());
                      }
                    }};
    chain.only_new_nodes = true;
    int shift_moves = 0;
    ASSERT_NO_FATAL_FAILURE(RunFoldChain(chain, seed, &shift_moves));
  }
}

// An empty delta over a base alone leaves nothing to fold: the fold
// shares the base arena.  Over an overlay it carries that overlay, which
// then folds like any other.
TEST(ArenaFoldTest, EmptyDeltas) {
  auto dynamic = DynamicClosure::Build(RandomDag(50, 2.0, 65));
  ASSERT_TRUE(dynamic.ok());
  const CompressedClosure base = dynamic->ExportClosure();
  dynamic->MarkClean();

  const CompressedClosure empty =
      CompressedClosure::WithDelta(base, dynamic->ExportDelta());
  ASSERT_FALSE(empty.IsOverlay());
  CompressedClosure folded;
  ASSERT_NO_FATAL_FAILURE(
      FoldAndCheck(empty, *dynamic, 650, "empty over base", &folded));
  EXPECT_EQ(&folded.arena(), &base.arena());

  ASSERT_TRUE(dynamic->AddLeafUnder(3).ok());
  const CompressedClosure layered =
      CompressedClosure::WithDelta(base, dynamic->ExportDelta());
  ASSERT_TRUE(layered.IsOverlay());
  const CompressedClosure carried =
      CompressedClosure::WithDelta(layered, dynamic->ExportDelta());
  ASSERT_TRUE(carried.IsOverlay());
  ASSERT_NO_FATAL_FAILURE(
      FoldAndCheck(carried, *dynamic, 651, "empty over overlay", &folded));
}

// --- Recycled fold targets ---------------------------------------------------
//
// A service folds into the memory of a retired arena (QueryService's
// spare, DESIGN.md §4c), so a fold must build BuildLabelArena's arena
// whatever its target held.  Garbage below is 0xA5 in every byte plus a
// filter scale no arena of these graphs has, so a byte the fold leaves
// unwritten or an array it does not clear shows as a mismatch.

template <typename T>
void FillGarbage(std::vector<T>& array, size_t length) {
  array.assign(length, T());
  std::memset(static_cast<void*>(array.data()), 0xA5, length * sizeof(T));
}

// Refills every array of `arena` with garbage: `scale` times as many
// elements as the same array of `like`, plus one.
void FillArenaWithGarbage(LabelArena& arena, const LabelArena& like,
                          double scale) {
  const auto length = [scale](size_t size) {
    return static_cast<size_t>(static_cast<double>(size) * scale) + 1;
  };
  FillGarbage(arena.slots, length(like.slots.size()));
  FillGarbage(arena.extras, length(like.extras.size()));
  FillGarbage(arena.filters, length(like.filters.size()));
  FillGarbage(arena.dir_labels, length(like.dir_labels.size()));
  FillGarbage(arena.dir_nodes, length(like.dir_nodes.size()));
  arena.filter_shift = 31;
}

// Where each array's elements live, to tell a refill from a regrowth.
std::array<const void*, 5> Buffers(const LabelArena& arena) {
  return {arena.slots.data(), arena.extras.data(), arena.filters.data(),
          arena.dir_labels.data(), arena.dir_nodes.data()};
}

// True iff `array` has the fold's fixed headroom past its size.
template <typename T>
bool HasHeadroom(const std::vector<T>& array) {
  return array.capacity() >= array.size() + array.size() / 16;
}

// One fold of a mixed-update chain into garbage arrays twice as long as
// needed, which it refills in place, and into garbage arrays half as
// long, which it regrows with headroom.
TEST(ArenaFoldTest, GarbageTargetsFoldByteForByte) {
  for (const uint64_t seed : kFoldSeeds) {
    auto dynamic = DynamicClosure::Build(RandomDag(80, 1.5, 660 + seed));
    ASSERT_TRUE(dynamic.ok());
    CompressedClosure layered = dynamic->ExportClosure();
    dynamic->MarkClean();
    Random rng(seed);
    for (int d = 0; d < 3; ++d) {
      MixedUpdate(*dynamic, rng);
      layered = CompressedClosure::WithDelta(layered, dynamic->ExportDelta());
    }
    ASSERT_TRUE(layered.IsOverlay());
    const CompressedClosure want = dynamic->ExportClosure();
    for (const double scale : {2.0, 0.5}) {
      const std::string what = "seed " + std::to_string(seed) + " scale " +
                               std::to_string(scale);
      auto into = std::make_shared<LabelArena>();
      FillArenaWithGarbage(*into, want.arena(), scale);
      const std::array<const void*, 5> before = Buffers(*into);
      CompressedClosure folded;
      ASSERT_NO_FATAL_FAILURE(
          FoldAndCheck(layered, *dynamic, seed, what, &folded, into));
      ASSERT_EQ(&folded.arena(), into.get()) << what;
      if (scale > 1) {
        EXPECT_EQ(Buffers(*into), before) << what << ": an array moved";
      } else {
        EXPECT_TRUE(HasHeadroom(into->slots)) << what;
        EXPECT_TRUE(HasHeadroom(into->extras)) << what;
        EXPECT_TRUE(HasHeadroom(into->filters)) << what;
        EXPECT_TRUE(HasHeadroom(into->dir_labels)) << what;
        EXPECT_TRUE(HasHeadroom(into->dir_nodes)) << what;
      }
    }
  }
}

// Two arenas take turns as the fold target, as a service's live arena and
// its spare do: fold f writes into the arena fold f - 2 wrote, which no
// closure shares any more.  Both start as garbage with room for every
// fold of the chain, so no fold may move an array either.
TEST(ArenaFoldTest, TwoArenasSwappedAcrossFolds) {
  constexpr size_t kRoom = 4096;
  for (const uint64_t seed : kFoldSeeds) {
    std::array<LabelArena, 2> arenas;
    std::array<std::array<const void*, 5>, 2> buffers;
    for (int i = 0; i < 2; ++i) {
      FillGarbage(arenas[i].slots, kRoom);
      FillGarbage(arenas[i].extras, kRoom);
      FillGarbage(arenas[i].filters, kRoom);
      FillGarbage(arenas[i].dir_labels, kRoom);
      FillGarbage(arenas[i].dir_nodes, kRoom);
      arenas[i].filter_shift = 31;
      buffers[i] = Buffers(arenas[i]);
    }
    FoldChain chain{"swapped", RandomDag(80, 1.5, 670 + seed), 8, 3,
                    MixedUpdate};
    // The test owns both arenas; the closures only borrow them.
    chain.target = [&arenas](int fold) {
      return std::shared_ptr<LabelArena>(&arenas[fold % 2],
                                         [](LabelArena*) {});
    };
    int shift_moves = 0;
    ASSERT_NO_FATAL_FAILURE(RunFoldChain(chain, seed, &shift_moves));
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(Buffers(arenas[i]), buffers[i])
          << "seed " << seed << ": an array of arena " << i << " moved";
    }
  }
}

// Kernel tables for every level this HOST can execute (the build always
// contains both TUs; the AVX2 table exists but must not run without AVX2).
std::vector<const ArenaKernels*> HostRunnableKernelTables() {
  std::vector<const ArenaKernels*> tables = {&ScalarArenaKernels()};
  if (HighestSupportedSimdLevel() == SimdLevel::kAvx2) {
    tables.push_back(&Avx2ArenaKernels());
  }
  return tables;
}

// Every dispatch level must answer bit-identically on the same arena —
// the vector kernels are drop-in replacements, not approximations.
// This compares the per-level tables directly (in one process), on top
// of the TREL_SIMD-environment sweep ci.sh runs over this whole binary.
TEST(SimdKernelEquivalenceTest, ExtrasAndFilterProbesMatchScalar) {
  // Interval-heavy DAG so plenty of nodes carry extras runs of assorted
  // lengths (vector-scan range and descent range both covered).
  const Digraph graph = RandomDag(400, 5.0, 1234);
  auto built = CompressedClosure::Build(graph);
  ASSERT_TRUE(built.ok());
  const LabelArena& arena = built->arena();
  const ArenaKernels& scalar = ScalarArenaKernels();
  const std::vector<const ArenaKernels*> tables = HostRunnableKernelTables();

  int64_t runs_probed = 0;
  for (NodeId u = 0; u < arena.num_nodes(); ++u) {
    const LabelArena::NodeSlot& s = arena.slots[u];
    if (s.extra_count == 0) continue;
    ++runs_probed;
    const ArenaInterval* base = arena.extras.data() + s.extra_begin;
    for (NodeId v = 0; v < arena.num_nodes(); ++v) {
      const ArenaLabel p = arena.slots[v].postorder;
      // The postorder itself plus both neighbors, so off-by-one bounds
      // in the vector compares can't hide between assigned numbers.
      for (const ArenaLabel x : {p - 1, p, p + 1}) {
        const bool want = scalar.extras_contains(base, s.extra_count, x);
        for (const ArenaKernels* t : tables) {
          ASSERT_EQ(t->extras_contains(base, s.extra_count, x), want)
              << t->name << " extras u=" << u << " x=" << x;
        }
      }
    }
  }
  ASSERT_GT(runs_probed, 0) << "graph produced no extras runs to probe";

  Random rng(5);
  for (int trial = 0; trial < 4000; ++trial) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(arena.num_nodes()));
    const uint64_t* filter =
        arena.filters.data() +
        static_cast<size_t>(u) * LabelArena::kFilterWords;
    uint64_t mask[LabelArena::kFilterWords] = {};
    // Sparse masks: mostly-miss tests are the case the kernel exists for.
    const int bits = 1 + static_cast<int>(rng.Uniform(8));
    for (int b = 0; b < bits; ++b) {
      const uint64_t bucket = rng.Uniform(LabelArena::kFilterWords * 64);
      mask[bucket >> 6] |= uint64_t{1} << (bucket & 63);
    }
    const bool want = scalar.filter_intersects(filter, mask);
    for (const ArenaKernels* t : tables) {
      ASSERT_EQ(t->filter_intersects(filter, mask), want)
          << t->name << " filter u=" << u << " trial=" << trial;
    }
  }
}

TEST(SimdKernelEquivalenceTest, BatchReachesMatchesScalarBitForBit) {
  const Digraph graph = RandomDag(400, 5.0, 4321);
  auto built = CompressedClosure::Build(graph);
  ASSERT_TRUE(built.ok());
  const LabelArena& arena = built->arena();
  const ArenaKernels& scalar = ScalarArenaKernels();
  const std::vector<const ArenaKernels*> tables = HostRunnableKernelTables();

  for (const uint64_t seed : {uint64_t{1}, uint64_t{2}, uint64_t{3}}) {
    const auto pairs = FuzzPairs(arena.num_nodes(), seed, 4096);
    const int64_t n = static_cast<int64_t>(pairs.size());
    std::vector<uint8_t> want(n);
    BatchKernelStats want_stats;
    scalar.batch_reaches(arena, pairs.data(), n, want.data(), &want_stats);
    // Every query lands in exactly one tally.
    ASSERT_EQ(want_stats.fast_path + want_stats.filter_rejects +
                  want_stats.group_rejects + want_stats.extras_searches,
              n);
    for (const ArenaKernels* t : tables) {
      std::vector<uint8_t> got(n);
      BatchKernelStats stats;
      t->batch_reaches(arena, pairs.data(), n, got.data(), &stats);
      ASSERT_EQ(got, want) << t->name << " seed=" << seed;
      // The pipeline/grouping control flow is level-independent, so the
      // tallies must match exactly too, not just sum to n.
      EXPECT_EQ(stats.fast_path, want_stats.fast_path) << t->name;
      EXPECT_EQ(stats.filter_rejects, want_stats.filter_rejects) << t->name;
      EXPECT_EQ(stats.group_rejects, want_stats.group_rejects) << t->name;
      EXPECT_EQ(stats.extras_searches, want_stats.extras_searches) << t->name;
    }
  }
}

// The traced twin must behave like one more dispatch level: identical
// answers AND identical per-query probe tags on every host-runnable
// table, so a sampled trace means the same thing whatever ISA tier
// served it.  (Small batches route through the bypass, large ones
// through the grouped pipeline — both shapes are covered.)
TEST(SimdKernelEquivalenceTest, TaggedBatchMatchesScalarBitForBit) {
  const Digraph graph = RandomDag(400, 5.0, 2468);
  auto built = CompressedClosure::Build(graph);
  ASSERT_TRUE(built.ok());
  const LabelArena& arena = built->arena();
  const ArenaKernels& scalar = ScalarArenaKernels();
  const std::vector<const ArenaKernels*> tables = HostRunnableKernelTables();

  // 128 stays under the small-batch bypass threshold; 4096 engages the
  // pipelined engine with grouping.
  for (const int64_t count : {int64_t{128}, int64_t{4096}}) {
    for (const uint64_t seed : {uint64_t{7}, uint64_t{8}}) {
      const auto pairs = FuzzPairs(arena.num_nodes(), seed, count);
      std::vector<uint8_t> want(count), want_tags(count);
      BatchKernelStats want_stats;
      scalar.batch_reaches_tagged(arena, pairs.data(), count, want.data(),
                                  &want_stats, want_tags.data());
      // Tagging must not change the answers relative to the untagged
      // kernel...
      std::vector<uint8_t> untagged(count);
      scalar.batch_reaches(arena, pairs.data(), count, untagged.data(),
                           nullptr);
      ASSERT_EQ(want, untagged) << "count=" << count;
      // ...and each tag must be a valid ProbeTag whose tallies sum to n.
      std::array<int64_t, kNumProbeTags> tag_tally{};
      for (int64_t i = 0; i < count; ++i) {
        ASSERT_LT(want_tags[i], kNumProbeTags);
        ++tag_tally[want_tags[i]];
      }
      EXPECT_EQ(tag_tally[static_cast<int>(ProbeTag::kSlot)],
                want_stats.fast_path);
      EXPECT_EQ(tag_tally[static_cast<int>(ProbeTag::kFilterReject)],
                want_stats.filter_rejects);
      EXPECT_EQ(tag_tally[static_cast<int>(ProbeTag::kGroupReject)],
                want_stats.group_rejects);
      EXPECT_EQ(tag_tally[static_cast<int>(ProbeTag::kExtrasSearch)],
                want_stats.extras_searches);

      for (const ArenaKernels* t : tables) {
        std::vector<uint8_t> got(count), tags(count);
        BatchKernelStats stats;
        t->batch_reaches_tagged(arena, pairs.data(), count, got.data(),
                                &stats, tags.data());
        ASSERT_EQ(got, want) << t->name << " count=" << count;
        ASSERT_EQ(tags, want_tags) << t->name << " count=" << count;
        EXPECT_EQ(stats.fast_path, want_stats.fast_path) << t->name;
        EXPECT_EQ(stats.filter_rejects, want_stats.filter_rejects)
            << t->name;
        EXPECT_EQ(stats.group_rejects, want_stats.group_rejects) << t->name;
        EXPECT_EQ(stats.extras_searches, want_stats.extras_searches)
            << t->name;
      }
    }
  }
}

// Satellite regression test: a node with 10k+ intervals.  The recursive
// in-order walk this replaces put one call frame on the stack per
// interval; the iterative walk is bounded by tree height.  Also the
// longest Eytzinger descents the suite exercises.
TEST(ArenaDenseNodeTest, TenThousandExtraIntervals) {
  constexpr NodeId kLeaves = 10001;
  const NodeId n = kLeaves + 1;  // Node 0 is the dense source.
  NodeLabels labels;
  labels.postorder.resize(n);
  labels.intervals.resize(n);
  // Leaves own the even numbers 2..2*kLeaves; node 0 covers each leaf
  // with its own single-point interval (odd numbers stay unassigned, so
  // probes between members exercise descent misses).
  for (NodeId v = 1; v <= kLeaves; ++v) {
    labels.postorder[v] = 2 * static_cast<Label>(v);
    labels.intervals[v].Insert({2 * static_cast<Label>(v),
                                2 * static_cast<Label>(v)});
  }
  const Label self = 2 * static_cast<Label>(kLeaves) + 1;
  labels.postorder[0] = self;
  for (NodeId v = 1; v <= kLeaves; ++v) {
    labels.intervals[0].Insert({2 * static_cast<Label>(v),
                                2 * static_cast<Label>(v)});
  }
  labels.intervals[0].Insert({self, self});

  const CompressedClosure closure = CompressedClosure::FromParts(labels);
  ASSERT_GT(closure.arena().slots[0].extra_count, 10000u);

  // The in-order walk must visit all extras, ascending, without blowing
  // the stack.
  Label prev_hi = std::numeric_limits<Label>::min();
  int64_t visited = 0;
  closure.arena().ForEachExtra(0, [&](const Interval& interval) {
    EXPECT_GT(interval.lo, prev_hi);
    prev_hi = interval.hi;
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, closure.arena().slots[0].extra_count);

  EXPECT_EQ(closure.CountSuccessors(0), static_cast<int64_t>(kLeaves));
  const std::vector<NodeId> succ = closure.Successors(0);
  ASSERT_EQ(succ.size(), static_cast<size_t>(kLeaves));
  for (NodeId v = 1; v <= kLeaves; ++v) {
    ASSERT_EQ(succ[v - 1], v);  // Ascending postorder == ascending id.
  }
  EXPECT_TRUE(closure.Reaches(0, 1));
  EXPECT_TRUE(closure.Reaches(0, kLeaves));
  EXPECT_TRUE(closure.Reaches(0, kLeaves / 2));
  EXPECT_FALSE(closure.Reaches(1, 0));
  EXPECT_FALSE(closure.Reaches(1, 2));

  // Deep-descent probes across every host-runnable kernel level,
  // including misses between members (odd numbers).
  const LabelArena& arena = closure.arena();
  const ArenaInterval* base =
      arena.extras.data() + arena.slots[0].extra_begin;
  const uint32_t count = arena.slots[0].extra_count;
  // (The [2, 2] interval is inline in the slot, so extras hold the even
  // numbers 4..2*kLeaves plus the odd self number — probe below that.)
  for (const ArenaKernels* t : HostRunnableKernelTables()) {
    for (const ArenaLabel x : {ArenaLabel{4}, ArenaLabel{3}, ArenaLabel{9999},
                               ArenaLabel{10000}, ArenaLabel{2 * kLeaves},
                               ArenaLabel{2 * kLeaves - 1}}) {
      EXPECT_EQ(t->extras_contains(base, count, x), x % 2 == 0)
          << t->name << " x=" << x;
    }
  }

  const ReferenceClosure ref(labels);
  ExpectBatchMatchesReference(closure, ref, 99, "dense");
}

// ---------------------------------------------------------------------------
// Labels above 2^31.  The arena stores labels as unsigned 32-bit values,
// and the AVX2 scan compares them in signed lanes after flipping their
// sign bit.  The suites above keep labels far below 2^31, so a signed
// compare without the flip would pass them all.  Gap 2^26 on 60-node
// DAGs numbers up to 60 × 2^26 ≈ 4.03e9, just under the arena's 2^32
// limit, so extras runs straddle 2^31.

// The same three DAGs also run through ArenaDifferentialTest above.
std::vector<std::pair<const char*, Digraph>> HighLabelGraphs() {
  std::vector<std::pair<const char*, Digraph>> graphs;
  graphs.emplace_back("sparse", RandomDag(60, 2.0, 71));
  graphs.emplace_back("mid", RandomDag(60, 3.0, 74));
  graphs.emplace_back("dense", RandomDag(60, 5.0, 72));
  return graphs;
}

CompressedClosure BuildHighLabelClosure(const Digraph& graph) {
  ClosureOptions options;
  options.labeling.gap = Label{1} << 26;
  options.labeling.reserve = 5;
  auto closure = CompressedClosure::Build(graph, options);
  TREL_CHECK(closure.ok()) << closure.status().ToString();
  return std::move(closure).value();
}

// A crafted labeling whose extras runs are long enough for every step of
// the AVX2 scan and the Eytzinger descent: 64 leaves numbered 2^26 apart
// from 1 to about 4.2e9, and sources numbered just below 2^32 whose
// extras are every k-th leaf (k = 1..14), some widened past the leaf's
// number, so runs of 4 to 63 intervals straddle 2^31.
CompressedClosure BuildStraddlingClosure(NodeLabels& labels) {
  constexpr NodeId kLeaves = 64;
  constexpr NodeId kSources = 14;
  const NodeId n = kLeaves + kSources;
  labels.postorder.assign(n, 0);
  labels.intervals.assign(n, IntervalSet());
  const auto leaf_number = [](NodeId i) { return (Label{i} << 26) + 1; };
  for (NodeId i = 0; i < kLeaves; ++i) {
    labels.postorder[i] = leaf_number(i);
    labels.intervals[i].Insert({leaf_number(i), leaf_number(i)});
  }
  for (NodeId k = 1; k <= kSources; ++k) {
    const NodeId source = kLeaves + k - 1;
    const Label own = kArenaLabelLimit - 1 - k;
    labels.postorder[source] = own;
    labels.intervals[source].Insert({own, own});
    for (NodeId i = 0; i < kLeaves; i += k) {
      const Label hi = leaf_number(i) + (i % 3 == 0 ? Label{1} << 25 : 0);
      labels.intervals[source].Insert({leaf_number(i), hi});
    }
  }
  return CompressedClosure::FromParts(labels);
}

// Probes every extras run of `closure` at p - 1, p and p + 1 for every
// postorder p, and at 0, 2^31 - 1, 2^31, 2^31 + 1 and 2^32 - 1, on every
// host-runnable level: each must answer like the scalar table, and the
// scalar table like the node's own intervals.  Returns how many runs
// the AVX2 scan takes in two-register steps (8 to 32 intervals) that
// straddle 2^31.
int64_t ExpectExtrasProbesMatchScalar(const CompressedClosure& closure,
                                      const char* name) {
  const ArenaKernels& scalar = ScalarArenaKernels();
  constexpr ArenaLabel kHalf = ArenaLabel{1} << 31;
  const LabelArena& arena = closure.arena();
  int64_t straddling_scans = 0;
  for (NodeId u = 0; u < arena.num_nodes(); ++u) {
    const LabelArena::NodeSlot& s = arena.slots[u];
    if (s.extra_count == 0) continue;
    const ArenaInterval* base = arena.extras.data() + s.extra_begin;
    if (s.extra_count >= 8 && s.extra_count <= 32 && base[0].lo < kHalf &&
        base[0].hi >= kHalf) {
      ++straddling_scans;
    }
    const IntervalSet all = closure.IntervalsOf(u);
    const std::vector<Interval> extras(all.intervals().begin() + 1,
                                       all.intervals().end());
    std::vector<ArenaLabel> probes = {0, kHalf - 1, kHalf, kHalf + 1,
                                      ~ArenaLabel{0}};
    for (NodeId v = 0; v < arena.num_nodes(); ++v) {
      const ArenaLabel p = arena.slots[v].postorder;
      probes.insert(probes.end(), {p - 1, p, p + 1});
    }
    for (const ArenaLabel x : probes) {
      bool want = false;
      for (const Interval& interval : extras) want |= interval.Contains(x);
      EXPECT_EQ(scalar.extras_contains(base, s.extra_count, x), want)
          << name << " scalar extras u=" << u << " x=" << x;
      for (const ArenaKernels* t : HostRunnableKernelTables()) {
        EXPECT_EQ(t->extras_contains(base, s.extra_count, x), want)
            << name << " " << t->name << " extras u=" << u << " x=" << x;
      }
    }
  }
  return straddling_scans;
}

TEST(SimdKernelEquivalenceTest, ExtrasProbesAboveTwoToThe31MatchScalar) {
  for (const auto& [name, graph] : HighLabelGraphs()) {
    ExpectExtrasProbesMatchScalar(BuildHighLabelClosure(graph), name);
  }
  NodeLabels labels;
  const CompressedClosure crafted = BuildStraddlingClosure(labels);
  EXPECT_GT(ExpectExtrasProbesMatchScalar(crafted, "crafted"), 3)
      << "too few scanned extras runs straddle 2^31";
  // The whole read path over the crafted runs, against its labels.
  const ReferenceClosure ref(labels);
  ExpectMatchesReference(crafted, ref, "crafted");
  ExpectBatchMatchesReference(crafted, ref, 23, "crafted");
}

TEST(ArenaHighLabelTest, IntervalStoreRoundTripsAboveTwoToThe31) {
  const Digraph graph = RandomDag(60, 5.0, 72);
  const CompressedClosure closure = BuildHighLabelClosure(graph);
  auto store =
      PageStore::Open(::testing::TempDir() + "/high_labels.db", 512);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(IntervalStore::Write(closure, *store).ok());
  BufferPool pool(&*store, 16);
  auto on_disk = IntervalStore::Open(&pool);
  ASSERT_TRUE(on_disk.ok());
  ASSERT_EQ(on_disk->NumNodes(), graph.NumNodes());
  const ReachabilityMatrix truth(graph);
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    for (NodeId v = 0; v < graph.NumNodes(); ++v) {
      auto got = on_disk->Reaches(u, v);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(*got, truth.Reaches(u, v)) << u << "->" << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Adversarial-shape differential suite: the interval closure and the
// TreeCoverIndex comparator must answer bit-for-bit like DFS ground truth
// on the shapes that shred interval labels — the Fig 3.6 dense bipartite
// layers and hub-dominated DAGs — and on shapes where the labels stay
// small.
std::vector<std::pair<const char*, Digraph>> AdversarialGraphs() {
  std::vector<std::pair<const char*, Digraph>> graphs;
  graphs.emplace_back("bipartite", CompleteBipartite(22, 22));
  graphs.emplace_back("layered_dense", LayeredDag(4, 14, 0.5, 91));
  graphs.emplace_back("hub", HubDag(40, 5, 36, 92));
  graphs.emplace_back("random_sparse", RandomDag(80, 1.5, 93));
  graphs.emplace_back("random_dense", RandomDag(50, 5.0, 94));
  graphs.emplace_back("intermediary", BipartiteWithIntermediary(20, 20));
  return graphs;
}

TEST(IndexFamilyDifferentialTest, AllFamiliesMatchDfsGroundTruth) {
  for (const auto& [name, graph] : AdversarialGraphs()) {
    const ReachabilityMatrix truth(graph);
    auto closure = CompressedClosure::Build(graph);
    ASSERT_TRUE(closure.ok()) << name;
    const TreeCoverIndex trees = TreeCoverIndex::Build(graph, 2, 7);
    const NodeId n = graph.NumNodes();
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        const bool want = truth.Reaches(u, v);
        ASSERT_EQ(closure->Reaches(u, v), want)
            << name << " intervals " << u << "->" << v;
        ASSERT_EQ(trees.Reaches(u, v), want)
            << name << " trees " << u << "->" << v;
      }
    }
  }
}

// The traced twins must return the same answers and only legal tags,
// since trace records cross the obs boundary by tag value.
TEST(IndexFamilyDifferentialTest, TracedTwinsAgreeAndTagLegally) {
  for (const auto& [name, graph] : AdversarialGraphs()) {
    auto closure = CompressedClosure::Build(graph);
    ASSERT_TRUE(closure.ok()) << name;
    const TreeCoverIndex trees = TreeCoverIndex::Build(graph, 3, 8);
    const NodeId n = graph.NumNodes();
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        ProbeTrace trace;
        ASSERT_EQ(closure->ReachesTraced(u, v, &trace),
                  closure->Reaches(u, v))
            << name;
        ASSERT_TRUE(trace.tag == ProbeTag::kSlot ||
                    trace.tag == ProbeTag::kFilterReject ||
                    trace.tag == ProbeTag::kExtrasSearch)
            << name << " intervals tag " << static_cast<int>(trace.tag);
        ASSERT_EQ(trees.ReachesTraced(u, v, &trace), trees.Reaches(u, v))
            << name;
        ASSERT_TRUE(trace.tag == ProbeTag::kSlot ||
                    trace.tag == ProbeTag::kFilterReject ||
                    trace.tag == ProbeTag::kFallback)
            << name << " trees tag " << static_cast<int>(trace.tag);
      }
    }
  }
}

// More trees never mean more fallbacks.  With one seed, the first tree of
// a k-tree index is the whole 1-tree index, so each extra tree can only
// refute more pairs: every pair the 4-tree index sends to the pruned DFS
// (the kFallback tag) the 1-tree index sends there too.
TEST(TreeCoverIndexTest, MoreTreesNeverMeanMoreFallbacks) {
  const Digraph graph = RandomDag(300, 3.0, 220);
  const TreeCoverIndex one = TreeCoverIndex::Build(graph, 1, 5);
  const TreeCoverIndex four = TreeCoverIndex::Build(graph, 4, 5);
  int64_t one_fallbacks = 0;
  int64_t four_fallbacks = 0;
  for (NodeId u = 0; u < graph.NumNodes(); u += 3) {
    for (NodeId v = 0; v < graph.NumNodes(); v += 7) {
      ProbeTrace one_trace;
      ProbeTrace four_trace;
      ASSERT_EQ(four.ReachesTraced(u, v, &four_trace),
                one.ReachesTraced(u, v, &one_trace))
          << u << "->" << v;
      const bool one_fell_back = one_trace.tag == ProbeTag::kFallback;
      const bool four_fell_back = four_trace.tag == ProbeTag::kFallback;
      ASSERT_TRUE(one_fell_back || !four_fell_back) << u << "->" << v;
      one_fallbacks += one_fell_back;
      four_fallbacks += four_fell_back;
    }
  }
  EXPECT_GT(one_fallbacks, 0);
  EXPECT_LT(four_fallbacks, one_fallbacks);
}

// On the bipartite crossing the tree covers' labels are at least 2x
// smaller than the interval arena, checked at test scale (about 2.2x with
// the arena's 8-byte intervals).
TEST(IndexFamilyDifferentialTest, FamiliesBeatIntervalBytesOnTheirShapes) {
  const Digraph bipartite = CompleteBipartite(150, 150);
  auto closure = CompressedClosure::Build(bipartite);
  ASSERT_TRUE(closure.ok());
  const TreeCoverIndex trees = TreeCoverIndex::Build(bipartite, 2, 9);
  EXPECT_GE(closure->ArenaByteSize(), 2 * trees.LabelBytes())
      << "intervals " << closure->ArenaByteSize() << "B vs trees "
      << trees.LabelBytes() << "B";
}

// WithDelta overlay chains on a hub-dominated DAG, through the snapshot
// layer the service uses.  Two chains: one that only adds arcs and
// leaves, and one whose rounds first delete a tree arc and two non-tree
// arcs, so paths also disappear under the overlay.
TEST(IndexFamilyOverlayTest, OverlayChainsStayExactUnderEveryFamily) {
  for (const bool deletions : {false, true}) {
    const std::string chain = deletions ? "deletions" : "insertions";
    auto dynamic = DynamicClosure::Build(HubDag(30, 4, 26, 55));
    ASSERT_TRUE(dynamic.ok());

    // Full publish, as QueryService::PublishLocked assembles a snapshot.
    ClosureSnapshot snapshot;
    snapshot.closure = dynamic->ExportClosure();
    dynamic->MarkClean();

    Random rng(137);
    for (int round = 0; round < 5; ++round) {
      if (deletions) {
        int tree_removals = 1;
        int non_tree_removals = 2;
        auto arcs = dynamic->graph().Arcs();
        while (tree_removals + non_tree_removals > 0 && !arcs.empty()) {
          const size_t pick = rng.Uniform(arcs.size());
          const auto [a, b] = arcs[pick];
          arcs[pick] = arcs.back();
          arcs.pop_back();
          int& budget =
              dynamic->IsTreeArc(a, b) ? tree_removals : non_tree_removals;
          if (budget == 0) continue;
          ASSERT_TRUE(dynamic->RemoveArc(a, b).ok())
              << chain << " round " << round << " " << a << "->" << b;
          --budget;
        }
        ASSERT_EQ(tree_removals + non_tree_removals, 0)
            << chain << " round " << round;
      }
      for (int i = 0; i < 4; ++i) {
        const NodeId u =
            static_cast<NodeId>(rng.Uniform(dynamic->NumNodes()));
        const NodeId v =
            static_cast<NodeId>(rng.Uniform(dynamic->NumNodes()));
        (void)dynamic->AddArc(u, v);  // Cycles/duplicates simply drop.
      }
      ASSERT_TRUE(dynamic
                      ->AddLeafUnder(static_cast<NodeId>(
                          rng.Uniform(dynamic->NumNodes())))
                      .ok());

      // Delta publish: overlay the closure.
      ClosureDelta delta = dynamic->ExportDelta();
      snapshot.closure = CompressedClosure::WithDelta(snapshot.closure, delta);
      ASSERT_TRUE(snapshot.closure.IsOverlay());

      const ReachabilityMatrix truth(dynamic->graph());
      const NodeId n = dynamic->NumNodes();
      for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = 0; v < n; ++v) {
          ASSERT_EQ(snapshot.Reaches(u, v), truth.Reaches(u, v))
              << chain << " round " << round << " " << u << "->" << v;
        }
      }

      // Batch twins under the same snapshot semantics.
      const auto pairs = FuzzPairs(n, 500 + round, 512);
      std::vector<uint8_t> out(pairs.size()), tags(pairs.size());
      BatchKernelStats stats;
      snapshot.BatchReachesTraced(pairs.data(),
                                  static_cast<int64_t>(pairs.size()),
                                  out.data(), &stats, tags.data());
      std::vector<uint8_t> untagged(pairs.size());
      snapshot.BatchReaches(pairs.data(), static_cast<int64_t>(pairs.size()),
                            untagged.data(), nullptr);
      for (size_t i = 0; i < pairs.size(); ++i) {
        const auto [u, v] = pairs[i];
        const bool valid = snapshot.closure.IsValidNode(u) &&
                           snapshot.closure.IsValidNode(v);
        const uint8_t want = valid && truth.Reaches(u, v) ? 1 : 0;
        ASSERT_EQ(out[i], want) << chain << " batch " << u << "->" << v;
        ASSERT_EQ(untagged[i], want)
            << chain << " untagged batch " << u << "->" << v;
        ASSERT_LT(tags[i], kNumProbeTags);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Chain-fast publish differential suite: BuildChainLabeling's closed-form
// frontier propagation must be BIT-IDENTICAL to running the generic
// propagator (BuildLabels) over the same greedy path cover, and a
// chain-built snapshot must answer exactly like DFS ground truth — on
// chain-friendly shapes and on shapes the fast path was never meant for.

std::vector<std::pair<const char*, Digraph>> ChainAdversarialGraphs() {
  std::vector<std::pair<const char*, Digraph>> graphs;
  graphs.emplace_back("chained", ChainedDag(8, 30, 3.0, 41));
  graphs.emplace_back("chained_wide", ChainedDag(24, 10, 2.2, 42));
  graphs.emplace_back("chained_sparse", ChainedDag(4, 60, 1.5, 43));
  graphs.emplace_back("tree", RandomTree(200, 44));
  graphs.emplace_back("layered", LayeredDag(6, 8, 0.35, 45));
  graphs.emplace_back("hub", HubDag(40, 5, 36, 46));
  graphs.emplace_back("random_sparse", RandomDag(120, 1.2, 47));
  graphs.emplace_back("intermediary", BipartiteWithIntermediary(16, 16));
  graphs.emplace_back("single_chain", ChainedDag(1, 40, 0.975, 48));
  return graphs;
}

TEST(ChainDifferentialTest, ChainLabelingBitIdenticalToGenericPropagator) {
  for (const auto& [name, graph] : ChainAdversarialGraphs()) {
    for (const auto& [gap, reserve] :
         {std::pair<Label, Label>{1, 0}, std::pair<Label, Label>{64, 16}}) {
      LabelingOptions options;
      options.gap = gap;
      options.reserve = reserve;
      auto chain = BuildChainLabeling(graph, options);
      ASSERT_TRUE(chain.ok()) << name << ": " << chain.status().message();

      // The generic propagator over the SAME cover is the oracle.
      auto generic = BuildLabels(graph, chain->cover, options);
      ASSERT_TRUE(generic.ok()) << name;
      ASSERT_EQ(chain->labels.postorder, generic->postorder)
          << name << " gap=" << gap;
      ASSERT_EQ(chain->labels.tree_interval, generic->tree_interval)
          << name << " gap=" << gap;
      ASSERT_EQ(chain->labels.intervals.size(), generic->intervals.size())
          << name;
      for (size_t v = 0; v < generic->intervals.size(); ++v) {
        ASSERT_EQ(chain->labels.intervals[v], generic->intervals[v])
            << name << " gap=" << gap << " node " << v;
      }
      EXPECT_EQ(chain->labels.gap, gap);
      EXPECT_EQ(chain->labels.reserve, reserve);
    }
  }
}

TEST(ChainDifferentialTest, ChainBuiltSnapshotMatchesGroundTruth) {
  for (const auto& [name, graph] : ChainAdversarialGraphs()) {
    auto dynamic = DynamicClosure::BuildWithChains(graph);
    ASSERT_TRUE(dynamic.ok()) << name << ": " << dynamic.status().message();
    EXPECT_TRUE(dynamic->UsesChainCover()) << name;

    const CompressedClosure snapshot = dynamic->ExportClosure();
    const ReferenceClosure ref(dynamic->labels());
    ExpectMatchesReference(snapshot, ref, name);
    ExpectBatchMatchesReference(snapshot, ref, 600, name);

    const ReachabilityMatrix truth(graph);
    for (NodeId u = 0; u < graph.NumNodes(); ++u) {
      for (NodeId v = 0; v < graph.NumNodes(); ++v) {
        ASSERT_EQ(snapshot.Reaches(u, v), truth.Reaches(u, v))
            << name << " chain ground truth " << u << "->" << v;
      }
    }

    // Re-tightening with the Alg1 optimal cover (the publish cadence's
    // upgrade step) keeps answers identical and never grows the label.
    const int64_t chain_intervals = snapshot.TotalIntervals();
    dynamic->Reoptimize();
    EXPECT_FALSE(dynamic->UsesChainCover()) << name;
    const CompressedClosure optimal = dynamic->ExportClosure();
    EXPECT_LE(optimal.TotalIntervals(), chain_intervals) << name;
    for (NodeId u = 0; u < graph.NumNodes(); ++u) {
      for (NodeId v = 0; v < graph.NumNodes(); ++v) {
        ASSERT_EQ(optimal.Reaches(u, v), truth.Reaches(u, v))
            << name << " reoptimized " << u << "->" << v;
      }
    }
  }
}

// WithDelta overlay chains on a chain-fast base: the delta pipeline must
// be oblivious to which cover built the base labels.
TEST(ChainDifferentialTest, OverlayChainOnChainFastBaseStaysExact) {
  auto dynamic = DynamicClosure::BuildWithChains(ChainedDag(6, 12, 2.5, 71));
  ASSERT_TRUE(dynamic.ok());
  ASSERT_TRUE(dynamic->UsesChainCover());

  CompressedClosure snapshot = dynamic->ExportClosure();
  dynamic->MarkClean();

  Random rng(173);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 5; ++i) {
      const NodeId u = static_cast<NodeId>(rng.Uniform(dynamic->NumNodes()));
      const NodeId v = static_cast<NodeId>(rng.Uniform(dynamic->NumNodes()));
      (void)dynamic->AddArc(u, v);  // Cycles/duplicates are fine to drop.
    }
    ASSERT_TRUE(dynamic
                    ->AddLeafUnder(static_cast<NodeId>(
                        rng.Uniform(dynamic->NumNodes())))
                    .ok());

    ClosureDelta delta = dynamic->ExportDelta();
    snapshot = CompressedClosure::WithDelta(snapshot, delta);
    ASSERT_TRUE(snapshot.IsOverlay());

    const ReferenceClosure ref(dynamic->labels());
    ExpectMatchesReference(snapshot, ref, "chain overlay");
    ExpectBatchMatchesReference(snapshot, ref, 700 + round,
                                "chain overlay batch");

    const ReachabilityMatrix truth(dynamic->graph());
    for (NodeId u = 0; u < dynamic->NumNodes(); ++u) {
      for (NodeId v = 0; v < dynamic->NumNodes(); ++v) {
        ASSERT_EQ(snapshot.Reaches(u, v), truth.Reaches(u, v))
            << "chain overlay ground truth " << u << "->" << v
            << DescribePair(snapshot, u, v);
      }
    }
  }
}

// The analyzer's verdicts on canonical shapes, and the entry-cap
// backstop on the one shape engineered to trip it.
TEST(ChainDifferentialTest, EligibilityAndEntryCapBackstop) {
  // Chain-structured: few chains, eligible.
  auto chained = AnalyzeChains(ChainedDag(8, 100, 2.5, 81));
  ASSERT_TRUE(chained.ok());
  EXPECT_EQ(chained->num_chains, 8);
  EXPECT_TRUE(chained->eligible);

  // Random degree-3: the greedy cover fragments far past n/16.
  auto random = AnalyzeChains(RandomDag(500, 3.0, 82));
  ASSERT_TRUE(random.ok());
  EXPECT_FALSE(random->eligible);
  EXPECT_GT(random->num_chains,
            static_cast<int>(500 * kMaxChainWidthFraction));

  // Cyclic input is a precondition failure, mirroring BuildLabels.
  Digraph cyclic(2);
  ASSERT_TRUE(cyclic.AddArc(0, 1).ok());
  ASSERT_TRUE(cyclic.AddArc(1, 0).ok());
  EXPECT_EQ(AnalyzeChains(cyclic).status().code(),
            StatusCode::kFailedPrecondition);

  // A dense bipartite shape fans every source-side chain into every
  // sink: with enough chains the per-node emission blows through
  // kMaxChainEntriesPerNode and the build must abort, not degrade.
  const Digraph bipartite = CompleteBipartite(120, 120);
  auto build = BuildChainLabeling(bipartite, LabelingOptions{});
  ASSERT_FALSE(build.ok());
  EXPECT_EQ(build.status().code(), StatusCode::kResourceExhausted);
  // The service-facing wrapper falls back to the Alg1 path instead.
  auto fallback = DynamicClosure::BuildWithChains(bipartite);
  ASSERT_FALSE(fallback.ok());
}

}  // namespace
}  // namespace trel
