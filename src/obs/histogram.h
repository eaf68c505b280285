#ifndef TREL_OBS_HISTOGRAM_H_
#define TREL_OBS_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>

namespace trel {

// The engine's one histogram: relaxed-atomic counts over a fixed
// log-linear layout.  Values 0..15 get a bucket each; above that each
// power of two splits into 16 equal sub-buckets, so no bucket is wider
// than 1/16 (6.25%) of its lower edge.  Values are clamped to [0, 2^40).
// Record() is one relaxed fetch_add; readers fold the counts into a
// plain Snapshot.  No bucket straddles a power of two, so
// FoldPowerOfTwo reproduces the coarse layout of the `le` lines exactly.
class LogHistogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kMaxValueBits = 40;
  static constexpr int kNumBuckets =
      (kMaxValueBits - kSubBucketBits + 1) * kSubBuckets;  // 592

  static int BucketOf(int64_t value) {
    if (value < kSubBuckets) return value < 0 ? 0 : static_cast<int>(value);
    if (value >= int64_t{1} << kMaxValueBits) return kNumBuckets - 1;
    const int shift =
        std::bit_width(static_cast<uint64_t>(value)) - 1 - kSubBucketBits;
    return (shift + 1) * kSubBuckets +
           static_cast<int>((value >> shift) & (kSubBuckets - 1));
  }

  // Exclusive upper edge of `bucket`.
  static int64_t UpperEdge(int bucket) {
    if (bucket < kSubBuckets) return bucket + 1;
    const int64_t sub = bucket % kSubBuckets;
    return (kSubBuckets + sub + 1) << (PowerOfTwoOf(bucket) - kSubBucketBits);
  }

  struct Snapshot {
    std::array<int64_t, kNumBuckets> counts{};

    int64_t Total() const {
      return std::accumulate(counts.begin(), counts.end(), int64_t{0});
    }

    // For each q of `qs` (ascending), the upper edge of the bucket holding
    // rank max(1, round(q * total)), so p50 <= p99 <= p999 and q = 1.0
    // bounds the maximum; all 0 when empty.  One walk serves every q.
    template <size_t N>
    std::array<int64_t, N> Quantiles(const std::array<double, N>& qs) const {
      std::array<int64_t, N> edges{};
      const int64_t total = Total();
      if (total == 0) return edges;
      int b = 0;
      int64_t seen = counts[0];
      for (size_t i = 0; i < N; ++i) {
        const int64_t rank = std::clamp<int64_t>(
            static_cast<int64_t>(qs[i] * static_cast<double>(total) + 0.5),
            1, total);
        while (seen < rank) seen += counts[++b];  // rank <= total: in range.
        edges[i] = UpperEdge(b);
      }
      return edges;
    }
    int64_t Quantile(double q) const { return Quantiles<1>({q})[0]; }

    // Adds the counts into power-of-two buckets: out[i] counts
    // [2^i, 2^(i+1)), out[0] also 0 and 1, the last element everything
    // larger.
    void FoldPowerOfTwo(std::span<int64_t> out) const {
      const int last = static_cast<int>(out.size()) - 1;
      for (int b = 0; b < kNumBuckets; ++b) {
        out[std::min(PowerOfTwoOf(b), last)] += counts[b];
      }
    }
  };

  void Record(int64_t value) {
    counts_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  }

  // Zeroes every bucket; a Record racing it may be lost.
  void Clear() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  }

  // Adds the live counts into `snapshot`, so histograms fold together.
  void AddTo(Snapshot* snapshot) const {
    for (int b = 0; b < kNumBuckets; ++b) {
      snapshot->counts[b] += counts_[b].load(std::memory_order_relaxed);
    }
  }

  Snapshot Read() const {
    Snapshot snapshot;
    AddTo(&snapshot);
    return snapshot;
  }

 private:
  // floor(log2) of every value `bucket` counts (0 for the values 0 and
  // 1): the power-of-two bucket it folds into.
  static int PowerOfTwoOf(int bucket) {
    if (bucket >= kSubBuckets) return bucket / kSubBuckets + kSubBucketBits - 1;
    return bucket < 2 ? 0 : std::bit_width(static_cast<unsigned>(bucket)) - 1;
  }

  std::array<std::atomic<int64_t>, kNumBuckets> counts_{};
};

}  // namespace trel

#endif  // TREL_OBS_HISTOGRAM_H_
