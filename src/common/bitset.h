#ifndef TREL_COMMON_BITSET_H_
#define TREL_COMMON_BITSET_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/check.h"

namespace trel {

// Fixed-size bitset whose size is chosen at runtime.  Used for the rows
// of ground-truth closure matrices (ReachabilityMatrix), where
// word-parallel union dominates the running time.
class DynamicBitset {
 public:
  DynamicBitset() : num_bits_(0) {}
  explicit DynamicBitset(size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  size_t size() const { return num_bits_; }

  void Set(size_t i) {
    TREL_CHECK_LT(i, num_bits_);
    words_[i >> 6] |= (uint64_t{1} << (i & 63));
  }

  void Reset(size_t i) {
    TREL_CHECK_LT(i, num_bits_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  bool Test(size_t i) const {
    TREL_CHECK_LT(i, num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  // this |= other.  Sizes must match.
  void UnionWith(const DynamicBitset& other) {
    TREL_CHECK_EQ(num_bits_, other.num_bits_);
    for (size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  }

  // Number of set bits.
  size_t Count() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(__builtin_popcountll(w));
    return n;
  }

  void Clear() {
    for (uint64_t& w : words_) w = 0;
  }

  bool operator==(const DynamicBitset& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

 private:
  size_t num_bits_;
  std::vector<uint64_t> words_;
};

}  // namespace trel

#endif  // TREL_COMMON_BITSET_H_
