#ifndef TREL_SERVICE_PUBLISHED_PTR_H_
#define TREL_SERVICE_PUBLISHED_PTR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"

namespace trel {
namespace internal_published {

// Owns one dense thread index for the life of a thread: the lowest index
// no live thread holds, returned for reuse when the thread exits.
class ThreadIndex {
 public:
  ThreadIndex();
  ~ThreadIndex();
  ThreadIndex(const ThreadIndex&) = delete;
  ThreadIndex& operator=(const ThreadIndex&) = delete;

  int value() const { return value_; }

 private:
  int value_;
};

}  // namespace internal_published

// The calling thread's dense index, assigned on its first call.
inline int CurrentThreadIndex() {
  thread_local const internal_published::ThreadIndex index;
  return index.value();
}

// A value that one writer publishes and any number of readers use
// without writing a shared cache line: the read side of QueryService and
// ShardedQueryService (DESIGN.md §4b).
//
// A reader *pins* the current value for one call.  The Pin writes the
// value's address into the calling thread's own cache-line-padded slot,
// re-checks that it is still current, and clears the slot when it goes
// out of scope.  Publish() swaps in a new value and frees a replaced one
// once no slot names it (hazard pointers, Michael, IEEE TPDS 2004); a
// value still pinned at the swap waits in a retired list that Reclaim()
// and later publishes retry.  The same slot carries the thread's
// kCounters query counters, which only that thread writes and Sum() adds
// up, so counting is a plain add on a line the pin already owns.
//
// Threads beyond the first kSlots live ones fall back to a mutex-guarded
// counted load and shared atomic counters: slower, equally exact.
//
// A thread holds at most one Pin per PublishedPtr at a time; a nested Pin
// would overwrite the first one's slot, so the constructor checks it.
template <class T, int kCounters>
class PublishedPtr {
  struct Node;
  struct Slot;

 public:
  static constexpr int kSlots = 64;

  PublishedPtr() = default;
  ~PublishedPtr() { delete current_.load(std::memory_order_relaxed); }

  PublishedPtr(const PublishedPtr&) = delete;
  PublishedPtr& operator=(const PublishedPtr&) = delete;

  // The current value, held for one call.  Null before the first
  // Publish().
  class Pin {
   public:
    explicit Pin(const PublishedPtr& ptr);
    ~Pin() {
      if (slot_ != nullptr) {
        slot_->pinned.store(nullptr, std::memory_order_release);
      }
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    const T& operator*() const { return *value_; }
    const T* operator->() const { return value_; }

    // A counted handle on the pinned value, valid after the Pin ends.
    std::shared_ptr<const T> Shared() const {
      return node_ != nullptr ? node_->value : overflow_value_;
    }

    // Adds `n` to this thread's `counter`.
    void Add(int counter, int64_t n = 1) const {
      ptr_.AddTo(slot_, counter, n);
    }

   private:
    const PublishedPtr& ptr_;
    Slot* slot_ = nullptr;        // Null on the overflow path.
    const Node* node_ = nullptr;  // Pinned node on the slot path.
    const T* value_ = nullptr;
    std::shared_ptr<const T> overflow_value_;
  };

  // A counted handle on the current value, for callers that keep it
  // past one call.  Null before the first Publish().
  std::shared_ptr<const T> Load() const { return Pin(*this).Shared(); }

  // Writer side.  Swaps `value` in, then frees every replaced value that
  // no reader has pinned.
  void Publish(std::shared_ptr<const T> value);
  // Frees every retired value that no reader has pinned any more.
  void Reclaim();

  // Adds `n` to this thread's `counter` without pinning.
  void Add(int counter, int64_t n = 1) const {
    const int index = CurrentThreadIndex();
    AddTo(index < kSlots ? &slots_[index] : nullptr, counter, n);
  }

  // `counter` summed over every thread, live or exited.
  int64_t Sum(int counter) const;

 private:
  struct Node {
    explicit Node(std::shared_ptr<const T> v) : value(std::move(v)) {}
    const std::shared_ptr<const T> value;
  };

  struct alignas(64) Slot {
    std::atomic<const Node*> pinned{nullptr};
    std::array<std::atomic<int64_t>, kCounters> counters{};
  };

  void AddTo(Slot* slot, int counter, int64_t n) const {
    if (slot == nullptr) {
      overflow_counters_[counter].fetch_add(n, std::memory_order_relaxed);
      return;
    }
    // Only the slot's thread writes it, so load + store is an exact add
    // without a locked read-modify-write.
    std::atomic<int64_t>& c = slot->counters[counter];
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  bool IsPinned(const Node* node) const {
    for (const Slot& slot : slots_) {
      if (slot.pinned.load(std::memory_order_seq_cst) == node) return true;
    }
    return false;
  }

  // Readers load this line on every pin; the writer stores it once per
  // publish.  Kept apart from the slots and the writer-side state.
  alignas(64) std::atomic<const Node*> current_{nullptr};
  mutable std::array<Slot, kSlots> slots_;
  // Guards the swap and retired_; taken by overflow readers.
  alignas(64) mutable std::mutex mutex_;
  std::vector<std::unique_ptr<const Node>> retired_;
  mutable std::array<std::atomic<int64_t>, kCounters> overflow_counters_{};
};

template <class T, int kCounters>
PublishedPtr<T, kCounters>::Pin::Pin(const PublishedPtr& ptr) : ptr_(ptr) {
  const int index = CurrentThreadIndex();
  if (index >= kSlots) {
    // The swap happens under the mutex, so the node read here is current
    // and cannot be retired before its value is copied.
    std::lock_guard<std::mutex> lock(ptr.mutex_);
    const Node* node = ptr.current_.load(std::memory_order_relaxed);
    if (node != nullptr) overflow_value_ = node->value;
    value_ = overflow_value_.get();
    return;
  }
  slot_ = &ptr.slots_[index];
  TREL_CHECK(slot_->pinned.load(std::memory_order_relaxed) == nullptr)
      << "nested Pin on one PublishedPtr";
  const Node* node = ptr.current_.load(std::memory_order_acquire);
  for (;;) {
    // Both sides use seq_cst: either the writer's scan sees this slot
    // name `node`, or the re-load below sees the writer's swap.
    slot_->pinned.store(node, std::memory_order_seq_cst);
    const Node* again = ptr.current_.load(std::memory_order_seq_cst);
    if (again == node) break;
    node = again;
  }
  node_ = node;
  if (node != nullptr) value_ = node->value.get();
}

template <class T, int kCounters>
void PublishedPtr<T, kCounters>::Publish(std::shared_ptr<const T> value) {
  auto node = std::make_unique<const Node>(std::move(value));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const Node* old =
        current_.exchange(node.release(), std::memory_order_seq_cst);
    if (old != nullptr) retired_.emplace_back(old);
  }
  Reclaim();
}

template <class T, int kCounters>
void PublishedPtr<T, kCounters>::Reclaim() {
  std::vector<std::unique_ptr<const Node>> freed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::unique_ptr<const Node>> kept;
    for (std::unique_ptr<const Node>& node : retired_) {
      (IsPinned(node.get()) ? kept : freed).push_back(std::move(node));
    }
    retired_ = std::move(kept);
  }
  // `freed` drops its values here, outside the lock: the last reference
  // to a snapshot frees its label arena.
}

template <class T, int kCounters>
int64_t PublishedPtr<T, kCounters>::Sum(int counter) const {
  int64_t total = overflow_counters_[counter].load(std::memory_order_relaxed);
  for (const Slot& slot : slots_) {
    total += slot.counters[counter].load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace trel

#endif  // TREL_SERVICE_PUBLISHED_PTR_H_
