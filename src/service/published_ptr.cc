#include "service/published_ptr.h"

#include <algorithm>

namespace trel {
namespace internal_published {
namespace {

// Indices held by live threads.  Never destroyed, so a thread that exits
// during static destruction can still return its index.
struct IndexRegistry {
  std::mutex mutex;
  std::vector<bool> in_use;  // Guarded by mutex.
};

IndexRegistry& Registry() {
  static IndexRegistry* registry = new IndexRegistry;
  return *registry;
}

}  // namespace

ThreadIndex::ThreadIndex() {
  IndexRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  const auto free = std::find(registry.in_use.begin(), registry.in_use.end(),
                              false);
  value_ = static_cast<int>(free - registry.in_use.begin());
  if (free == registry.in_use.end()) {
    registry.in_use.push_back(true);
  } else {
    *free = true;
  }
}

ThreadIndex::~ThreadIndex() {
  IndexRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.in_use[value_] = false;
}

}  // namespace internal_published
}  // namespace trel
