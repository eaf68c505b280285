#include "storage/closure_store.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "storage/relation_file.h"

namespace trel {
namespace {

constexpr uint64_t kIntervalMagic = 0x74726C6976616C73ULL;  // "trlivals"
constexpr uint64_t kAdjacencyMagic = 0x74726C61646A7374ULL;  // "trladjst"

using relation_file::AppendI32;
using relation_file::AppendI64;
using relation_file::AppendU64;
using relation_file::ReadBytes;
using relation_file::ReadI32;
using relation_file::ReadI64;
using relation_file::ReadU64;
using relation_file::WriteImage;

}  // namespace

Status IntervalStore::Write(const CompressedClosure& closure,
                            PageStore& store) {
  const int64_t n = closure.NumNodes();
  const uint64_t header_size = 4 * 8;
  const uint64_t postorder_off = header_size;
  const uint64_t dir_off = postorder_off + static_cast<uint64_t>(n) * 8;
  const uint64_t data_off = dir_off + static_cast<uint64_t>(n) * 16;

  std::vector<uint8_t> image;
  AppendU64(image, kIntervalMagic);
  AppendU64(image, static_cast<uint64_t>(n));
  AppendU64(image, postorder_off);
  AppendU64(image, dir_off);
  for (NodeId v = 0; v < n; ++v) {
    AppendI64(image, closure.PostorderOf(v));
  }
  uint64_t cursor = data_off;
  for (NodeId v = 0; v < n; ++v) {
    const uint64_t count = static_cast<uint64_t>(closure.IntervalCountOf(v));
    AppendU64(image, cursor);
    AppendU64(image, count);
    cursor += count * 16;
  }
  for (NodeId v = 0; v < n; ++v) {
    // Held in a local: range-for over IntervalsOf(v).intervals() would
    // iterate a destroyed temporary.
    const IntervalSet intervals = closure.IntervalsOf(v);
    for (const Interval& interval : intervals.intervals()) {
      AppendI64(image, interval.lo);
      AppendI64(image, interval.hi);
    }
  }
  TREL_CHECK_EQ(image.size(), cursor);
  return WriteImage(store, image);
}

StatusOr<IntervalStore> IntervalStore::Open(BufferPool* pool) {
  TREL_CHECK(pool != nullptr);
  TREL_ASSIGN_OR_RETURN(std::vector<uint8_t> header, ReadBytes(*pool, 0, 32));
  if (ReadU64(header.data()) != kIntervalMagic) {
    return InvalidArgumentError("not an interval store");
  }
  IntervalStore result(pool);
  result.num_nodes_ = static_cast<int64_t>(ReadU64(header.data() + 8));
  result.postorder_off_ = ReadU64(header.data() + 16);
  result.dir_off_ = ReadU64(header.data() + 24);
  return result;
}

StatusOr<bool> IntervalStore::Reaches(NodeId u, NodeId v) {
  if (u < 0 || v < 0 || u >= num_nodes_ || v >= num_nodes_) {
    return InvalidArgumentError("node out of range");
  }
  if (u == v) return true;
  TREL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> post_bytes,
      ReadBytes(*pool_, postorder_off_ + static_cast<uint64_t>(v) * 8, 8));
  const int64_t target = ReadI64(post_bytes.data());

  TREL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> dir,
      ReadBytes(*pool_, dir_off_ + static_cast<uint64_t>(u) * 16, 16));
  const uint64_t data_off = ReadU64(dir.data());
  const uint64_t count = ReadU64(dir.data() + 8);

  TREL_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                        ReadBytes(*pool_, data_off, count * 16));
  // Intervals are sorted by lo; binary search the candidate.
  int64_t lo_idx = 0, hi_idx = static_cast<int64_t>(count) - 1, found = -1;
  while (lo_idx <= hi_idx) {
    const int64_t mid = (lo_idx + hi_idx) / 2;
    if (ReadI64(data.data() + mid * 16) <= target) {
      found = mid;
      lo_idx = mid + 1;
    } else {
      hi_idx = mid - 1;
    }
  }
  if (found < 0) return false;
  return ReadI64(data.data() + found * 16 + 8) >= target;
}

Status AdjacencyStore::Write(const std::vector<std::vector<NodeId>>& lists,
                             PageStore& store) {
  const uint64_t n = lists.size();
  const uint64_t header_size = 3 * 8;
  const uint64_t dir_off = header_size;
  const uint64_t data_off = dir_off + n * 16;

  std::vector<uint8_t> image;
  AppendU64(image, kAdjacencyMagic);
  AppendU64(image, n);
  AppendU64(image, dir_off);
  uint64_t cursor = data_off;
  for (const auto& list : lists) {
    TREL_CHECK(std::is_sorted(list.begin(), list.end()));
    AppendU64(image, cursor);
    AppendU64(image, list.size());
    cursor += list.size() * 4;
  }
  for (const auto& list : lists) {
    for (NodeId w : list) AppendI32(image, w);
  }
  TREL_CHECK_EQ(image.size(), cursor);
  return WriteImage(store, image);
}

Status AdjacencyStore::WriteGraph(const Digraph& graph, PageStore& store) {
  std::vector<std::vector<NodeId>> lists(graph.NumNodes());
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    lists[v] = graph.OutNeighbors(v);
    std::sort(lists[v].begin(), lists[v].end());
  }
  return Write(lists, store);
}

StatusOr<AdjacencyStore> AdjacencyStore::Open(BufferPool* pool) {
  TREL_CHECK(pool != nullptr);
  TREL_ASSIGN_OR_RETURN(std::vector<uint8_t> header, ReadBytes(*pool, 0, 24));
  if (ReadU64(header.data()) != kAdjacencyMagic) {
    return InvalidArgumentError("not an adjacency store");
  }
  AdjacencyStore result(pool);
  result.num_nodes_ = static_cast<int64_t>(ReadU64(header.data() + 8));
  result.dir_off_ = ReadU64(header.data() + 16);
  return result;
}

StatusOr<std::pair<uint64_t, uint64_t>> AdjacencyStore::DirEntry(NodeId v) {
  TREL_ASSIGN_OR_RETURN(
      std::vector<uint8_t> dir,
      ReadBytes(*pool_, dir_off_ + static_cast<uint64_t>(v) * 16, 16));
  return std::make_pair(ReadU64(dir.data()), ReadU64(dir.data() + 8));
}

StatusOr<bool> AdjacencyStore::LookupReaches(NodeId u, NodeId v) {
  if (u < 0 || v < 0 || u >= num_nodes_ || v >= num_nodes_) {
    return InvalidArgumentError("node out of range");
  }
  if (u == v) return true;
  TREL_ASSIGN_OR_RETURN(auto entry, DirEntry(u));
  const auto [data_off, count] = entry;
  // Binary search probing individual records through the pool: each probe
  // is one logical page access, as an index lookup would be.
  int64_t lo = 0, hi = static_cast<int64_t>(count) - 1;
  while (lo <= hi) {
    const int64_t mid = (lo + hi) / 2;
    TREL_ASSIGN_OR_RETURN(
        std::vector<uint8_t> record,
        ReadBytes(*pool_, data_off + static_cast<uint64_t>(mid) * 4, 4));
    const NodeId candidate = ReadI32(record.data());
    if (candidate == v) return true;
    if (candidate < v) {
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return false;
}

StatusOr<bool> AdjacencyStore::DfsReaches(NodeId u, NodeId v) {
  if (u < 0 || v < 0 || u >= num_nodes_ || v >= num_nodes_) {
    return InvalidArgumentError("node out of range");
  }
  if (u == v) return true;
  std::vector<bool> visited(static_cast<size_t>(num_nodes_), false);
  std::vector<NodeId> stack = {u};
  visited[u] = true;
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    TREL_ASSIGN_OR_RETURN(auto entry, DirEntry(x));
    const auto [data_off, count] = entry;
    TREL_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                          ReadBytes(*pool_, data_off, count * 4));
    for (uint64_t k = 0; k < count; ++k) {
      const NodeId w = ReadI32(data.data() + k * 4);
      if (w == v) return true;
      if (!visited[w]) {
        visited[w] = true;
        stack.push_back(w);
      }
    }
  }
  return false;
}

}  // namespace trel
