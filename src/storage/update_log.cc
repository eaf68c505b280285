#include "storage/update_log.h"

#include <istream>
#include <ostream>
#include <string>

#include "common/check.h"

namespace trel {
namespace {

void PutI32(std::ostream& out, int32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>(static_cast<uint32_t>(value) >> (8 * i));
  }
  out.write(bytes, 4);
}

bool GetI32(std::istream& in, int32_t& value) {
  char bytes[4];
  if (!in.read(bytes, 4)) return false;
  uint32_t raw = 0;
  for (int i = 3; i >= 0; --i) {
    raw = (raw << 8) | static_cast<uint8_t>(bytes[i]);
  }
  value = static_cast<int32_t>(raw);
  return true;
}

}  // namespace

Status AppendUpdateOp(std::ostream& out, const UpdateOp& op) {
  out.put(static_cast<char>(op.kind));
  PutI32(out, op.a);
  PutI32(out, op.b);
  PutI32(out, static_cast<int32_t>(op.parents.size()));
  for (NodeId p : op.parents) PutI32(out, p);
  if (!out.good()) return IoError("log append failed");
  return Status::Ok();
}

StatusOr<std::vector<UpdateOp>> ReadUpdateLog(std::istream& in) {
  std::vector<UpdateOp> ops;
  for (;;) {
    const int kind_byte = in.get();
    if (kind_byte == EOF) break;
    if (kind_byte < 1 || kind_byte > 5) {
      return InvalidArgumentError("corrupt log record kind " +
                                  std::to_string(kind_byte));
    }
    UpdateOp op;
    op.kind = static_cast<UpdateOp::Kind>(kind_byte);
    int32_t parent_count = 0;
    if (!GetI32(in, op.a) || !GetI32(in, op.b) ||
        !GetI32(in, parent_count) || parent_count < 0) {
      return InvalidArgumentError("torn log record");
    }
    // No reserve: parent_count is untrusted, and a torn list ends early.
    for (int32_t k = 0; k < parent_count; ++k) {
      int32_t p;
      if (!GetI32(in, p)) return InvalidArgumentError("torn parent list");
      op.parents.push_back(p);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

Status ReplayUpdateLog(DynamicClosure& closure,
                       const std::vector<UpdateOp>& ops) {
  for (size_t k = 0; k < ops.size(); ++k) {
    const UpdateOp& op = ops[k];
    Status status;
    switch (op.kind) {
      case UpdateOp::Kind::kAddLeaf: {
        auto node = closure.AddLeafUnder(op.a);
        status = node.ok() ? Status::Ok() : node.status();
        break;
      }
      case UpdateOp::Kind::kAddArc:
        status = closure.AddArc(op.a, op.b);
        break;
      case UpdateOp::Kind::kRemoveArc:
        status = closure.RemoveArc(op.a, op.b);
        break;
      case UpdateOp::Kind::kRefine: {
        auto node = closure.RefineAbove(op.b, op.parents);
        status = node.ok() ? Status::Ok() : node.status();
        break;
      }
      case UpdateOp::Kind::kReoptimize:
        closure.Reoptimize();
        break;
    }
    if (!status.ok()) {
      return InternalError("replay failed at record " + std::to_string(k) +
                           ": " + status.ToString());
    }
  }
  return Status::Ok();
}

LoggedClosure::LoggedClosure(DynamicClosure closure, std::ostream* log)
    : closure_(std::move(closure)), log_(log) {
  TREL_CHECK(log_ != nullptr);
}

StatusOr<NodeId> LoggedClosure::AddLeafUnder(NodeId parent) {
  auto node = closure_.AddLeafUnder(parent);
  if (node.ok()) {
    TREL_RETURN_IF_ERROR(AppendUpdateOp(
        *log_, UpdateOp{UpdateOp::Kind::kAddLeaf, parent, kNoNode, {}}));
  }
  return node;
}

Status LoggedClosure::AddArc(NodeId from, NodeId to) {
  TREL_RETURN_IF_ERROR(closure_.AddArc(from, to));
  return AppendUpdateOp(*log_,
                        UpdateOp{UpdateOp::Kind::kAddArc, from, to, {}});
}

StatusOr<NodeId> LoggedClosure::RefineAbove(
    NodeId child, const std::vector<NodeId>& parents) {
  // Copy up front: callers often pass graph().InNeighbors(child), which
  // the refinement itself extends (the new node becomes a predecessor).
  const std::vector<NodeId> parents_copy = parents;
  auto node = closure_.RefineAbove(child, parents_copy);
  if (node.ok()) {
    TREL_RETURN_IF_ERROR(
        AppendUpdateOp(*log_, UpdateOp{UpdateOp::Kind::kRefine, kNoNode,
                                       child, parents_copy}));
  }
  return node;
}

Status LoggedClosure::RemoveArc(NodeId from, NodeId to) {
  TREL_RETURN_IF_ERROR(closure_.RemoveArc(from, to));
  return AppendUpdateOp(*log_,
                        UpdateOp{UpdateOp::Kind::kRemoveArc, from, to, {}});
}

Status LoggedClosure::Reoptimize() {
  closure_.Reoptimize();
  return AppendUpdateOp(
      *log_, UpdateOp{UpdateOp::Kind::kReoptimize, kNoNode, kNoNode, {}});
}

StatusOr<DynamicClosure> LoggedClosure::Recover(std::istream* snapshot,
                                                std::istream& log,
                                                const ClosureOptions& options) {
  DynamicClosure closure(options);
  if (snapshot != nullptr) {
    TREL_ASSIGN_OR_RETURN(closure, DynamicClosure::Load(*snapshot));
  }
  TREL_ASSIGN_OR_RETURN(std::vector<UpdateOp> ops, ReadUpdateLog(log));
  TREL_RETURN_IF_ERROR(ReplayUpdateLog(closure, ops));
  return closure;
}

}  // namespace trel
