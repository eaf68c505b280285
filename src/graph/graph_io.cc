#include "graph/graph_io.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>

namespace trel {

namespace {

// True when nothing but whitespace, a CRLF line's '\r' included, is
// left on the line.
bool AtLineEnd(std::istream& is) {
  is >> std::ws;
  return is.eof();
}

}  // namespace

void WriteEdgeList(const Digraph& graph, std::ostream& os) {
  os << "# nodes " << graph.NumNodes() << "\n";
  for (const auto& [from, to] : graph.Arcs()) {
    os << from << " " << to << "\n";
  }
}

StatusOr<Digraph> ReadEdgeList(std::istream& is) {
  std::string line;
  Digraph graph;
  bool have_header = false;
  int line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream header(line.substr(1));
      std::string word;
      long long n = 0;
      if (header >> word >> n && word == "nodes") {
        if (!AtLineEnd(header)) {
          return InvalidArgumentError("trailing text after the node count "
                                      "at line " +
                                      std::to_string(line_number));
        }
        if (have_header) {
          return InvalidArgumentError("duplicate '# nodes' header");
        }
        if (n < 0 || n > (1LL << 30)) {
          return InvalidArgumentError("node count out of range");
        }
        graph = Digraph(static_cast<NodeId>(n));
        have_header = true;
      }
      continue;
    }
    std::istringstream arc_line(line);
    long long from = 0, to = 0;
    if (!(arc_line >> from >> to) || !AtLineEnd(arc_line)) {
      return InvalidArgumentError("malformed arc at line " +
                                  std::to_string(line_number));
    }
    if (!have_header) {
      return InvalidArgumentError("missing '# nodes' header");
    }
    // Range-check while the ids are still 64-bit: the NodeId cast would
    // wrap 2^32 + 1 to 1.
    const long long n = graph.NumNodes();
    if (from < 0 || from >= n || to < 0 || to >= n) {
      return InvalidArgumentError("node id out of range at line " +
                                  std::to_string(line_number));
    }
    Status s = graph.AddArc(static_cast<NodeId>(from),
                            static_cast<NodeId>(to));
    if (!s.ok()) {
      return InvalidArgumentError("bad arc at line " +
                                  std::to_string(line_number) + ": " +
                                  s.ToString());
    }
  }
  if (!have_header) {
    return InvalidArgumentError("missing '# nodes' header");
  }
  return graph;
}

std::string ToDot(const Digraph& graph,
                  const std::vector<NodeId>& tree_parent) {
  std::ostringstream os;
  os << "digraph G {\n";
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    os << "  n" << v << ";\n";
  }
  for (const auto& [from, to] : graph.Arcs()) {
    const bool is_tree_arc =
        !tree_parent.empty() &&
        static_cast<size_t>(to) < tree_parent.size() &&
        tree_parent[to] == from;
    os << "  n" << from << " -> n" << to;
    if (!tree_parent.empty() && !is_tree_arc) os << " [style=dashed]";
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace trel
