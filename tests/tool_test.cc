// End-to-end test of the trel_tool binary: generate -> stats -> compress
// -> query -> dot -> alpha -> chains, via std::system.  The binary path
// is injected by CMake as TREL_TOOL_PATH.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace trel {
namespace {

std::string ToolPath() { return TREL_TOOL_PATH; }

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Runs a command, returns its exit code, captures stdout into `output`.
// The capture file is per-process: ctest runs each ToolTest case as its
// own process, concurrently under -j, and a shared name races.
int RunTool(const std::string& command, std::string& output) {
  const std::string out_file =
      TempPath("tool_out." + std::to_string(getpid()) + ".txt");
  const int code = std::system((command + " > " + out_file + " 2>&1").c_str());
  std::ifstream in(out_file);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  output = buffer.str();
  return WEXITSTATUS(code);
}

TEST(ToolTest, GenerateStatsCompressQueryPipeline) {
  const std::string graph_path = TempPath("tool_graph.el");
  const std::string db_path = TempPath("tool_closure.db");
  std::string output;

  // RunTool redirects stdout itself, so capture the edge list from the
  // captured output and write it to the graph file.
  ASSERT_EQ(RunTool(ToolPath() + " generate random 200 2 7", output), 0);
  {
    std::ofstream out(graph_path);
    out << output;
  }

  ASSERT_EQ(RunTool(ToolPath() + " stats " + graph_path, output), 0);
  EXPECT_NE(output.find("nodes:                200"), std::string::npos)
      << output;
  EXPECT_NE(output.find("compressed intervals:"), std::string::npos);

  ASSERT_EQ(RunTool(ToolPath() + " compress " + graph_path + " " + db_path,
                output),
            0);
  EXPECT_NE(output.find("wrote"), std::string::npos);

  // Query exit code: 0 = reaches, 1 = does not.  Node 0 surely reaches
  // itself... use (0,0)? The tool treats u==v as reaches.
  ASSERT_EQ(RunTool(ToolPath() + " query " + db_path + " 0 0", output), 0);
  EXPECT_NE(output.find("reaches"), std::string::npos);
}

TEST(ToolTest, DotOutputContainsArcs) {
  const std::string graph_path = TempPath("tool_dot.el");
  std::string output;
  {
    std::ofstream out(graph_path);
    out << "# nodes 3\n0 1\n1 2\n";
  }
  ASSERT_EQ(RunTool(ToolPath() + " dot " + graph_path, output), 0);
  EXPECT_NE(output.find("digraph G {"), std::string::npos);
  EXPECT_NE(output.find("n0 -> n1"), std::string::npos);
}

TEST(ToolTest, AlphaOverCsv) {
  const std::string csv_path = TempPath("tool_parts.csv");
  {
    std::ofstream out(csv_path);
    out << "assembly,part\nplane,wing\nwing,spar\n";
  }
  std::string output;
  EXPECT_EQ(RunTool(ToolPath() + " alpha " + csv_path +
                    " assembly part plane spar",
                output),
            0);
  EXPECT_NE(output.find("plane reaches spar"), std::string::npos);
  EXPECT_EQ(RunTool(ToolPath() + " alpha " + csv_path +
                    " assembly part spar plane",
                output),
            1);

  EXPECT_EQ(RunTool(ToolPath() + " successors " + csv_path +
                    " assembly part plane",
                output),
            0);
  EXPECT_NE(output.find("wing"), std::string::npos);
  EXPECT_NE(output.find("spar"), std::string::npos);
}

// `trel_tool chains` predicts the tier QueryService::Load builds with: the
// chain-fast tier on a chain-structured graph, Alg1 on a random one.
TEST(ToolTest, ChainsPredictsTheLoadTier) {
  const std::pair<std::string, std::string> cases[] = {
      {"generate chained 16 125 4.0 7", "load would build:  chain_full"},
      {"generate random 500 3 11", "load would build:  optimal_full"}};
  for (const auto& [generate, want] : cases) {
    const std::string graph_path = TempPath("tool_chains.el");
    std::string output;
    ASSERT_EQ(RunTool(ToolPath() + " " + generate, output), 0) << generate;
    {
      std::ofstream out(graph_path);
      out << output;
    }
    ASSERT_EQ(RunTool(ToolPath() + " chains " + graph_path, output), 0)
        << generate;
    EXPECT_NE(output.find(want), std::string::npos) << generate << "\n"
                                                    << output;
  }
}

TEST(ToolTest, UsageAndErrorPaths) {
  std::string output;
  EXPECT_EQ(RunTool(ToolPath(), output), 2);
  EXPECT_NE(output.find("usage:"), std::string::npos);
  EXPECT_EQ(RunTool(ToolPath() + " stats /nonexistent/file.el", output), 1);
  EXPECT_EQ(RunTool(ToolPath() + " frobnicate", output), 2);
}

}  // namespace
}  // namespace trel
