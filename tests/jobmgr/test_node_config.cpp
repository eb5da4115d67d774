#include "jobmgr/node_config.hpp"

#include "jobmgr/workload.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "temp_path.hpp"

namespace femto::jm {
namespace {

const char* kSierraLike = R"(
# sierra-like partition
nodes       = 256
gpus        = 4
cpu_slots   = 40
memory_gb   = 256
block_nodes = 4
lump_nodes  = 64
jitter      = 0.03
bad_node_prob = 0.004
seed        = 11
)";

TEST(NodeConfig, ParsesAllKeys) {
  const auto d = parse_node_description(kSierraLike);
  EXPECT_EQ(d.cluster.n_nodes, 256);
  EXPECT_EQ(d.cluster.node.gpus, 4);
  EXPECT_EQ(d.cluster.node.cpu_slots, 40);
  EXPECT_DOUBLE_EQ(d.cluster.node.mem_gb, 256.0);
  EXPECT_EQ(d.cluster.nodes_per_block, 4);
  EXPECT_EQ(d.lump_nodes, 64);
  EXPECT_DOUBLE_EQ(d.cluster.perf_jitter_sigma, 0.03);
  EXPECT_DOUBLE_EQ(d.cluster.bad_node_prob, 0.004);
  EXPECT_EQ(d.cluster.seed, 11u);
  EXPECT_EQ(d.jm_options().lump_nodes, 64);
}

TEST(NodeConfig, DefaultsSurviveSparseInput) {
  const auto d = parse_node_description("nodes = 8\n");
  EXPECT_EQ(d.cluster.n_nodes, 8);
  EXPECT_EQ(d.cluster.node.gpus, 4);  // spec default
}

TEST(NodeConfig, CommentsAndBlanksIgnored) {
  const auto d = parse_node_description(
      "\n# full line comment\nnodes = 16   # trailing comment\n\n");
  EXPECT_EQ(d.cluster.n_nodes, 16);
}

TEST(NodeConfig, UnknownKeyRejectedWithLineNumber) {
  try {
    parse_node_description("nodes = 8\ngpu_count = 4\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("gpu_count"), std::string::npos);
  }
}

TEST(NodeConfig, MalformedLinesRejected) {
  EXPECT_THROW(parse_node_description("nodes 8\n"), std::invalid_argument);
  EXPECT_THROW(parse_node_description("nodes =\n"), std::invalid_argument);
  EXPECT_THROW(parse_node_description("nodes = eight\n"),
               std::invalid_argument);
}

TEST(NodeConfig, StructuralConstraints) {
  // Lumps must be block multiples (blocks subdivide lumps, paper S V).
  EXPECT_THROW(
      parse_node_description("nodes = 8\nblock_nodes = 4\nlump_nodes = 6\n"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_node_description("nodes = 8\nblock_nodes = 8\nlump_nodes = 4\n"),
      std::invalid_argument);
  EXPECT_THROW(parse_node_description("nodes = 0\n"), std::invalid_argument);
}

TEST(NodeConfig, FormatParsesBack) {
  const auto d = parse_node_description(kSierraLike);
  const auto d2 = parse_node_description(format_node_description(d));
  EXPECT_EQ(d2.cluster.n_nodes, d.cluster.n_nodes);
  EXPECT_EQ(d2.lump_nodes, d.lump_nodes);
  EXPECT_DOUBLE_EQ(d2.cluster.bad_node_prob, d.cluster.bad_node_prob);
}

TEST(NodeConfig, LoadFromFile) {
  const std::string path = test_temp_path("femto_nodes.cfg");
  {
    std::ofstream out(path);
    out << kSierraLike;
  }
  const auto d = load_node_description(path);
  EXPECT_EQ(d.cluster.n_nodes, 256);
  std::remove(path.c_str());
  EXPECT_THROW(load_node_description(test_temp_path("no_such_nodes.cfg")),
               std::invalid_argument);
}

TEST(NodeConfig, DrivesARealSchedulerRun) {
  // End to end: parse -> build cluster -> run mpi_jm.
  auto d = parse_node_description(kSierraLike);
  d.cluster.n_nodes = 32;  // keep the test quick
  cluster::Cluster cl(d.cluster);
  WorkloadOptions w;
  w.n_propagators = 16;
  const auto rep = run_mpi_jm(cl, make_campaign(w), d.jm_options());
  EXPECT_EQ(rep.tasks_completed, 32);
}

}  // namespace
}  // namespace femto::jm
