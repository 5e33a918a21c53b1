// Tree solution persistence tests: round trips, malformed files, and
// end-to-end save -> load -> re-verify.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "cts/bounded_skew_dme.h"
#include "cts/metrics.h"
#include "ebf/solver.h"
#include "embed/placer.h"
#include "embed/verifier.h"
#include "io/benchmarks.h"
#include "io/tree_io.h"
#include "topo/validate.h"

namespace lubt {
namespace {

TreeSolution MakeSolvedTree(int m, std::uint64_t seed) {
  SinkSet set = RandomSinkSet(m, BBox({0, 0}, {300, 300}), seed, true);
  auto base = BuildBoundedSkewTree(set.sinks, set.source, 30.0);
  LUBT_ASSERT(base.ok());
  auto embedding =
      EmbedTree(base->topo, set.sinks, set.source, base->edge_len);
  LUBT_ASSERT(embedding.ok());
  TreeSolution out;
  out.topo = std::move(base->topo);
  out.edge_len = std::move(base->edge_len);
  out.locations = std::move(embedding->location);
  return out;
}

TEST(TreeIoTest, TextRoundTrip) {
  const TreeSolution tree = MakeSolvedTree(12, 5);
  auto again = ParseTreeSolution(FormatTreeSolution(tree));
  ASSERT_TRUE(again.ok()) << again.status();
  ASSERT_EQ(again->topo.NumNodes(), tree.topo.NumNodes());
  EXPECT_EQ(again->topo.Root(), tree.topo.Root());
  EXPECT_EQ(again->topo.Mode(), tree.topo.Mode());
  for (NodeId v = 0; v < tree.topo.NumNodes(); ++v) {
    EXPECT_EQ(again->topo.Parent(v), tree.topo.Parent(v));
    EXPECT_EQ(again->topo.Node(v).sink, tree.topo.Node(v).sink);
    EXPECT_DOUBLE_EQ(again->edge_len[static_cast<std::size_t>(v)],
                     tree.edge_len[static_cast<std::size_t>(v)]);
    EXPECT_EQ(again->locations[static_cast<std::size_t>(v)],
              tree.locations[static_cast<std::size_t>(v)]);
  }
  EXPECT_TRUE(ValidateTopology(again->topo, 12).ok());
}

TEST(TreeIoTest, FileRoundTripAndReVerify) {
  SinkSet set = RandomSinkSet(15, BBox({0, 0}, {300, 300}), 7, true);
  auto base = BuildBoundedSkewTree(set.sinks, set.source, 20.0);
  ASSERT_TRUE(base.ok());
  auto embedding =
      EmbedTree(base->topo, set.sinks, set.source, base->edge_len);
  ASSERT_TRUE(embedding.ok());

  TreeSolution tree;
  tree.topo = base->topo;
  tree.edge_len = base->edge_len;
  tree.locations = embedding->location;

  const std::string path =
      (std::filesystem::temp_directory_path() / "lubt_tree_test.tree")
          .string();
  ASSERT_TRUE(StoreTreeSolution(tree, path).ok());
  auto loaded = LoadTreeSolution(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::remove(path.c_str());

  // The re-loaded solution must pass full verification against the net.
  const auto report =
      VerifyEmbedding(loaded->topo, set.sinks, set.source, loaded->edge_len,
                      loaded->locations);
  EXPECT_TRUE(report.ok()) << report.status;
}

TEST(TreeIoTest, FreeSourceRoundTrip) {
  SinkSet set = RandomSinkSet(9, BBox({0, 0}, {100, 100}), 8, false);
  auto base = BuildBoundedSkewTree(set.sinks, std::nullopt, 1e18);
  ASSERT_TRUE(base.ok());
  TreeSolution tree;
  tree.topo = base->topo;
  tree.edge_len = base->edge_len;
  auto again = ParseTreeSolution(FormatTreeSolution(tree));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->topo.Mode(), RootMode::kFreeSource);
  EXPECT_TRUE(again->locations.empty());
}

TEST(TreeIoTest, MalformedFilesRejected) {
  // Missing header.
  EXPECT_FALSE(ParseTreeSolution("node 0 -1 -1 0\nroot 0\n").ok());
  // Unknown record.
  EXPECT_FALSE(ParseTreeSolution("tree v1\nbogus 1\n").ok());
  // Wrong version.
  EXPECT_FALSE(ParseTreeSolution("tree v2\n").ok());
  // Leaf without sink.
  EXPECT_FALSE(
      ParseTreeSolution("tree v1\nnode 0 -1 -1 -1\nroot 0\n").ok());
  // Parent before child.
  EXPECT_FALSE(ParseTreeSolution("tree v1\nmode free\n"
                                 "node 0 1 2 -1\nnode 1 -1 -1 0\n"
                                 "node 2 -1 -1 1\nroot 0\n")
                   .ok());
  // Child claimed twice.
  EXPECT_FALSE(ParseTreeSolution("tree v1\nmode free\n"
                                 "node 0 -1 -1 0\nnode 1 -1 -1 1\n"
                                 "node 2 0 0 -1\nroot 2\n")
                   .ok());
  // Sparse ids.
  EXPECT_FALSE(ParseTreeSolution("tree v1\nnode 0 -1 -1 0\n"
                                 "node 5 -1 -1 1\nroot 0\n")
                   .ok());
  // Negative edge length.
  EXPECT_FALSE(ParseTreeSolution("tree v1\nmode free\n"
                                 "node 0 -1 -1 0\nnode 1 -1 -1 1\n"
                                 "node 2 0 1 -1\nroot 2\nedge 0 -3\n")
                   .ok());
  // Fixed-source root that is not unary.
  EXPECT_FALSE(ParseTreeSolution("tree v1\nmode fixed\n"
                                 "node 0 -1 -1 0\nnode 1 -1 -1 1\n"
                                 "node 2 0 1 -1\nroot 2\n")
                   .ok());
  // Trailing tokens on any record, with a line diagnostic.
  const std::string body =
      "mode free\nnode 0 -1 -1 0\nnode 1 -1 -1 1\nnode 2 0 1 -1\n";
  ASSERT_TRUE(ParseTreeSolution("tree v1\n" + body + "root 2\n").ok());
  for (const std::string& text :
       {"tree v1 extra\n" + body + "root 2\n",
        "tree v1\n" + body + "root 2 7\n",
        "tree v1\n" + body + "root 2\nedge 0 1.5 x\n",
        "tree v1\nmode free free\n" + body.substr(10) + "root 2\n"}) {
    const Result<TreeSolution> parsed = ParseTreeSolution(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_NE(parsed.status().message().find("trailing token"),
              std::string::npos)
        << parsed.status();
  }
  // Missing file.
  EXPECT_FALSE(LoadTreeSolution("/no/such/file.tree").ok());
}

TEST(TreeIoTest, CommentsAndBlankLinesIgnored) {
  auto tree = ParseTreeSolution(
      "# a solved two-pin net\n"
      "tree v1\n"
      "mode free\n"
      "\n"
      "node 0 -1 -1 0   # sink 0\n"
      "node 1 -1 -1 1\n"
      "node 2 0 1 -1\n"
      "root 2\n"
      "edge 0 1.5\n"
      "edge 1 2.5\n");
  ASSERT_TRUE(tree.ok()) << tree.status();
  EXPECT_EQ(tree->topo.NumNodes(), 3);
  EXPECT_DOUBLE_EQ(tree->edge_len[0], 1.5);
  EXPECT_DOUBLE_EQ(tree->edge_len[1], 2.5);
}

}  // namespace
}  // namespace lubt
