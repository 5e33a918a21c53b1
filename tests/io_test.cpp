// I/O tests: sink-set format, benchmark generators, exporters, CSV.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "cts/bounded_skew_dme.h"
#include "embed/placer.h"
#include "embed/wire_realizer.h"
#include "io/benchmarks.h"
#include "io/csv.h"
#include "io/dot_export.h"
#include "io/sink_set.h"
#include "io/svg_export.h"

namespace lubt {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(SinkSetTest, ParseBasic) {
  auto set = ParseSinkSet(
      "name demo\n"
      "source 1 2\n"
      "sink 3 4\n"
      "# comment line\n"
      "sink 5 6  # trailing comment\n");
  ASSERT_TRUE(set.ok()) << set.status();
  EXPECT_EQ(set->name, "demo");
  ASSERT_TRUE(set->source.has_value());
  EXPECT_EQ(*set->source, (Point{1, 2}));
  ASSERT_EQ(set->sinks.size(), 2u);
  EXPECT_EQ(set->sinks[1], (Point{5, 6}));
}

TEST(SinkSetTest, ParseErrors) {
  EXPECT_FALSE(ParseSinkSet("").ok());                      // no sinks
  EXPECT_FALSE(ParseSinkSet("sink 1\n").ok());              // missing coord
  EXPECT_FALSE(ParseSinkSet("bogus 1 2\n").ok());           // unknown record
  EXPECT_FALSE(ParseSinkSet("source 0 0\nsource 1 1\nsink 1 2\n").ok());
  EXPECT_FALSE(ParseSinkSet("name\nsink 1 2\n").ok());      // empty name
  // Trailing tokens are rejected with a line diagnostic, not ignored.
  ASSERT_TRUE(ParseSinkSet("sink 1 2 # comment\n").ok());
  for (const char* text :
       {"sink 1 2\nsink 1 2 3\n", "sink 1 2\nsink 1 2abc\n",
        "sink 1 2\nsource 0 0 0\n", "sink 1 2\nname a b\n"}) {
    const Result<SinkSet> parsed = ParseSinkSet(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_NE(parsed.status().message().find("line 2: trailing token"),
              std::string::npos)
        << parsed.status();
  }
}

TEST(SinkSetTest, RoundTripThroughText) {
  SinkSet set = RandomSinkSet(13, BBox({0, 0}, {100, 100}), 5, true);
  set.name = "roundtrip";
  auto again = ParseSinkSet(FormatSinkSet(set));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->name, set.name);
  ASSERT_EQ(again->sinks.size(), set.sinks.size());
  for (std::size_t i = 0; i < set.sinks.size(); ++i) {
    EXPECT_DOUBLE_EQ(again->sinks[i].x, set.sinks[i].x);
    EXPECT_DOUBLE_EQ(again->sinks[i].y, set.sinks[i].y);
  }
  EXPECT_EQ(*again->source, *set.source);
}

TEST(SinkSetTest, FileRoundTrip) {
  SinkSet set = RandomSinkSet(7, BBox({0, 0}, {10, 10}), 9, false);
  const std::string path = TempPath("lubt_sinkset_test.txt");
  ASSERT_TRUE(StoreSinkSet(set, path).ok());
  auto loaded = LoadSinkSet(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->sinks.size(), set.sinks.size());
  EXPECT_FALSE(loaded->source.has_value());
  std::remove(path.c_str());
}

TEST(SinkSetTest, LoadMissingFile) {
  auto missing = LoadSinkSet("/nonexistent/definitely/not/here.txt");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ECO edit streams renumber sinks through AddSink/RemoveSink and depend on
// exactly this contract: append never reorders, removal shifts larger
// indices down by one with relative order preserved.
TEST(SinkSetTest, AddSinkAppendsWithoutReordering) {
  SinkSet set;
  set.sinks = {{0, 0}, {1, 1}, {2, 2}};
  EXPECT_EQ(set.AddSink({9, 9}), 3);
  EXPECT_EQ(set.AddSink({8, 8}), 4);
  ASSERT_EQ(set.sinks.size(), 5u);
  EXPECT_EQ(set.sinks[0], (Point{0, 0}));
  EXPECT_EQ(set.sinks[2], (Point{2, 2}));
  EXPECT_EQ(set.sinks[3], (Point{9, 9}));
  EXPECT_EQ(set.sinks[4], (Point{8, 8}));
}

TEST(SinkSetTest, RemoveSinkShiftsLargerIndicesDown) {
  SinkSet set;
  set.sinks = {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}};
  ASSERT_TRUE(set.RemoveSink(1).ok());
  ASSERT_EQ(set.sinks.size(), 4u);
  // Former sinks 2..4 are now 1..3, in unchanged relative order.
  EXPECT_EQ(set.sinks[0], (Point{0, 0}));
  EXPECT_EQ(set.sinks[1], (Point{2, 2}));
  EXPECT_EQ(set.sinks[2], (Point{3, 3}));
  EXPECT_EQ(set.sinks[3], (Point{4, 4}));
  // Ends work too.
  ASSERT_TRUE(set.RemoveSink(3).ok());
  ASSERT_TRUE(set.RemoveSink(0).ok());
  ASSERT_EQ(set.sinks.size(), 2u);
  EXPECT_EQ(set.sinks[0], (Point{2, 2}));
  EXPECT_EQ(set.sinks[1], (Point{3, 3}));
}

TEST(SinkSetTest, RemoveSinkRejectsOutOfRange) {
  SinkSet set;
  set.sinks = {{0, 0}, {1, 1}};
  EXPECT_FALSE(set.RemoveSink(-1).ok());
  EXPECT_FALSE(set.RemoveSink(2).ok());
  EXPECT_EQ(set.sinks.size(), 2u);
}

// ---- Benchmarks -------------------------------------------------------------

TEST(BenchmarkTest, CardinalitiesMatchThePaper) {
  EXPECT_EQ(BenchmarkSinkCount(BenchmarkId::kPrim1), 269);
  EXPECT_EQ(BenchmarkSinkCount(BenchmarkId::kPrim2), 603);
  EXPECT_EQ(BenchmarkSinkCount(BenchmarkId::kR1), 267);
  EXPECT_EQ(BenchmarkSinkCount(BenchmarkId::kR3), 862);
  for (const BenchmarkId id : AllBenchmarks()) {
    const SinkSet set = MakeBenchmark(id);
    EXPECT_EQ(static_cast<int>(set.sinks.size()), BenchmarkSinkCount(id));
    EXPECT_TRUE(set.source.has_value());
    EXPECT_EQ(set.name, BenchmarkName(id));
  }
}

TEST(BenchmarkTest, GenerationIsDeterministic) {
  const SinkSet a = MakeBenchmark(BenchmarkId::kR1);
  const SinkSet b = MakeBenchmark(BenchmarkId::kR1);
  ASSERT_EQ(a.sinks.size(), b.sinks.size());
  for (std::size_t i = 0; i < a.sinks.size(); ++i) {
    EXPECT_EQ(a.sinks[i], b.sinks[i]);
  }
}

TEST(BenchmarkTest, ScaleSubsamples) {
  const SinkSet full = MakeBenchmark(BenchmarkId::kPrim2);
  const SinkSet half = MakeBenchmark(BenchmarkId::kPrim2, 0.5);
  EXPECT_EQ(half.sinks.size(), 302u);  // round(603 * 0.5)
  EXPECT_LT(half.sinks.size(), full.sinks.size());
  const SinkSet tiny = MakeBenchmark(BenchmarkId::kPrim2, 1e-9);
  EXPECT_EQ(tiny.sinks.size(), 4u);  // floor of 4 sinks
}

TEST(BenchmarkTest, ClusteredStaysInDie) {
  const BBox die({0, 0}, {100, 50});
  const SinkSet set = ClusteredSinkSet(200, 5, die, 31, true);
  EXPECT_EQ(set.sinks.size(), 200u);
  for (const Point& p : set.sinks) {
    EXPECT_TRUE(die.Contains(p, 1e-9));
  }
}

// ---- Exporters --------------------------------------------------------------

TEST(ExportTest, DotContainsAllNodesAndEdges) {
  SinkSet set = RandomSinkSet(6, BBox({0, 0}, {10, 10}), 3, true);
  auto tree = BuildBoundedSkewTree(set.sinks, set.source, 1e18);
  ASSERT_TRUE(tree.ok());
  const std::string dot = TopologyToDot(tree->topo, tree->edge_len);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  for (NodeId v = 0; v < tree->topo.NumNodes(); ++v) {
    EXPECT_NE(dot.find("n" + std::to_string(v)), std::string::npos);
  }
  // One arrow per edge.
  std::size_t arrows = 0;
  for (std::size_t pos = dot.find("->"); pos != std::string::npos;
       pos = dot.find("->", pos + 1)) {
    ++arrows;
  }
  EXPECT_EQ(arrows, static_cast<std::size_t>(tree->topo.NumEdges()));
}

TEST(ExportTest, SvgRendersEmbeddedTree) {
  SinkSet set = RandomSinkSet(10, BBox({0, 0}, {100, 100}), 4, true);
  auto tree = BuildBoundedSkewTree(set.sinks, set.source, 0.0);
  ASSERT_TRUE(tree.ok());
  auto embedding =
      EmbedTree(tree->topo, set.sinks, set.source, tree->edge_len);
  ASSERT_TRUE(embedding.ok()) << embedding.status();
  const auto wires =
      RealizeWires(tree->topo, tree->edge_len, embedding->location);
  const std::string svg =
      EmbeddingToSvg(tree->topo, set.sinks, embedding->location, wires);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One circle per sink.
  std::size_t circles = 0;
  for (std::size_t pos = svg.find("<circle"); pos != std::string::npos;
       pos = svg.find("<circle", pos + 1)) {
    ++circles;
  }
  EXPECT_EQ(circles, set.sinks.size());
}

TEST(ExportTest, CsvWriteAndReadBack) {
  TextTable table({"bench", "cost"});
  table.AddRow({"prim1", "123.45"});
  table.AddRow({"has,comma", "6\"7"});
  const std::string path = TempPath("lubt_csv_test.csv");
  ASSERT_TRUE(WriteCsv(table, path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "bench,cost");
  std::getline(in, line);
  EXPECT_EQ(line, "prim1,123.45");
  std::getline(in, line);
  EXPECT_EQ(line, "\"has,comma\",\"6\"\"7\"");
  std::remove(path.c_str());
}

TEST(ExportTest, TextTableAlignment) {
  TextTable table({"a", "long_header"});
  table.AddRow({"xxxxxx", "1"});
  table.AddSeparator();
  table.AddRow({"y", "2"});
  EXPECT_EQ(table.NumRows(), 2u);
  const std::string text = table.ToString();
  EXPECT_NE(text.find("long_header"), std::string::npos);
  EXPECT_NE(text.find("xxxxxx"), std::string::npos);
  // Separator rendered as a dashed line.
  EXPECT_NE(text.find("---"), std::string::npos);
}

}  // namespace
}  // namespace lubt
