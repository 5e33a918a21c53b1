// Separation-oracle agreement: the octant-screened branch-and-bound oracle
// must return the *bitwise identical* row sequence (supports, coefficients,
// bounds, order) as the all-pairs brute-force reference, at any worker
// count, on every topology shape — and the grid-accelerated NN-merge must
// reproduce the scan backend's topology node for node. These gates are what
// lets the fast paths be the defaults (DESIGN.md section 12).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "cts/metrics.h"
#include "ebf/formulation.h"
#include "ebf/solver.h"
#include "geom/bbox.h"
#include "io/benchmarks.h"
#include "topo/nn_merge.h"
#include "util/rng.h"

namespace lubt {
namespace {

SinkSet MakeInstance(int num_sinks, std::uint64_t seed, bool with_source,
                     bool clustered, int duplicates) {
  const BBox die(Point{0.0, 0.0}, Point{1000.0, 1000.0});
  SinkSet set = clustered
                    ? ClusteredSinkSet(num_sinks, 5, die, seed, with_source)
                    : RandomSinkSet(num_sinks, die, seed, with_source);
  // Duplicate sink locations exercise zero-distance pairs (rhs 0 rows) and
  // octant-aggregate ties.
  for (int d = 0; d < duplicates && d < num_sinks; ++d) {
    set.sinks.push_back(set.sinks[static_cast<std::size_t>(d)]);
  }
  return set;
}

struct Instance {
  SinkSet set;
  Topology topo;
  EbfProblem problem;
};

Instance BuildInstance(int num_sinks, std::uint64_t seed, bool with_source,
                       bool clustered = false, int duplicates = 0) {
  Instance inst;
  inst.set = MakeInstance(num_sinks, seed, with_source, clustered, duplicates);
  inst.topo = NnMergeTopology(inst.set.sinks, inst.set.source);
  const double radius = Radius(inst.set.sinks, inst.set.source);
  inst.problem.topo = &inst.topo;
  inst.problem.sinks = inst.set.sinks;
  inst.problem.source = inst.set.source;
  inst.problem.bounds.assign(inst.set.sinks.size(),
                             DelayBounds{0.9 * radius, 1.2 * radius});
  return inst;
}

std::vector<double> RandomPoint(int cols, Rng& rng) {
  std::vector<double> x(static_cast<std::size_t>(cols));
  for (double& v : x) v = rng.Uniform(0.0, 1.5);
  return x;
}

void ExpectSameRows(const std::vector<SparseRow>& a,
                    const std::vector<SparseRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].index, b[r].index) << "row " << r;
    EXPECT_EQ(a[r].value, b[r].value) << "row " << r;
    EXPECT_EQ(a[r].lo, b[r].lo) << "row " << r;
    EXPECT_EQ(a[r].hi, b[r].hi) << "row " << r;
  }
}

// Query both modes on the same iterate and demand bitwise-equal sequences.
void CrossCheck(const EbfFormulation& f, std::span<const double> x,
                double tol, int max_rows) {
  const SeparationOptions octant{SeparationMode::kOctantSoa, 1};
  const SeparationOptions brute{SeparationMode::kBruteForce, 1};
  const auto fast = f.FindViolatedSteinerRows(x, tol, max_rows, octant);
  const auto ref = f.FindViolatedSteinerRows(x, tol, max_rows, brute);
  ExpectSameRows(fast, ref);
}

class OracleAgreementTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, int>> {};

TEST_P(OracleAgreementTest, OctantMatchesBruteForceBitwise) {
  const auto [with_source, clustered, duplicates] = GetParam();
  Rng rng(0x5eed5eedULL + static_cast<std::uint64_t>(duplicates));
  for (const int n : {5, 23, 60}) {
    const Instance inst = BuildInstance(n, 101 + static_cast<std::uint64_t>(n),
                                        with_source, clustered, duplicates);
    auto built = EbfFormulation::Build(inst.problem, SteinerRowPolicy::kSeed);
    ASSERT_TRUE(built.ok()) << built.status().message();
    const int cols = built->Model().NumCols();
    const std::vector<double> zeros(static_cast<std::size_t>(cols), 0.0);
    for (int rep = 0; rep < 4; ++rep) {
      const std::vector<double> x = RandomPoint(cols, rng);
      for (const double tol : {0.0, 1e-7, 0.2}) {
        for (const int max_rows : {0, 1, 3, 1 << 20}) {
          CrossCheck(*built, x, tol, max_rows);
        }
      }
      CrossCheck(*built, zeros, 1e-7, 1 << 20);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OracleAgreementTest,
    ::testing::Values(std::make_tuple(true, false, 0),
                      std::make_tuple(false, false, 0),
                      std::make_tuple(true, true, 0),
                      std::make_tuple(false, true, 3),
                      std::make_tuple(true, false, 4)));

// The separation test is strict `violation > tol`: a tol equal to an exact
// violation amount must drop that pair in both modes identically.
TEST(OracleAgreementTest, TolBoundaryIsStrictInBothModes) {
  const Instance inst = BuildInstance(31, 77, true);
  auto built = EbfFormulation::Build(inst.problem, SteinerRowPolicy::kSeed);
  ASSERT_TRUE(built.ok());
  // At x = 0 every positive-distance pair violates by exactly its rhs.
  const std::vector<double> x(
      static_cast<std::size_t>(built->Model().NumCols()), 0.0);
  auto rows = built->FindViolatedSteinerRows(x, 0.0, 1 << 20, {});
  ASSERT_FALSE(rows.empty());
  if (rows.size() > 8) rows.resize(8);
  // Reconstruct each returned row's violation amount and re-query at exactly
  // that tolerance; the row itself must disappear (strict >) and the two
  // modes must still agree bitwise.
  for (const SparseRow& row : rows) {
    const double amount = row.lo - row.Activity(x);
    ASSERT_GT(amount, 0.0);
    CrossCheck(*built, x, amount, 1 << 20);
    const auto at_boundary =
        built->FindViolatedSteinerRows(x, amount, 1 << 20, {});
    for (const SparseRow& kept : at_boundary) {
      const bool same = kept.index == row.index && kept.lo == row.lo;
      EXPECT_FALSE(same) << "boundary row should be excluded";
    }
  }
}

TEST(OracleAgreementTest, WorkerCountDoesNotChangeResults) {
  const Instance inst = BuildInstance(80, 9001, true, /*clustered=*/true);
  auto built = EbfFormulation::Build(inst.problem, SteinerRowPolicy::kSeed);
  ASSERT_TRUE(built.ok());
  Rng rng(7);
  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<double> x = RandomPoint(built->Model().NumCols(), rng);
    const auto serial = built->FindViolatedSteinerRows(
        x, 1e-7, 1 << 20, {SeparationMode::kOctantSoa, 1});
    const auto parallel = built->FindViolatedSteinerRows(
        x, 1e-7, 1 << 20, {SeparationMode::kOctantSoa, 4});
    ExpectSameRows(serial, parallel);
  }
}

// Full lazy solves through either oracle must land on identical edge
// lengths, round counts, and objective — the oracle swap is invisible to
// the LP.
TEST(OracleAgreementTest, LazySolveIsOracleInvariant) {
  for (const bool with_source : {true, false}) {
    const Instance inst =
        BuildInstance(60, 1234, with_source, /*clustered=*/false);
    EbfSolveOptions octant;
    octant.separation = SeparationMode::kOctantSoa;
    EbfSolveOptions brute;
    brute.separation = SeparationMode::kBruteForce;
    const EbfSolveResult a = SolveEbf(inst.problem, octant);
    const EbfSolveResult b = SolveEbf(inst.problem, brute);
    ASSERT_TRUE(a.ok()) << a.status.message();
    ASSERT_TRUE(b.ok()) << b.status.message();
    EXPECT_EQ(a.lazy_rounds, b.lazy_rounds);
    EXPECT_EQ(a.objective, b.objective);
    ASSERT_EQ(a.edge_len.size(), b.edge_len.size());
    for (std::size_t i = 0; i < a.edge_len.size(); ++i) {
      EXPECT_EQ(a.edge_len[i], b.edge_len[i]) << "edge " << i;
    }
  }
}

void ExpectSameTopology(const Topology& a, const Topology& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  EXPECT_EQ(a.Root(), b.Root());
  EXPECT_EQ(a.Mode(), b.Mode());
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    const TopoNode& na = a.Node(v);
    const TopoNode& nb = b.Node(v);
    EXPECT_EQ(na.parent, nb.parent) << "node " << v;
    EXPECT_EQ(na.left, nb.left) << "node " << v;
    EXPECT_EQ(na.right, nb.right) << "node " << v;
    EXPECT_EQ(na.sink, nb.sink) << "node " << v;
  }
}

TEST(NnMergeAccelTest, GridMatchesScanNodeForNode) {
  for (const bool with_source : {true, false}) {
    for (const bool clustered : {false, true}) {
      for (const int n : {1, 2, 3, 17, 64, 150}) {
        const SinkSet set = MakeInstance(
            n, 0xabcdef12u + static_cast<std::uint64_t>(n), with_source,
            clustered, /*duplicates=*/n >= 17 ? 5 : 0);
        const Topology grid =
            NnMergeTopology(set.sinks, set.source, NnMergeAccel::kGridSoa);
        const Topology scan =
            NnMergeTopology(set.sinks, set.source, NnMergeAccel::kScan);
        ExpectSameTopology(grid, scan);
      }
    }
  }
}

TEST(NnMergeAccelTest, GridHandlesDegenerateGeometry) {
  // All sinks at one point (zero span), and all on one diagonal line.
  std::vector<Point> same(12, Point{500.0, 500.0});
  std::vector<Point> line;
  for (int i = 0; i < 20; ++i) {
    line.push_back(Point{50.0 * i, 50.0 * i});
  }
  for (const auto& sinks : {same, line}) {
    for (const bool with_source : {true, false}) {
      const std::optional<Point> src =
          with_source ? std::optional<Point>(Point{0.0, 0.0}) : std::nullopt;
      const Topology grid =
          NnMergeTopology(sinks, src, NnMergeAccel::kGridSoa);
      const Topology scan = NnMergeTopology(sinks, src, NnMergeAccel::kScan);
      ExpectSameTopology(grid, scan);
    }
  }
}

}  // namespace
}  // namespace lubt
