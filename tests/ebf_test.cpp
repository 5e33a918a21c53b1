// EBF core tests: formulation structure (the Section 4.5 worked example),
// row policies and reduction, solver strategies, zero-skew fast path,
// weighted objectives, infeasibility detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "cts/bounded_skew_dme.h"
#include "cts/linear_delay.h"
#include "ebf/formulation.h"
#include "ebf/reducer.h"
#include "ebf/solver.h"
#include "ebf/zero_skew_direct.h"
#include "io/benchmarks.h"
#include "topo/nn_merge.h"
#include "util/rng.h"

namespace lubt {
namespace {

// A 5-sink instance shaped like the paper's Section 4.5 example:
// free-source root with children A = (s1, s5) and B = (s2, (s3, s4)).
struct Example45 {
  std::vector<Point> sinks;
  Topology topo;
  // Node ids (edges are identified with their child node, paper-style).
  NodeId n1, n2, n3, n4, n5, n6, n7, n8;

  Example45() {
    sinks = {{0.0, 0.0}, {10.0, 0.0}, {9.0, 6.0}, {11.0, 6.0}, {2.0, 3.0}};
    n1 = topo.AddSinkNode(0);
    n2 = topo.AddSinkNode(1);
    n3 = topo.AddSinkNode(2);
    n4 = topo.AddSinkNode(3);
    n5 = topo.AddSinkNode(4);
    n7 = topo.AddInternalNode(n3, n4);   // paper's s7
    n6 = topo.AddInternalNode(n1, n5);   // paper's s6
    n8 = topo.AddInternalNode(n2, n7);   // paper's s8
    const NodeId root = topo.AddInternalNode(n6, n8);  // paper's s0
    topo.SetRoot(root, RootMode::kFreeSource);
  }

  EbfProblem Problem(double lo, double hi) const {
    EbfProblem p;
    p.topo = &topo;
    p.sinks = sinks;
    p.bounds.assign(sinks.size(), DelayBounds{lo, hi});
    return p;
  }
};

TEST(FormulationTest, Example45RowStructure) {
  Example45 ex;
  const double R = Radius(ex.sinks, std::nullopt);
  // Loose bounds so nothing is folded or dropped.
  EbfProblem prob = ex.Problem(0.4 * R, 3.0 * R);
  auto built = EbfFormulation::Build(prob, SteinerRowPolicy::kAll);
  ASSERT_TRUE(built.ok()) << built.status();
  const LpModel& model = built->Model();
  // C(5,2) = 10 Steiner rows + 5 delay rows.
  EXPECT_EQ(built->NumSteinerRows(), 10);
  EXPECT_EQ(model.NumRows(), 15);
  EXPECT_EQ(model.NumCols(), 8);  // e1..e8
  EXPECT_EQ(built->NumPotentialSteinerRows(), 10);

  // Check one Steiner row in detail: path(s1, s3) = {e1, e6, e8, e7, e3}.
  const EdgeIndexer& idx = built->Indexer();
  std::set<std::int32_t> expect{idx.ColOf(ex.n1), idx.ColOf(ex.n6),
                                idx.ColOf(ex.n8), idx.ColOf(ex.n7),
                                idx.ColOf(ex.n3)};
  const double want_rhs =
      ManhattanDist(ex.sinks[0], ex.sinks[2]) / built->Scale();
  bool found = false;
  for (const SparseRow& row : model.Rows()) {
    std::set<std::int32_t> support(row.index.begin(), row.index.end());
    if (support == expect) {
      found = true;
      EXPECT_NEAR(row.lo, want_rhs, 1e-12);
      EXPECT_EQ(row.hi, kLpInf);
    }
  }
  EXPECT_TRUE(found) << "missing Steiner row for (s1, s3)";

  // Check one delay row: path(s0, s3) = {e3, e7, e8} with ranged bounds.
  std::set<std::int32_t> delay_support{idx.ColOf(ex.n3), idx.ColOf(ex.n7),
                                       idx.ColOf(ex.n8)};
  found = false;
  for (const SparseRow& row : model.Rows()) {
    std::set<std::int32_t> support(row.index.begin(), row.index.end());
    if (support == delay_support && std::isfinite(row.hi)) {
      found = true;
      EXPECT_NEAR(row.lo, 0.4 * R / built->Scale(), 1e-12);
      EXPECT_NEAR(row.hi, 3.0 * R / built->Scale(), 1e-12);
    }
  }
  EXPECT_TRUE(found) << "missing delay row for s3";
}

TEST(FormulationTest, Example45SolvesAndMeetsBounds) {
  Example45 ex;
  const double R = Radius(ex.sinks, std::nullopt);
  EbfProblem prob = ex.Problem(0.8 * R, 1.2 * R);
  for (const auto strategy :
       {EbfStrategy::kFullRows, EbfStrategy::kReducedRows, EbfStrategy::kLazy}) {
    EbfSolveOptions opt;
    opt.strategy = strategy;
    opt.lp.engine = LpEngine::kSimplex;
    const EbfSolveResult r = SolveEbf(prob, opt);
    ASSERT_TRUE(r.ok()) << EbfStrategyName(strategy) << ": " << r.status;
    const auto delays = LinearSinkDelays(ex.topo, r.edge_len);
    for (const double d : delays) {
      EXPECT_GE(d, 0.8 * R - 1e-6);
      EXPECT_LE(d, 1.2 * R + 1e-6);
    }
  }
}

TEST(FormulationTest, StrategiesAgreeOnOptimalCost) {
  SinkSet set = RandomSinkSet(18, BBox({0, 0}, {100, 100}), 3, true);
  const double R = Radius(set.sinks, set.source);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  prob.bounds.assign(set.sinks.size(), DelayBounds{1.0 * R, 1.4 * R});

  double costs[3];
  int i = 0;
  for (const auto strategy :
       {EbfStrategy::kFullRows, EbfStrategy::kReducedRows, EbfStrategy::kLazy}) {
    EbfSolveOptions opt;
    opt.strategy = strategy;
    opt.lp.engine = LpEngine::kSimplex;
    const EbfSolveResult r = SolveEbf(prob, opt);
    ASSERT_TRUE(r.ok()) << r.status;
    costs[i++] = r.cost;
  }
  EXPECT_NEAR(costs[0], costs[1], 1e-5 * (1.0 + costs[0]));
  EXPECT_NEAR(costs[0], costs[2], 1e-5 * (1.0 + costs[0]));
}

TEST(FormulationTest, EnginesAgreeOnOptimalCost) {
  SinkSet set = RandomSinkSet(15, BBox({0, 0}, {100, 100}), 5, true);
  const double R = Radius(set.sinks, set.source);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  prob.bounds.assign(set.sinks.size(), DelayBounds{0.9 * R, 1.3 * R});

  EbfSolveOptions simplex_opt;
  simplex_opt.strategy = EbfStrategy::kFullRows;
  simplex_opt.lp.engine = LpEngine::kSimplex;
  EbfSolveOptions ipm_opt = simplex_opt;
  ipm_opt.lp.engine = LpEngine::kInteriorPoint;
  const EbfSolveResult a = SolveEbf(prob, simplex_opt);
  const EbfSolveResult b = SolveEbf(prob, ipm_opt);
  ASSERT_TRUE(a.ok()) << a.status;
  ASSERT_TRUE(b.ok()) << b.status;
  EXPECT_NEAR(a.cost, b.cost, 1e-4 * (1.0 + a.cost));
}

TEST(FormulationTest, ValidationCatchesMalformedProblems) {
  Example45 ex;
  const double R = Radius(ex.sinks, std::nullopt);

  EbfProblem no_topo = ex.Problem(0.0, 2.0 * R);
  no_topo.topo = nullptr;
  EXPECT_FALSE(ValidateEbfProblem(no_topo).ok());

  EbfProblem wrong_bounds = ex.Problem(0.0, 2.0 * R);
  wrong_bounds.bounds.pop_back();
  EXPECT_FALSE(ValidateEbfProblem(wrong_bounds).ok());

  EbfProblem neg_lo = ex.Problem(0.0, 2.0 * R);
  neg_lo.bounds[0].lo = -1.0;
  EXPECT_FALSE(ValidateEbfProblem(neg_lo).ok());

  EbfProblem crossed = ex.Problem(0.0, 2.0 * R);
  crossed.bounds[0] = {5.0, 1.0};
  EXPECT_FALSE(ValidateEbfProblem(crossed).ok());

  EbfProblem extra_source = ex.Problem(0.0, 2.0 * R);
  extra_source.source = Point{0, 0};  // free-source topology
  EXPECT_FALSE(ValidateEbfProblem(extra_source).ok());

  EbfProblem bad_weights = ex.Problem(0.0, 2.0 * R);
  bad_weights.edge_weight = {1.0, 2.0};  // wrong arity
  EXPECT_FALSE(ValidateEbfProblem(bad_weights).ok());
}

TEST(FormulationTest, InfeasibleBoundsDetected) {
  // Upper bound below the source-sink distance violates Equation 3.
  SinkSet set = RandomSinkSet(8, BBox({0, 0}, {100, 100}), 9, true);
  const double R = Radius(set.sinks, set.source);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  prob.bounds.assign(set.sinks.size(), DelayBounds{0.0, 0.3 * R});
  EbfSolveOptions opt;
  opt.lp.engine = LpEngine::kSimplex;
  opt.strategy = EbfStrategy::kFullRows;
  const EbfSolveResult r = SolveEbf(prob, opt);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInfeasible) << r.status;
}

TEST(FormulationTest, Lemma31AnyBoundsFeasible) {
  // With every sink a leaf, any bounds satisfying Equation 3 are feasible.
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    SinkSet set = RandomSinkSet(10, BBox({0, 0}, {100, 100}),
                                100 + trial, true);
    Topology topo = NnMergeTopology(set.sinks, set.source);
    EbfProblem prob;
    prob.topo = &topo;
    prob.sinks = set.sinks;
    prob.source = set.source;
    for (const Point& s : set.sinks) {
      const double dist = ManhattanDist(*set.source, s);
      const double lo = rng.Uniform(0.0, 3.0 * dist);
      const double hi = std::max(lo, dist) + rng.Uniform(0.0, 2.0 * dist);
      prob.bounds.push_back({lo, hi});
    }
    EbfSolveOptions opt;
    opt.lp.engine = LpEngine::kSimplex;
    opt.strategy = EbfStrategy::kFullRows;
    const EbfSolveResult r = SolveEbf(prob, opt);
    EXPECT_TRUE(r.ok()) << "trial " << trial << ": " << r.status;
  }
}

TEST(FormulationTest, WeightedObjectiveSteersSolution) {
  // Two sinks, free source between them; heavily penalize one edge and the
  // optimizer must route the slack through the other.
  std::vector<Point> sinks{{0.0, 0.0}, {10.0, 0.0}};
  Topology topo;
  const NodeId a = topo.AddSinkNode(0);
  const NodeId b = topo.AddSinkNode(1);
  const NodeId root = topo.AddInternalNode(a, b);
  topo.SetRoot(root, RootMode::kFreeSource);

  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = sinks;
  // Force delay(s_i) in [6, 20]: lower bound forces elongation beyond the
  // 5+5 split.
  prob.bounds.assign(2, DelayBounds{6.0, 20.0});
  prob.edge_weight = {1.0, 10.0, 0.0};  // edge b is 10x as expensive

  EbfSolveOptions opt;
  opt.lp.engine = LpEngine::kSimplex;
  opt.strategy = EbfStrategy::kFullRows;
  const EbfSolveResult r = SolveEbf(prob, opt);
  ASSERT_TRUE(r.ok()) << r.status;
  // Steiner: e_a + e_b >= 10; delays: e_a, e_b in [6, 20]. Cheapest with
  // weight (1, 10): e_a = 6 is forced anyway; e_b = 6 forced by its lower
  // bound. Check the LP hit exactly that corner.
  EXPECT_NEAR(r.edge_len[static_cast<std::size_t>(a)], 6.0, 1e-6);
  EXPECT_NEAR(r.edge_len[static_cast<std::size_t>(b)], 6.0, 1e-6);
  EXPECT_NEAR(r.objective, 6.0 + 60.0, 1e-5);
}

TEST(FormulationTest, ZeroLengthEdgesPinned) {
  Example45 ex;
  const double R = Radius(ex.sinks, std::nullopt);
  EbfProblem prob = ex.Problem(0.0, 3.0 * R);
  prob.zero_length_edges = {ex.n7};
  EbfSolveOptions opt;
  opt.lp.engine = LpEngine::kSimplex;
  opt.strategy = EbfStrategy::kFullRows;
  const EbfSolveResult r = SolveEbf(prob, opt);
  ASSERT_TRUE(r.ok()) << r.status;
  EXPECT_NEAR(r.edge_len[static_cast<std::size_t>(ex.n7)], 0.0, 1e-9);
}

// ---- Constraint reduction (Section 4.6) -----------------------------------

TEST(ReducerTest, ImplicationPredicate) {
  // l_i + l_j - 2*min_u >= dist  => implied.
  EXPECT_TRUE(SteinerRowImplied(10.0, 10.0, 5.0, 9.0));
  EXPECT_FALSE(SteinerRowImplied(10.0, 10.0, 5.0, 11.0));
  EXPECT_FALSE(SteinerRowImplied(1.0, 1.0, kLpInf, 0.5));
}

TEST(ReducerTest, TightBoundsRemoveManyRows) {
  // The delay-implication filter fires for *heterogeneous* per-sink bounds
  // (the pipelined-design use case): sinks near the source carry small
  // windows, so min-upper below an LCA is small while far pairs carry high
  // lower bounds.
  SinkSet set = RandomSinkSet(40, BBox({0, 0}, {1000, 1000}), 17, true);
  const double R = Radius(set.sinks, set.source);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  for (const Point& s : set.sinks) {
    const double c = std::max(ManhattanDist(*set.source, s), 0.2 * R);
    prob.bounds.push_back({0.9 * c, c});
  }
  auto report = AnalyzeReduction(prob);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->potential_steiner_rows, 40LL * 39 / 2);
  EXPECT_LT(report->reduced_rows, report->all_rows);
  EXPECT_EQ(report->seed_rows, 39);  // one per binary internal node
  // Reduction must not change the optimum (solved on a smaller instance
  // above via StrategiesAgreeOnOptimalCost; here just sanity the counts).
  EXPECT_GT(report->all_rows, 0);
}

TEST(ReducerTest, LooseBoundsKeepAllRows) {
  SinkSet set = RandomSinkSet(15, BBox({0, 0}, {100, 100}), 19, true);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  prob.bounds.assign(set.sinks.size(), DelayBounds{0.0, kLpInf});
  auto report = AnalyzeReduction(prob);
  ASSERT_TRUE(report.ok());
  // No delay upper bounds -> nothing is implied.
  EXPECT_EQ(report->reduced_rows, report->all_rows);
}

// ---- Zero-skew direct (Section 4.6 fast path) ------------------------------

TEST(ZeroSkewTest, DirectMatchesLpOnSmallInstances) {
  for (const int seed : {1, 2, 3, 4, 5}) {
    SinkSet set = RandomSinkSet(12, BBox({0, 0}, {100, 100}),
                                static_cast<std::uint64_t>(seed), true);
    Topology topo = NnMergeTopology(set.sinks, set.source);
    auto direct = SolveZeroSkewDirect(topo, set.sinks, set.source);
    ASSERT_TRUE(direct.ok()) << direct.status();

    // LP with l = u = the achieved delay must reproduce the same cost
    // (both are optimal for the same constraints).
    EbfProblem prob;
    prob.topo = &topo;
    prob.sinks = set.sinks;
    prob.source = set.source;
    prob.bounds.assign(set.sinks.size(),
                       DelayBounds{direct->delay, direct->delay});
    EbfSolveOptions opt;
    opt.lp.engine = LpEngine::kSimplex;
    opt.strategy = EbfStrategy::kFullRows;
    opt.use_zero_skew_fast_path = false;  // force the LP path
    const EbfSolveResult lp = SolveEbf(prob, opt);
    ASSERT_TRUE(lp.ok()) << lp.status;
    EXPECT_NEAR(lp.cost, direct->cost, 1e-5 * (1.0 + direct->cost))
        << "seed " << seed;

    // And the fast path must agree with both.
    opt.use_zero_skew_fast_path = true;
    const EbfSolveResult fast = SolveEbf(prob, opt);
    ASSERT_TRUE(fast.ok()) << fast.status;
    EXPECT_NEAR(fast.cost, direct->cost, 1e-9 * (1.0 + direct->cost));
  }
}

TEST(ZeroSkewTest, AllDelaysEqual) {
  SinkSet set = RandomSinkSet(25, BBox({0, 0}, {500, 500}), 33, true);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  auto direct = SolveZeroSkewDirect(topo, set.sinks, set.source);
  ASSERT_TRUE(direct.ok());
  const auto delays = LinearSinkDelays(topo, direct->edge_len);
  for (const double d : delays) {
    EXPECT_NEAR(d, direct->delay, 1e-6 * (1.0 + direct->delay));
  }
  // Boese-Kahng: the zero-skew delay is at least the radius (up to the tiny
  // merge-region slack the construction uses against rounding).
  const double R = Radius(set.sinks, set.source);
  EXPECT_GE(direct->delay, R - 1e-6 * (1.0 + R));
}

TEST(ZeroSkewTest, FastPathElongatesForLargerCommonDelay) {
  SinkSet set = RandomSinkSet(10, BBox({0, 0}, {100, 100}), 34, true);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  auto direct = SolveZeroSkewDirect(topo, set.sinks, set.source);
  ASSERT_TRUE(direct.ok());
  const double target = direct->delay * 1.25;

  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  prob.bounds.assign(set.sinks.size(), DelayBounds{target, target});
  const EbfSolveResult r = SolveEbf(prob);
  ASSERT_TRUE(r.ok()) << r.status;
  const auto delays = LinearSinkDelays(topo, r.edge_len);
  for (const double d : delays) {
    EXPECT_NEAR(d, target, 1e-6 * (1.0 + target));
  }
  EXPECT_NEAR(r.cost, direct->cost + (target - direct->delay),
              1e-6 * (1.0 + r.cost));
}

TEST(ZeroSkewTest, FastPathDetectsUnreachableCommonDelay) {
  SinkSet set = RandomSinkSet(10, BBox({0, 0}, {100, 100}), 35, true);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  auto direct = SolveZeroSkewDirect(topo, set.sinks, set.source);
  ASSERT_TRUE(direct.ok());
  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  const double target = direct->delay * 0.5;
  prob.bounds.assign(set.sinks.size(), DelayBounds{target, target});
  const EbfSolveResult r = SolveEbf(prob);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInfeasible);
}

// ---- Special-case reductions (Section 4.3) ---------------------------------

TEST(SpecialCasesTest, UnboundedReducesToSteinerMinimum) {
  // [l=0, u=inf]: the optimum must not exceed any feasible tree, e.g. the
  // baseline's own edge lengths.
  SinkSet set = RandomSinkSet(20, BBox({0, 0}, {300, 300}), 55, true);
  auto base = BuildBoundedSkewTree(set.sinks, set.source, 1e18);
  ASSERT_TRUE(base.ok());
  EbfProblem prob;
  prob.topo = &base->topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  prob.bounds.assign(set.sinks.size(), DelayBounds{0.0, kLpInf});
  EbfSolveOptions opt;
  opt.lp.engine = LpEngine::kSimplex;
  opt.strategy = EbfStrategy::kFullRows;
  const EbfSolveResult r = SolveEbf(prob, opt);
  ASSERT_TRUE(r.ok()) << r.status;
  EXPECT_LE(r.cost, base->cost + 1e-6 * (1.0 + base->cost));
}

TEST(SpecialCasesTest, TolerableSkewWindowBoundsSkew) {
  // Section 6: l = u - d gives a tree with skew <= d and max delay <= u.
  SinkSet set = RandomSinkSet(16, BBox({0, 0}, {200, 200}), 56, true);
  const double R = Radius(set.sinks, set.source);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  const double u = 1.3 * R;
  const double d = 0.2 * R;
  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  prob.bounds.assign(set.sinks.size(), DelayBounds{u - d, u});
  EbfSolveOptions opt;
  opt.lp.engine = LpEngine::kSimplex;
  opt.strategy = EbfStrategy::kFullRows;
  const EbfSolveResult r = SolveEbf(prob, opt);
  ASSERT_TRUE(r.ok()) << r.status;
  EXPECT_LE(r.stats.Skew(), d + 1e-6);
  EXPECT_LE(r.stats.max_delay, u + 1e-6);
}

TEST(SpecialCasesTest, PerSinkBoundsHonored) {
  // Distinct per-sink windows (the pipelined-design motivation, Section 1).
  SinkSet set = RandomSinkSet(12, BBox({0, 0}, {200, 200}), 57, true);
  const double R = Radius(set.sinks, set.source);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  Rng rng(58);
  for (std::size_t s = 0; s < set.sinks.size(); ++s) {
    const double dist = ManhattanDist(*set.source, set.sinks[s]);
    const double lo = rng.Uniform(dist, 1.5 * R);
    prob.bounds.push_back({lo, lo + rng.Uniform(0.05 * R, 0.5 * R)});
  }
  EbfSolveOptions opt;
  opt.lp.engine = LpEngine::kSimplex;
  opt.strategy = EbfStrategy::kFullRows;
  const EbfSolveResult r = SolveEbf(prob, opt);
  ASSERT_TRUE(r.ok()) << r.status;
  const auto delays = LinearSinkDelays(topo, r.edge_len);
  for (std::size_t s = 0; s < delays.size(); ++s) {
    EXPECT_GE(delays[s], prob.bounds[s].lo - 1e-6) << "sink " << s;
    EXPECT_LE(delays[s], prob.bounds[s].hi + 1e-6) << "sink " << s;
  }
}

TEST(LazyWarmStartTest, WarmRoundsMatchColdOnRandomInstances) {
  // Warm-started lazy rounds (the default) must land on the cold objective
  // and must not spend more total interior-point iterations.
  for (const std::uint64_t seed : {7u, 21u, 63u}) {
    SinkSet set = RandomSinkSet(40, BBox({0, 0}, {1000, 1000}), seed, true);
    const double R = Radius(set.sinks, set.source);
    Topology topo = NnMergeTopology(set.sinks, set.source);
    EbfProblem prob;
    prob.topo = &topo;
    prob.sinks = set.sinks;
    prob.source = set.source;
    prob.bounds.assign(set.sinks.size(), DelayBounds{0.9 * R, 1.2 * R});

    EbfSolveOptions opt;
    opt.strategy = EbfStrategy::kLazy;
    opt.lp.engine = LpEngine::kInteriorPoint;
    const EbfSolveResult warm = SolveEbf(prob, opt);
    opt.lp.warm_start_lazy_rounds = false;
    const EbfSolveResult cold = SolveEbf(prob, opt);
    ASSERT_TRUE(warm.ok()) << "seed " << seed << ": " << warm.status;
    ASSERT_TRUE(cold.ok()) << "seed " << seed << ": " << cold.status;
    EXPECT_NEAR(warm.cost, cold.cost, 1e-5 * (1.0 + cold.cost))
        << "seed " << seed;
    EXPECT_EQ(cold.lazy_stats.warm_rounds, 0) << "seed " << seed;
    if (warm.lazy_rounds > 1) {
      EXPECT_GT(warm.lazy_stats.warm_rounds, 0) << "seed " << seed;
      EXPECT_LE(warm.lazy_stats.lp_iterations, cold.lazy_stats.lp_iterations)
          << "seed " << seed;
    }
  }
}

TEST(LazyWarmStartTest, ZeroLazyRoundsIsAnError) {
  // No lazy round means no solved point: SolveEbf must report a failure,
  // not read edge lengths out of an empty primal vector.
  SinkSet set = RandomSinkSet(20, BBox({0, 0}, {1000, 1000}), 5, true);
  const double R = Radius(set.sinks, set.source);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  prob.bounds.assign(set.sinks.size(), DelayBounds{0.9 * R, 1.2 * R});

  EbfSolveOptions opt;
  opt.strategy = EbfStrategy::kLazy;
  opt.max_lazy_rounds = 0;
  const EbfSolveResult r = SolveEbf(prob, opt);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kNumericalFailure);
  EXPECT_EQ(r.lazy_rounds, 0);
  EXPECT_TRUE(r.edge_len.empty());
}

TEST(SupernodalGoldenTest, SeededLazySolveIsBitwisePinned) {
  // A 256-sink lazy solve whose supernodal factor spans many independent
  // elimination subtrees. The goldens were recorded when the factor still
  // ran those subtrees as separate chunks before a shared trunk; the serial
  // kernel visits supernodes in ascending order instead, and every target
  // applies its updates in a fixed order, so the bits must not move.
  SinkSet set = RandomSinkSet(256, BBox({0, 0}, {1000, 1000}), 17, true);
  const double R = Radius(set.sinks, set.source);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  prob.bounds.assign(set.sinks.size(), DelayBounds{0.9 * R, 1.2 * R});

  EbfSolveOptions opt;
  opt.strategy = EbfStrategy::kLazy;
  const EbfSolveResult r = SolveEbf(prob, opt);
  ASSERT_TRUE(r.ok()) << r.status;
  EXPECT_EQ(r.lazy_rounds, 4);
  EXPECT_EQ(r.lp_iterations, 63);
  EXPECT_EQ(r.objective, 0x1.11382ca9e1e9p+14);
  // FNV-1a over the bit patterns of edge_len.
  std::uint64_t digest = 1469598103934665603ull;
  for (const double len : r.edge_len) {
    digest = (digest ^ std::bit_cast<std::uint64_t>(len)) * 1099511628211ull;
  }
  EXPECT_EQ(r.edge_len.size(), 512u);
  EXPECT_EQ(digest, 0xce0dc778667e0142ull);
}

TEST(SupernodalGoldenTest, PaperNetLazySolveIsBitwisePinned) {
  // The full-scale prim2 stand-in through the lazy strategy, with the window
  // lubt_cli's --lower 1.0 --upper 1.2 gives. Every lazy round re-runs the
  // symbolic analysis, so the ordering, pattern, supernodes and scatter
  // positions it builds must not move a bit of the result.
  SinkSet set = MakeBenchmark(BenchmarkId::kPrim2);
  const double R = Radius(set.sinks, set.source);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  prob.bounds.assign(set.sinks.size(), DelayBounds{1.0 * R, 1.2 * R});

  EbfSolveOptions opt;
  opt.strategy = EbfStrategy::kLazy;
  const EbfSolveResult r = SolveEbf(prob, opt);
  ASSERT_TRUE(r.ok()) << r.status;
  std::uint64_t digest = 1469598103934665603ull;
  for (const double len : r.edge_len) {
    digest = (digest ^ std::bit_cast<std::uint64_t>(len)) * 1099511628211ull;
  }
  EXPECT_EQ(r.lazy_rounds, 5);
  EXPECT_EQ(r.lp_iterations, 90);
  EXPECT_EQ(r.objective, 0x1.06bd6db18a86ep+18);
  EXPECT_EQ(r.edge_len.size(), 1206u);
  EXPECT_EQ(digest, 0x087a6daa5d1d5d93ull);
}

}  // namespace
}  // namespace lubt
