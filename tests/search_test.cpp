// Topology search engine tests: move validity and canonicality, the exact
// leaf-delay DP against the LP, the exhaustive small-instance oracle, the
// speculative evaluate == commit == cold-reference agreement, SA-vs-exact
// agreement on oracle-sized instances, the 3% win over NN-merge at 64
// sinks, and the bitwise jobs=1 == jobs=N determinism contract of the
// annealer.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cts/metrics.h"
#include "eco/eco_session.h"
#include "geom/bbox.h"
#include "io/benchmarks.h"
#include "search/exact_dp.h"
#include "search/moves.h"
#include "search/topo_optimizer.h"
#include "topo/nn_merge.h"
#include "topo/validate.h"
#include "util/rng.h"

namespace lubt {
namespace {

constexpr double kCostTol = 1e-5;

bool CostsAgree(double a, double b) {
  return std::abs(a - b) <= kCostTol * (1.0 + std::abs(b));
}

bool SameTopology(const Topology& a, const Topology& b) {
  if (a.NumNodes() != b.NumNodes() || a.Root() != b.Root() ||
      a.Mode() != b.Mode()) {
    return false;
  }
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    const TopoNode& x = a.Node(v);
    const TopoNode& y = b.Node(v);
    if (x.parent != y.parent || x.left != y.left || x.right != y.right ||
        x.sink != y.sink) {
      return false;
    }
  }
  return true;
}

std::unique_ptr<EcoSession> MakeSession(int m, std::uint64_t seed,
                                        double lo_f, double hi_f,
                                        bool with_source = true,
                                        double die = 500.0) {
  SinkSet set =
      RandomSinkSet(m, BBox({0.0, 0.0}, {die, die}), seed, with_source);
  const double radius = Radius(set.sinks, set.source);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  std::vector<DelayBounds> bounds(
      set.sinks.size(), DelayBounds{lo_f * radius, hi_f * radius});
  auto session =
      EcoSession::Create(set, std::move(bounds), std::move(topo), {});
  LUBT_ASSERT(session.ok());
  return std::move(*session);
}

// Draw a random (not necessarily valid) move against `topo`.
TopoMove DrawMove(Rng& rng, const Topology& topo) {
  TopoMove move;
  const double roll = rng.Uniform();
  move.kind = roll < 0.45   ? MoveKind::kReattach
              : roll < 0.75 ? MoveKind::kSwap
                            : MoveKind::kSplitCollapse;
  move.a = rng.UniformInt(0, topo.NumNodes() - 1);
  move.b = rng.UniformInt(0, topo.NumNodes() - 1);
  return move;
}

// ---------------------------------------------------------------------------
// Moves.

TEST(SearchMoves, RandomMovesPreserveEveryTopologyInvariant) {
  Rng rng(7);
  for (const bool with_source : {true, false}) {
    for (int m : {3, 5, 9, 17}) {
      SinkSet set = RandomSinkSet(m, BBox({0.0, 0.0}, {100.0, 100.0}),
                                  1000 + m, with_source);
      Topology topo = NnMergeTopology(set.sinks, set.source);
      MoveScratch scratch;
      int applied = 0;
      for (int trial = 0; trial < 400; ++trial) {
        scratch.Prepare(topo.NumNodes());
        const TopoMove move = DrawMove(rng, topo);
        Topology cand;
        if (!ApplyMove(topo, move, &scratch, &cand)) continue;
        ++applied;
        ASSERT_TRUE(ValidateTopology(cand, m).ok())
            << MoveKindName(move.kind) << " a=" << move.a << " b=" << move.b;
        EXPECT_EQ(cand.NumNodes(), topo.NumNodes());
        // Canonical arena: children precede parents, so every walk from a
        // node to the root ascends in id.
        for (NodeId v = 0; v < cand.NumNodes(); ++v) {
          const NodeId p = cand.Node(v).parent;
          if (p != kInvalidNode) {
            EXPECT_GT(p, v);
          }
        }
        // Occasionally adopt the candidate so later moves see varied trees.
        if (applied % 7 == 0) topo = cand;
      }
      EXPECT_GT(applied, 40) << "m=" << m << " source=" << with_source;
    }
  }
}

TEST(SearchMoves, WarmValueMappingFollowsTheRenaming) {
  SinkSet set = RandomSinkSet(9, BBox({0.0, 0.0}, {100.0, 100.0}), 3, true);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  // Tag every node with its own id; after the move, a node that carried
  // sink s must still carry the tag of the leaf that owned s.
  std::vector<double> tag(static_cast<std::size_t>(topo.NumNodes()));
  for (NodeId v = 0; v < topo.NumNodes(); ++v) {
    tag[static_cast<std::size_t>(v)] = static_cast<double>(v);
  }
  Rng rng(11);
  MoveScratch scratch;
  int applied = 0;
  for (int trial = 0; trial < 200 && applied < 25; ++trial) {
    scratch.Prepare(topo.NumNodes());
    Topology cand;
    std::vector<double> mapped;
    if (!ApplyMove(topo, DrawMove(rng, topo), &scratch, &cand, &tag, &mapped)) {
      continue;
    }
    ++applied;
    ASSERT_EQ(mapped.size(), static_cast<std::size_t>(cand.NumNodes()));
    for (NodeId v = 0; v < cand.NumNodes(); ++v) {
      const std::int32_t s = cand.Node(v).sink;
      if (s < 0) continue;
      // Leaf of sink s in the base topology.
      NodeId base_leaf = kInvalidNode;
      for (NodeId u = 0; u < topo.NumNodes(); ++u) {
        if (topo.Node(u).sink == s) base_leaf = u;
      }
      ASSERT_NE(base_leaf, kInvalidNode);
      EXPECT_EQ(mapped[static_cast<std::size_t>(v)],
                static_cast<double>(base_leaf));
    }
  }
  EXPECT_GE(applied, 25);
}

TEST(SearchMoves, InvalidMovesAreRejected) {
  SinkSet set = RandomSinkSet(6, BBox({0.0, 0.0}, {100.0, 100.0}), 5, true);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  MoveScratch scratch;
  scratch.Prepare(topo.NumNodes());
  const NodeId root = topo.Root();
  // Moving the root, self-moves, and out-of-range ids are all invalid.
  EXPECT_FALSE(
      RewireMove(topo, {MoveKind::kReattach, root, 0}, &scratch));
  EXPECT_FALSE(RewireMove(topo, {MoveKind::kSwap, root, 0}, &scratch));
  EXPECT_FALSE(RewireMove(topo, {MoveKind::kSwap, 2, 2}, &scratch));
  EXPECT_FALSE(RewireMove(
      topo, {MoveKind::kReattach, 0, topo.NumNodes()}, &scratch));
  // A leaf never split/collapses.
  NodeId leaf = 0;
  while (topo.Node(leaf).sink < 0) ++leaf;
  EXPECT_FALSE(RewireMove(
      topo, {MoveKind::kSplitCollapse, leaf, topo.Node(leaf).parent},
      &scratch));
}

// ---------------------------------------------------------------------------
// Exact DP.

TEST(SearchExactDp, CertifiesTheLpOnRandomFeasibleInstances) {
  for (const bool with_source : {true, false}) {
    for (int m : {3, 5, 8, 12}) {
      SinkSet set = RandomSinkSet(m, BBox({0.0, 0.0}, {300.0, 300.0}),
                                  40 + m, with_source);
      const double r = Radius(set.sinks, set.source);
      Topology topo = NnMergeTopology(set.sinks, set.source);
      std::vector<DelayBounds> bounds(set.sinks.size(),
                                      DelayBounds{0.6 * r, 1.4 * r});
      const ExactScore score =
          ExactTopologyScore(topo, set.sinks, set.source, bounds);
      ASSERT_TRUE(score.ok()) << score.status;
      EXPECT_TRUE(score.dp_certified)
          << "m=" << m << " source=" << with_source;
      // Cross-check against the production path on the same topology.
      EbfProblem prob;
      prob.sinks = set.sinks;
      prob.source = set.source;
      prob.bounds = bounds;
      prob.topo = &topo;
      const EbfSolveResult res = SolveEbf(prob);
      ASSERT_TRUE(res.ok());
      EXPECT_TRUE(CostsAgree(score.cost, res.cost))
          << score.cost << " vs " << res.cost;
    }
  }
}

TEST(SearchExactDp, LeafDelayDpRejectsWindowAndSteinerViolations) {
  SinkSet set = RandomSinkSet(5, BBox({0.0, 0.0}, {100.0, 100.0}), 9, true);
  const double r = Radius(set.sinks, set.source);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  std::vector<DelayBounds> bounds(set.sinks.size(),
                                  DelayBounds{0.5 * r, 1.5 * r});
  // Delays below the geometric minimum (source distance) are infeasible.
  std::vector<double> too_short(set.sinks.size(), 0.0);
  EXPECT_FALSE(
      LeafDelayDp(topo, set.sinks, set.source, bounds, too_short).feasible);
  // Delays far above every window violate the upper bounds.
  std::vector<double> too_long(set.sinks.size(), 10.0 * r);
  EXPECT_FALSE(
      LeafDelayDp(topo, set.sinks, set.source, bounds, too_long).feasible);
}

TEST(SearchExactDp, ExhaustiveBestLowerBoundsEveryScoredTopology) {
  for (const bool with_source : {true, false}) {
    const int m = 5;
    SinkSet set = RandomSinkSet(m, BBox({0.0, 0.0}, {200.0, 200.0}), 21,
                                with_source);
    const double r = Radius(set.sinks, set.source);
    std::vector<DelayBounds> bounds(set.sinks.size(),
                                    DelayBounds{0.0, 1.6 * r});
    const ExactBest best =
        ExactBestTopology(set.sinks, set.source, bounds);
    ASSERT_TRUE(best.ok()) << best.status;
    EXPECT_GT(best.enumerated, 0);
    EXPECT_GT(best.feasible, 0);
    ASSERT_TRUE(ValidateTopology(best.topo, m).ok());
    // The NN-merge topology is one of the enumerated shapes (up to
    // renaming), so the best must be at least as cheap.
    Topology nn = NnMergeTopology(set.sinks, set.source);
    const ExactScore nn_score =
        ExactTopologyScore(nn, set.sinks, set.source, bounds);
    ASSERT_TRUE(nn_score.ok());
    EXPECT_LE(best.cost, nn_score.cost + kCostTol * (1.0 + nn_score.cost));
  }
}

// ---------------------------------------------------------------------------
// Speculative evaluation.

TEST(SearchEval, EvaluateMatchesCommitAndLeavesSessionUntouched) {
  auto session = MakeSession(10, 31, 0.3, 1.3);
  ASSERT_TRUE(session->Last().ok());
  const double cost_before = session->Last().cost;
  const Topology base = session->Topo();

  Rng rng(13);
  MoveScratch scratch;
  std::vector<double> base_len(session->EdgeLengths().begin(),
                               session->EdgeLengths().end());
  int tested = 0;
  for (int trial = 0; trial < 100 && tested < 8; ++trial) {
    scratch.Prepare(base.NumNodes());
    Topology cand;
    std::vector<double> warm;
    if (!ApplyMove(base, DrawMove(rng, base), &scratch, &cand, &base_len,
                   &warm)) {
      continue;
    }
    const EcoTopoEval eval = session->EvaluateCandidateTopology(cand, &warm);
    // The session must be untouched by the speculative evaluation.
    EXPECT_TRUE(SameTopology(session->Topo(), base));
    EXPECT_EQ(session->Last().cost, cost_before);
    if (!eval.ok()) continue;
    ++tested;

    // Committing the same candidate must land on the same optimum, and both
    // must match a cold solve of the instance on that topology.
    auto fresh = MakeSession(10, 31, 0.3, 1.3);
    auto commit = fresh->ApplyTopologyReplace(cand, &eval.edge_len);
    ASSERT_TRUE(commit.ok());
    ASSERT_TRUE(commit->ok());
    EXPECT_TRUE(CostsAgree(eval.cost, commit->cost))
        << eval.cost << " vs " << commit->cost;
    const EbfSolveResult cold = ColdReferenceSolve(*fresh);
    ASSERT_TRUE(cold.ok());
    EXPECT_TRUE(CostsAgree(commit->cost, cold.cost));
  }
  EXPECT_GE(tested, 8);
}

// ---------------------------------------------------------------------------
// The annealer.

// Seed-11 instances: `sinks` random sinks with a source on a 1000 x 1000
// die and one loose shared window [0.3, 1.3] radius, so the whole cost gap
// to NN-merge is the topology. They are annealed for `rounds` rounds at
// initial_temp 0.0005 with the whole budget spent searching.
std::unique_ptr<EcoSession> MakeLooseWindowSession(int sinks) {
  return MakeSession(sinks, 11, 0.3, 1.3, /*with_source=*/true, 1000.0);
}

TopoSearchOptions FullBudgetOptions(int rounds) {
  TopoSearchOptions opts;
  opts.seed = 11;
  opts.max_rounds = rounds;
  opts.plateau_rounds = rounds;
  opts.initial_temp = 0.0005;
  return opts;
}

TEST(SearchOptimizer, ImprovesOrMatchesTheInitialTopology) {
  TopoSearchOptions small;
  small.seed = 5;
  small.max_rounds = 30;
  small.candidates_per_round = 3;
  small.plateau_rounds = 12;
  struct Case {
    std::unique_ptr<EcoSession> session;
    TopoSearchOptions opts;
  };
  Case cases[] = {{MakeSession(16, 77, 0.0, 1.35), small},
                  {MakeLooseWindowSession(24), FullBudgetOptions(12)},
                  {MakeLooseWindowSession(48), FullBudgetOptions(12)}};
  for (Case& c : cases) {
    EcoSession& session = *c.session;
    SCOPED_TRACE(std::to_string(session.NumSinks()) + " sinks");
    ASSERT_TRUE(session.Last().ok());
    auto result = TopoOptimizer::Optimize(session, c.opts);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_LE(result->best_cost,
              result->initial_cost + kCostTol * (1.0 + result->initial_cost));
    EXPECT_GT(result->stats.rounds, 0);
    // The session is left solved on the best topology found.
    ASSERT_TRUE(session.Last().ok());
    EXPECT_TRUE(CostsAgree(session.Last().cost, result->best_cost));
    EXPECT_TRUE(SameTopology(session.Topo(), result->best_topo));
    // And that state matches a cold solve (nothing stale was committed).
    const EbfSolveResult cold = ColdReferenceSolve(session);
    ASSERT_TRUE(cold.ok());
    EXPECT_TRUE(CostsAgree(cold.cost, result->best_cost));
  }
}

// The search must pay for itself: at 64 sinks a 30-round budget beats the
// NN-merge construction's cost by at least 3% at equal delay bounds.
TEST(SearchOptimizer, BeatsNnMergeByThreePercentAt64Sinks) {
  auto session = MakeLooseWindowSession(64);
  ASSERT_TRUE(session->Last().ok());
  auto result = TopoOptimizer::Optimize(*session, FullBudgetOptions(30));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GE(result->initial_cost, 1.03 * result->best_cost)
      << "NN-merge " << result->initial_cost << " vs searched "
      << result->best_cost;
}

TEST(SearchOptimizer, AgreesWithTheExactOracleOnEveryAcceptedMove) {
  for (const bool with_source : {true, false}) {
    auto session = MakeSession(9, 83, 0.0, 1.4, with_source);
    ASSERT_TRUE(session->Last().ok());
    TopoSearchOptions opts;
    opts.seed = 9;
    opts.max_rounds = 25;
    opts.candidates_per_round = 2;
    opts.plateau_rounds = 10;
    opts.exact_oracle = true;
    auto result = TopoOptimizer::Optimize(*session, opts);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->stats.oracle_checks, result->stats.accepted);
    EXPECT_EQ(result->stats.oracle_mismatches, 0);
    EXPECT_GT(result->stats.accepted, 0);
  }
}

TEST(SearchOptimizer, ReachesTheExhaustiveOptimumOnTinyInstances) {
  for (const std::uint64_t seed : {101u, 202u}) {
    SinkSet set = RandomSinkSet(6, BBox({0.0, 0.0}, {200.0, 200.0}), seed,
                                true);
    const double r = Radius(set.sinks, set.source);
    std::vector<DelayBounds> bounds(set.sinks.size(),
                                    DelayBounds{0.0, 1.5 * r});
    const ExactBest exact = ExactBestTopology(set.sinks, set.source, bounds);
    ASSERT_TRUE(exact.ok());

    TopoSearchOptions opts;
    opts.seed = 17;
    opts.max_rounds = 120;
    opts.candidates_per_round = 4;
    opts.plateau_rounds = 60;
    opts.initial_temp = 0.05;
    auto result = TopoOptimizer::Optimize(
        set, bounds, NnMergeTopology(set.sinks, set.source), opts);
    ASSERT_TRUE(result.ok()) << result.status();
    // Acceptance bar: the annealer lands on the optimum or within 1%.
    EXPECT_LE(result->best_cost, 1.01 * exact.cost + kCostTol)
        << "seed=" << seed << ": SA " << result->best_cost << " vs exact "
        << exact.cost;
  }
}

TEST(SearchOptimizer, SeededScheduleIsBitwiseInvariantAcrossJobs) {
  auto run = [](int jobs) {
    auto session = MakeSession(12, 55, 0.2, 1.35);
    LUBT_ASSERT(session->Last().ok());
    TopoSearchOptions opts;
    opts.seed = 4242;
    opts.max_rounds = 20;
    opts.candidates_per_round = 4;
    opts.plateau_rounds = 20;
    opts.jobs = jobs;
    auto result = TopoOptimizer::Optimize(*session, opts);
    LUBT_ASSERT(result.ok());
    return std::move(*result);
  };
  const TopoSearchResult a = run(1);
  const TopoSearchResult b = run(4);
  // Bitwise contract: identical schedule, identical accepted moves,
  // identical best state — not merely close costs.
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.initial_cost, b.initial_cost);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.proposed, b.stats.proposed);
  EXPECT_EQ(a.stats.evaluated, b.stats.evaluated);
  EXPECT_EQ(a.stats.accepted, b.stats.accepted);
  EXPECT_EQ(a.stats.uphill_accepted, b.stats.uphill_accepted);
  EXPECT_EQ(a.stats.accepted_reattach, b.stats.accepted_reattach);
  EXPECT_EQ(a.stats.accepted_swap, b.stats.accepted_swap);
  EXPECT_EQ(a.stats.accepted_split, b.stats.accepted_split);
  EXPECT_TRUE(SameTopology(a.best_topo, b.best_topo));
  ASSERT_EQ(a.best_edge_len.size(), b.best_edge_len.size());
  for (std::size_t i = 0; i < a.best_edge_len.size(); ++i) {
    EXPECT_EQ(a.best_edge_len[i], b.best_edge_len[i]) << "edge " << i;
  }
}

TEST(SearchOptimizer, RejectsMalformedOptionsAndInfeasibleStarts) {
  auto session = MakeSession(6, 3, 0.0, 1.4);
  TopoSearchOptions bad;
  bad.cooling = 0.0;
  EXPECT_FALSE(TopoOptimizer::Optimize(*session, bad).ok());
  bad = {};
  bad.candidates_per_round = 0;
  EXPECT_FALSE(TopoOptimizer::Optimize(*session, bad).ok());

  // An infeasible start (empty windows) is reported, not searched.
  SinkSet set = RandomSinkSet(5, BBox({0.0, 0.0}, {100.0, 100.0}), 4, true);
  std::vector<DelayBounds> bounds(set.sinks.size(),
                                  DelayBounds{0.0, 1e-6});
  auto result = TopoOptimizer::Optimize(
      set, bounds, NnMergeTopology(set.sinks, set.source), {});
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace lubt
