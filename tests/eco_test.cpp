// Incremental ECO engine tests: the randomized incremental ≡ cold oracle
// and the fixed scaling stream with its incremental-vs-cold speedup floor,
// the bitwise no-op tier contract for active-set-preserving RHS edits,
// determinism of edit streams, pinned per-edit reuse counters,
// infeasible-window recovery, persistence of edited instances, the
// edit-script text format, and the batch eco job.

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ios>
#include <iterator>
#include <vector>

#include "check/invariants.h"
#include "cts/linear_delay.h"
#include "cts/metrics.h"
#include "eco/eco_session.h"
#include "eco/edit_script.h"
#include "geom/bbox.h"
#include "io/benchmarks.h"
#include "io/tree_io.h"
#include "runtime/batch_solver.h"
#include "topo/nn_merge.h"
#include "topo/validate.h"
#include "util/rng.h"

namespace lubt {
namespace {

constexpr double kCostTol = 1e-5;

bool CostsAgree(double a, double b) {
  return std::abs(a - b) <= kCostTol * (1.0 + std::abs(b));
}

std::unique_ptr<EcoSession> MakeSession(int m, std::uint64_t seed,
                                        double lo_f, double hi_f,
                                        bool with_source = true) {
  SinkSet set =
      RandomSinkSet(m, BBox({0.0, 0.0}, {500.0, 500.0}), seed, with_source);
  const double radius = Radius(set.sinks, set.source);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  std::vector<DelayBounds> bounds(
      set.sinks.size(), DelayBounds{lo_f * radius, hi_f * radius});
  auto session =
      EcoSession::Create(set, std::move(bounds), std::move(topo), {});
  LUBT_ASSERT(session.ok());
  return std::move(*session);
}

// Draw one always-valid random edit against the session's current state.
EcoEdit DrawEdit(Rng& rng, const EcoSession& session) {
  const double r = session.InitialRadius();
  const int m = session.NumSinks();
  const int min_sinks = session.Set().source.has_value() ? 1 : 2;
  EcoEdit edit;
  const double roll = rng.Uniform();
  if (roll < 0.30) {
    edit.kind = EcoEditKind::kMoveSink;
    edit.sink = rng.UniformInt(0, m - 1);
    edit.point = {rng.Uniform(0.0, 500.0), rng.Uniform(0.0, 500.0)};
  } else if (roll < 0.55) {
    edit.kind = EcoEditKind::kSetBounds;
    edit.sink = rng.UniformInt(0, m - 1);
    edit.lo = rng.Uniform(0.0, 0.8) * r;
    edit.hi = rng.Uniform() < 0.2 ? kLpInf
                                  : edit.lo + rng.Uniform(0.1, 1.2) * r;
  } else if (roll < 0.70 && m > min_sinks) {
    edit.kind = EcoEditKind::kRemoveSink;
    edit.sink = rng.UniformInt(0, m - 1);
  } else if (roll < 0.85) {
    edit.kind = EcoEditKind::kAddSink;
    edit.point = {rng.Uniform(0.0, 500.0), rng.Uniform(0.0, 500.0)};
    edit.lo = 0.0;
    edit.hi = rng.Uniform() < 0.3 ? kLpInf : rng.Uniform(0.8, 1.6) * r;
  } else {
    // Relaxing shift: never inverts a window.
    edit.kind = EcoEditKind::kShiftWindow;
    edit.lo = 0.0;
    edit.hi = rng.Uniform(0.0, 0.1) * r;
  }
  return edit;
}

// The scaling stream: `sinks` random sinks with a source on a 1000 x 1000
// die, one shared window [0.9, 1.2] radius on the NN-merge topology, then
// kSingleEdits single-sink edits (small moves alternating with window
// changes, the localized regime the incremental engine is built for) and
// one add plus one remove. Every edit is solved incrementally and cold and
// the two costs must agree; the thread CPU time of both sides over the
// single-sink edits is returned for the speedup floor below.
constexpr int kSingleEdits = 8;

struct StreamTimes {
  double inc_cpu_s = 0.0;
  double cold_cpu_s = 0.0;
};

double ThreadCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

StreamTimes RunScalingStream(int sinks, std::uint64_t seed) {
  StreamTimes times;
  const BBox die({0.0, 0.0}, {1000.0, 1000.0});
  const SinkSet set = RandomSinkSet(sinks, die, seed, /*with_source=*/true);
  const double radius = Radius(set.sinks, set.source);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  std::vector<DelayBounds> bounds(set.sinks.size(),
                                  DelayBounds{0.9 * radius, 1.2 * radius});
  auto created =
      EcoSession::Create(set, std::move(bounds), std::move(topo), {});
  LUBT_ASSERT(created.ok());
  EcoSession& session = **created;
  EXPECT_TRUE(session.Last().ok()) << session.Last().status;

  Rng rng(seed * 0xec0ec0ec0ULL + 11);
  for (int k = 0; k < kSingleEdits + 2; ++k) {
    EcoEdit edit;
    if (k == kSingleEdits) {
      edit.kind = EcoEditKind::kAddSink;
      edit.point = {rng.Uniform(die.Lo().x, die.Hi().x),
                    rng.Uniform(die.Lo().y, die.Hi().y)};
      edit.lo = 0.9 * radius;
      edit.hi = 1.3 * radius;
    } else if (k == kSingleEdits + 1) {
      edit.kind = EcoEditKind::kRemoveSink;
      edit.sink = rng.UniformInt(0, session.NumSinks() - 1);
    } else {
      edit.sink = rng.UniformInt(0, session.NumSinks() - 1);
      if (k % 2 == 0) {
        edit.kind = EcoEditKind::kMoveSink;
        const Point& p =
            session.Set().sinks[static_cast<std::size_t>(edit.sink)];
        const double dx = rng.Uniform(-0.02, 0.02) * radius;
        const double dy = rng.Uniform(-0.02, 0.02) * radius;
        edit.point = {std::clamp(p.x + dx, die.Lo().x, die.Hi().x),
                      std::clamp(p.y + dy, die.Lo().y, die.Hi().y)};
      } else {
        edit.kind = EcoEditKind::kSetBounds;
        edit.lo = rng.Uniform(0.85, 0.95) * radius;
        edit.hi = rng.Uniform(1.15, 1.25) * radius;
      }
    }
    const double inc_start = ThreadCpuSeconds();
    auto info = session.Apply(edit);
    const double cold_start = ThreadCpuSeconds();
    const EbfSolveResult cold = ColdReferenceSolve(session);
    const double cold_end = ThreadCpuSeconds();
    if (k < kSingleEdits) {
      times.inc_cpu_s += cold_start - inc_start;
      times.cold_cpu_s += cold_end - cold_start;
    }
    EXPECT_TRUE(info.ok() && info->ok())
        << sinks << " sinks, edit " << k << " ("
        << EcoEditKindName(edit.kind) << "): "
        << (info.ok() ? info->status : info.status());
    EXPECT_TRUE(cold.ok()) << sinks << " sinks, edit " << k << ": "
                           << cold.status;
    if (info.ok() && info->ok() && cold.ok()) {
      EXPECT_TRUE(CostsAgree(info->cost, cold.cost))
          << sinks << " sinks, edit " << k << " ("
          << EcoEditKindName(edit.kind) << "): eco " << info->cost
          << " vs cold " << cold.cost;
    }
  }
  return times;
}

// The tentpole contract: after every edit the incremental solution matches
// a cold solve of the edited instance. 24 seeded instances x 10 mixed edits
// = 240 cross-checked edits over every edit kind, both source modes, and
// feasible + infeasible regimes, then the scaling stream at 48 and 96 sinks.
TEST(EcoOracleTest, RandomizedEditStreamsMatchColdSolves) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const bool with_source = seed % 3 != 0;
    // Every third instance starts with a tight (often infeasible) window.
    const double lo_f = seed % 4 == 0 ? 0.99 : 0.85;
    const double hi_f = seed % 4 == 0 ? 1.005 : 1.25;
    auto session = MakeSession(10 + static_cast<int>(seed % 7), seed, lo_f,
                               hi_f, with_source);
    Rng rng(seed * 977 + 13);
    for (int op = 0; op < 10; ++op) {
      const EcoEdit edit = DrawEdit(rng, *session);
      auto info = session->Apply(edit);
      ASSERT_TRUE(info.ok()) << info.status();
      const EbfSolveResult cold = ColdReferenceSolve(*session);
      ++checked;
      if (info->ok() != cold.ok()) {
        FAIL() << "seed " << seed << " op " << op << " ("
               << EcoEditKindName(edit.kind) << "): eco "
               << info->status.ToString() << " vs cold "
               << cold.status.ToString();
      }
      if (!info->ok()) {
        EXPECT_EQ(info->status.code(), StatusCode::kInfeasible);
        EXPECT_EQ(cold.status.code(), StatusCode::kInfeasible);
        continue;
      }
      EXPECT_TRUE(CostsAgree(info->cost, cold.cost))
          << "seed " << seed << " op " << op << " ("
          << EcoEditKindName(edit.kind) << "): eco " << info->cost
          << " vs cold " << cold.cost << " (tier "
          << EcoTierName(info->tier) << ")";
      EXPECT_TRUE(
          ValidateEdgeLengths(session->Problem(), session->EdgeLengths())
              .ok());
    }
  }
  EXPECT_GE(checked, 200);
  for (const int sinks : {48, 96}) RunScalingStream(sinks, 7);
}

// At 512 sinks the incremental re-solves of the single-sink edits must take
// at most a fifth of the cold solves' CPU time. Both sides run on this
// thread, so thread CPU time is immune to other processes sharing the
// host. Sanitizer builds slow the two sides unevenly; they check costs only.
TEST(EcoOracleTest, IncrementalIsFiveTimesFasterThanColdAt512Sinks) {
  [[maybe_unused]] const StreamTimes times = RunScalingStream(512, 7);
#ifdef LUBT_TIMING_FLOORS
  EXPECT_GE(times.cold_cpu_s, 5.0 * times.inc_cpu_s)
      << "incremental " << times.inc_cpu_s << " s vs cold "
      << times.cold_cpu_s << " s of thread CPU";
#endif
}

// Active-set-preserving RHS edits must return the stored solution bitwise.
// A sink whose solved delay sits strictly inside its folded window has a
// strictly slack delay row; widening that sink's window provably keeps the
// optimum, and the session must detect it (tier kNoOp) without an LP solve.
TEST(EcoTierTest, SlackPreservingRhsEditsAreBitwiseNoOps) {
  auto session = MakeSession(14, 3, 0.0, 100.0);
  ASSERT_TRUE(session->Last().ok());
  const std::vector<double> before(session->EdgeLengths().begin(),
                                   session->EdgeLengths().end());
  const double cost_before = session->Last().cost;
  const double r = session->InitialRadius();

  // Find a sink whose path delay strictly exceeds its source distance (the
  // folded lower bound with lo = 0): its row is slack on both sides.
  const std::vector<double> delays =
      LinearSinkDelays(session->Topo(), session->EdgeLengths());
  std::int32_t slack_sink = -1;
  for (std::int32_t s = 0; s < session->NumSinks(); ++s) {
    const double fold = ManhattanDist(session->Set().sinks[s],
                                      *session->Set().source);
    if (delays[static_cast<std::size_t>(s)] > fold + 0.01 * r) {
      slack_sink = s;
      break;
    }
  }
  ASSERT_GE(slack_sink, 0) << "instance has no detour sink; change the seed";

  EcoEdit bounds;
  bounds.kind = EcoEditKind::kSetBounds;
  bounds.sink = slack_sink;
  bounds.lo = 0.0;
  bounds.hi = 50.0 * r;  // still far above any achievable delay
  auto info = session->Apply(bounds);
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_TRUE(info->ok());
  EXPECT_EQ(info->tier, EcoTier::kNoOp);
  EXPECT_EQ(info->lazy_rounds, 0);
  EXPECT_EQ(info->cost, cost_before);  // bitwise, not approximate

  // Widening the same window again is another provable no-op.
  bounds.hi = 60.0 * r;
  info = session->Apply(bounds);
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_TRUE(info->ok());
  EXPECT_EQ(info->tier, EcoTier::kNoOp);

  ASSERT_EQ(session->EdgeLengths().size(), before.size());
  EXPECT_EQ(std::memcmp(session->EdgeLengths().data(), before.data(),
                        before.size() * sizeof(double)),
            0);

  // And the reused solution really is optimal for the edited instance.
  const EbfSolveResult cold = ColdReferenceSolve(*session);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(CostsAgree(session->Last().cost, cold.cost));
}

// A tightening edit on an active row must NOT take the no-op tier.
TEST(EcoTierTest, TighteningAnActiveWindowResolves) {
  auto session = MakeSession(12, 5, 0.9, 1.2);
  ASSERT_TRUE(session->Last().ok());
  const double r = session->InitialRadius();
  EcoEdit edit;
  edit.kind = EcoEditKind::kSetBounds;
  edit.sink = 0;
  edit.lo = 0.95 * r;
  edit.hi = 1.15 * r;
  auto info = session->Apply(edit);
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_TRUE(info->ok());
  EXPECT_EQ(info->tier, EcoTier::kRhsWarm);
  const EbfSolveResult cold = ColdReferenceSolve(*session);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(CostsAgree(session->Last().cost, cold.cost));
}

TEST(EcoTierTest, StructuralEditsRepairTheTopology) {
  auto session = MakeSession(12, 7, 0.9, 1.2);
  ASSERT_TRUE(session->Last().ok());
  const double r = session->InitialRadius();

  EcoEdit add;
  add.kind = EcoEditKind::kAddSink;
  add.point = {77.0, 311.0};
  add.lo = 0.9 * r;
  add.hi = 1.3 * r;
  auto info = session->Apply(add);
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_TRUE(info->ok());
  EXPECT_EQ(info->tier, EcoTier::kStructural);
  EXPECT_EQ(session->NumSinks(), 13);
  EXPECT_TRUE(ValidateTopology(session->Topo(), 13).ok());
  EXPECT_EQ(session->Bounds().size(), 13u);

  EcoEdit remove;
  remove.kind = EcoEditKind::kRemoveSink;
  remove.sink = 4;
  info = session->Apply(remove);
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_TRUE(info->ok());
  EXPECT_EQ(info->tier, EcoTier::kStructural);
  EXPECT_EQ(session->NumSinks(), 12);
  EXPECT_TRUE(ValidateTopology(session->Topo(), 12).ok());

  const EbfSolveResult cold = ColdReferenceSolve(*session);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(CostsAgree(session->Last().cost, cold.cost));
}

// An edit that empties a sink's folded window parks the session in an
// infeasible state; a later compatible edit recovers via a cold rebuild.
TEST(EcoSessionTest, InfeasibleWindowParksAndRecovers) {
  SinkSet set = RandomSinkSet(10, BBox({0.0, 0.0}, {500.0, 500.0}), 11, true);
  const double radius = Radius(set.sinks, set.source);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  std::vector<DelayBounds> bounds(set.sinks.size(),
                                  DelayBounds{0.9 * radius, 1.2 * radius});
  auto created =
      EcoSession::Create(set, std::move(bounds), std::move(topo), {});
  ASSERT_TRUE(created.ok());
  EcoSession& session = **created;
  ASSERT_TRUE(session.Last().ok());

  // No tree can deliver sink 0 faster than its source distance.
  const double dist = ManhattanDist(set.sinks[0], *set.source);
  EcoEdit tighten;
  tighten.kind = EcoEditKind::kSetBounds;
  tighten.sink = 0;
  tighten.lo = 0.1 * dist;
  tighten.hi = 0.5 * dist;
  auto info = session.Apply(tighten);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->status.code(), StatusCode::kInfeasible);
  EXPECT_FALSE(session.Feasible());

  // Further edits in the parked state still answer (and stay infeasible).
  EcoEdit move;
  move.kind = EcoEditKind::kMoveSink;
  move.sink = 3;
  move.point = {10.0, 20.0};
  info = session.Apply(move);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->status.code(), StatusCode::kInfeasible);

  EcoEdit restore;
  restore.kind = EcoEditKind::kSetBounds;
  restore.sink = 0;
  restore.lo = 0.9 * radius;
  restore.hi = 1.2 * radius;
  info = session.Apply(restore);
  ASSERT_TRUE(info.ok()) << info.status();
  ASSERT_TRUE(info->ok());
  EXPECT_EQ(info->tier, EcoTier::kColdRebuild);
  EXPECT_TRUE(session.Feasible());
  const EbfSolveResult cold = ColdReferenceSolve(session);
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(CostsAgree(session.Last().cost, cold.cost));
}

TEST(EcoSessionTest, MalformedEditsRejectedWithoutMutation) {
  auto session = MakeSession(8, 13, 0.9, 1.2);
  const double cost = session->Last().cost;
  EcoEdit edit;

  edit.kind = EcoEditKind::kMoveSink;
  edit.sink = 99;
  edit.point = {1.0, 1.0};
  EXPECT_FALSE(session->Apply(edit).ok());

  edit.kind = EcoEditKind::kSetBounds;
  edit.sink = 0;
  edit.lo = 2.0;
  edit.hi = 1.0;  // inverted
  EXPECT_FALSE(session->Apply(edit).ok());

  edit.lo = -1.0;  // negative
  edit.hi = 2.0;
  EXPECT_FALSE(session->Apply(edit).ok());

  edit.kind = EcoEditKind::kRemoveSink;
  edit.sink = -1;
  EXPECT_FALSE(session->Apply(edit).ok());

  EXPECT_EQ(session->NumSinks(), 8);
  EXPECT_EQ(session->Last().cost, cost);
  EXPECT_TRUE(session->Feasible());
}

// Identical edit streams on identical instances produce bit-identical
// results (the batch determinism contract extends to eco jobs).
TEST(EcoSessionTest, EditStreamsAreDeterministic) {
  std::vector<EcoSolveInfo> infos[2];
  std::vector<double> lens[2];
  for (int run = 0; run < 2; ++run) {
    auto session = MakeSession(15, 21, 0.9, 1.25);
    Rng rng(4242);
    for (int op = 0; op < 8; ++op) {
      auto info = session->Apply(DrawEdit(rng, *session));
      ASSERT_TRUE(info.ok()) << info.status();
      infos[run].push_back(*info);
    }
    lens[run].assign(session->EdgeLengths().begin(),
                     session->EdgeLengths().end());
  }
  ASSERT_EQ(infos[0].size(), infos[1].size());
  for (std::size_t i = 0; i < infos[0].size(); ++i) {
    EXPECT_EQ(infos[0][i].status.code(), infos[1][i].status.code());
    EXPECT_EQ(infos[0][i].tier, infos[1][i].tier);
    EXPECT_EQ(infos[0][i].cost, infos[1][i].cost);
    EXPECT_EQ(infos[0][i].lp_rows, infos[1][i].lp_rows);
  }
  ASSERT_EQ(lens[0].size(), lens[1].size());
  EXPECT_EQ(std::memcmp(lens[0].data(), lens[1].data(),
                        lens[0].size() * sizeof(double)),
            0);
}

// Pins the per-edit reuse counters of one fixed seeded stream: the lazy-row
// driver must spend the same LP solves, append the same rows and take the
// same warm/cold decisions on every edit, not just reach the same costs. The
// stream (40 edits, every kind, add/remove included) stays feasible
// throughout; costs are compared bitwise.
TEST(EcoSessionTest, PinnedCountersOfSeededStream) {
  using K = EcoEditKind;
  using T = EcoTier;
  struct Expected {
    EcoEditKind kind;
    EcoTier tier;
    int lazy_rounds;
    int rows_added;
    int cold_retries;
    bool warm_started;
    bool symbolic_reused;
    double cost;
  };
  const Expected kExpected[] = {
    {K::kRemoveSink, T::kStructural, 2, 2, 0, true, false, 0x1.05e27f282994cp+11},
    {K::kRemoveSink, T::kStructural, 1, 0, 0, true, false, 0x1.05154f98972bdp+11},
    {K::kMoveSink, T::kRhsWarm, 2, 5, 0, true, true, 0x1.3c083463901d1p+11},
    {K::kMoveSink, T::kRhsWarm, 2, 1, 0, true, true, 0x1.3122fdceaad4cp+11},
    {K::kAddSink, T::kStructural, 1, 0, 0, true, false, 0x1.493d9d8015468p+11},
    {K::kSetBounds, T::kNoOp, 0, 0, 0, false, false, 0x1.493d9d8015468p+11},
    {K::kSetBounds, T::kNoOp, 0, 0, 0, false, false, 0x1.493d9d8015468p+11},
    {K::kSetBounds, T::kRhsWarm, 2, 5, 0, true, false, 0x1.30eeecace5cd7p+11},
    {K::kSetBounds, T::kRhsWarm, 1, 0, 0, true, true, 0x1.250b8af26c827p+11},
    {K::kSetBounds, T::kRhsWarm, 1, 0, 0, true, true, 0x1.250b8af321276p+11},
    {K::kRemoveSink, T::kStructural, 2, 1, 0, true, false, 0x1.f949e801a583fp+10},
    {K::kAddSink, T::kStructural, 2, 3, 0, true, false, 0x1.010d2444d7ad6p+11},
    {K::kAddSink, T::kStructural, 1, 0, 0, true, false, 0x1.16c4d05eac3ebp+11},
    {K::kSetBounds, T::kNoOp, 0, 0, 0, false, false, 0x1.16c4d05eac3ebp+11},
    {K::kShiftWindow, T::kRhsWarm, 1, 0, 0, true, false, 0x1.16c4d05e6bc64p+11},
    {K::kSetBounds, T::kRhsWarm, 1, 0, 0, true, false, 0x1.1ad61a446333ep+11},
    {K::kRemoveSink, T::kStructural, 1, 0, 0, true, false, 0x1.dafd06d37f32cp+10},
    {K::kMoveSink, T::kRhsWarm, 1, 0, 0, true, true, 0x1.1a7009542b77fp+11},
    {K::kMoveSink, T::kRhsWarm, 2, 2, 0, true, true, 0x1.30f86bf2a7786p+11},
    {K::kAddSink, T::kStructural, 2, 9, 0, true, false, 0x1.48154ce3967c6p+11},
    {K::kRemoveSink, T::kStructural, 1, 0, 0, true, false, 0x1.40fd63fe5fbd8p+11},
    {K::kSetBounds, T::kNoOp, 0, 0, 0, false, false, 0x1.40fd63fe5fbd8p+11},
    {K::kAddSink, T::kStructural, 2, 4, 0, true, false, 0x1.4ffc2a3f63354p+11},
    {K::kSetBounds, T::kRhsWarm, 1, 0, 0, true, false, 0x1.47eddfe809d6dp+11},
    {K::kRemoveSink, T::kStructural, 1, 0, 0, true, false, 0x1.3d0eb8070895p+11},
    {K::kShiftWindow, T::kRhsWarm, 1, 0, 0, true, true, 0x1.39f66c8cdced3p+11},
    {K::kMoveSink, T::kRhsWarm, 2, 1, 0, true, true, 0x1.58c8c62c93807p+11},
    {K::kSetBounds, T::kNoOp, 0, 0, 0, false, false, 0x1.58c8c62c93807p+11},
    {K::kMoveSink, T::kRhsWarm, 1, 0, 0, true, false, 0x1.5758731d3eacp+11},
    {K::kShiftWindow, T::kRhsWarm, 1, 0, 0, true, true, 0x1.55f87a191a788p+11},
    {K::kMoveSink, T::kRhsWarm, 2, 4, 0, true, true, 0x1.52105d4dc46dp+11},
    {K::kShiftWindow, T::kRhsWarm, 1, 0, 0, true, true, 0x1.52000abf93d41p+11},
    {K::kMoveSink, T::kRhsWarm, 2, 1, 0, true, true, 0x1.5dd7e84a84cbbp+11},
    {K::kShiftWindow, T::kRhsWarm, 1, 0, 0, true, true, 0x1.5cfa80f6bd689p+11},
    {K::kMoveSink, T::kRhsWarm, 1, 0, 0, true, true, 0x1.646e78c86ea9p+11},
    {K::kShiftWindow, T::kRhsWarm, 1, 0, 0, true, true, 0x1.63a99360b8ca9p+11},
    {K::kAddSink, T::kStructural, 2, 9, 0, true, false, 0x1.6ffdbe26d1e2bp+11},
    {K::kMoveSink, T::kRhsWarm, 2, 1, 0, true, true, 0x1.7e62ea4886ba1p+11},
    {K::kMoveSink, T::kRhsWarm, 2, 5, 0, true, true, 0x1.a8c97826ffae6p+11},
    {K::kAddSink, T::kStructural, 2, 1, 0, true, false, 0x1.af80421a6a9aap+11},
  };
  auto session = MakeSession(18, 5, 0.85, 1.25);
  Rng rng(2723);
  for (std::size_t op = 0; op < std::size(kExpected); ++op) {
    const Expected& want = kExpected[op];
    const EcoEdit edit = DrawEdit(rng, *session);
    ASSERT_EQ(edit.kind, want.kind) << "op " << op;
    auto info = session->Apply(edit);
    ASSERT_TRUE(info.ok()) << info.status();
    ASSERT_TRUE(info->ok()) << "op " << op << ": " << info->status;
    EXPECT_EQ(info->tier, want.tier) << "op " << op;
    EXPECT_EQ(info->lazy_rounds, want.lazy_rounds) << "op " << op;
    EXPECT_EQ(info->rows_added, want.rows_added) << "op " << op;
    EXPECT_EQ(info->cold_retries, want.cold_retries) << "op " << op;
    EXPECT_EQ(info->warm_started, want.warm_started) << "op " << op;
    EXPECT_EQ(info->symbolic_reused, want.symbolic_reused) << "op " << op;
    EXPECT_EQ(info->cost, want.cost) << "op " << op << std::hexfloat
                                     << ": got " << info->cost;
  }
}

// A structurally edited instance persists through the tree text format and
// re-validates after the round trip.
TEST(EcoSessionTest, EditedSolutionRoundTripsThroughTreeIo) {
  auto session = MakeSession(11, 17, 0.9, 1.2);
  const double r = session->InitialRadius();
  EcoEdit add;
  add.kind = EcoEditKind::kAddSink;
  add.point = {123.0, 456.0};
  add.lo = 0.9 * r;
  add.hi = 1.3 * r;
  ASSERT_TRUE(session->Apply(add).ok());
  EcoEdit remove;
  remove.kind = EcoEditKind::kRemoveSink;
  remove.sink = 2;
  ASSERT_TRUE(session->Apply(remove).ok());
  ASSERT_TRUE(session->Last().ok());

  const TreeSolution tree = session->Solution();
  auto again = ParseTreeSolution(FormatTreeSolution(tree));
  ASSERT_TRUE(again.ok()) << again.status();
  ASSERT_EQ(again->topo.NumNodes(), session->Topo().NumNodes());
  EXPECT_TRUE(ValidateTopology(again->topo, session->NumSinks()).ok());
  for (NodeId v = 0; v < again->topo.NumNodes(); ++v) {
    EXPECT_EQ(again->topo.Parent(v), session->Topo().Parent(v));
    EXPECT_EQ(again->topo.Node(v).sink, session->Topo().Node(v).sink);
    EXPECT_DOUBLE_EQ(again->edge_len[static_cast<std::size_t>(v)],
                     session->EdgeLengths()[static_cast<std::size_t>(v)]);
  }
}

TEST(EcoScriptTest, ParseFormatRoundTrip) {
  const char* text =
      "# ramp the window, then restructure\n"
      "bounds 0 0.9 1.25\n"
      "move 3 420.5 610.25\n"
      "add 180 540 0 1.4\n"
      "bounds 2 0.5 inf\n"
      "shift -0.05 0.1\n"
      "remove 1\n";
  auto edits = ParseEditScript(text);
  ASSERT_TRUE(edits.ok()) << edits.status();
  ASSERT_EQ(edits->size(), 6u);
  EXPECT_EQ((*edits)[0].kind, EcoEditKind::kSetBounds);
  EXPECT_EQ((*edits)[1].kind, EcoEditKind::kMoveSink);
  EXPECT_EQ((*edits)[1].sink, 3);
  EXPECT_DOUBLE_EQ((*edits)[1].point.x, 420.5);
  EXPECT_EQ((*edits)[2].kind, EcoEditKind::kAddSink);
  EXPECT_EQ((*edits)[3].hi, kLpInf);
  EXPECT_EQ((*edits)[4].kind, EcoEditKind::kShiftWindow);
  EXPECT_DOUBLE_EQ((*edits)[4].lo, -0.05);
  EXPECT_EQ((*edits)[5].kind, EcoEditKind::kRemoveSink);

  auto again = ParseEditScript(FormatEditScript(*edits));
  ASSERT_TRUE(again.ok()) << again.status();
  ASSERT_EQ(again->size(), edits->size());
  for (std::size_t i = 0; i < edits->size(); ++i) {
    EXPECT_EQ((*again)[i].kind, (*edits)[i].kind);
    EXPECT_EQ((*again)[i].sink, (*edits)[i].sink);
    EXPECT_DOUBLE_EQ((*again)[i].point.x, (*edits)[i].point.x);
    EXPECT_DOUBLE_EQ((*again)[i].point.y, (*edits)[i].point.y);
    EXPECT_DOUBLE_EQ((*again)[i].lo, (*edits)[i].lo);
    EXPECT_DOUBLE_EQ((*again)[i].hi, (*edits)[i].hi);
  }
}

TEST(EcoScriptTest, MalformedScriptsRejectedWithLineDiagnostics) {
  EXPECT_FALSE(ParseEditScript("warp 0 1 2\n").ok());
  EXPECT_FALSE(ParseEditScript("move 0 1\n").ok());        // missing y
  EXPECT_FALSE(ParseEditScript("bounds 0 1\n").ok());      // missing hi
  EXPECT_FALSE(ParseEditScript("remove\n").ok());          // missing sink
  EXPECT_FALSE(ParseEditScript("add 1 2 3\n").ok());       // missing hi
  EXPECT_FALSE(ParseEditScript("move x 1 2\n").ok());      // non-numeric
  const auto bad = ParseEditScript("move 0 1 2\nbogus\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("2"), std::string::npos);
}

TEST(EcoScriptTest, ScaleEditWindowsScalesOnlyWindows) {
  EcoEdit edit;
  edit.kind = EcoEditKind::kAddSink;
  edit.point = {3.0, 4.0};
  edit.lo = 0.5;
  edit.hi = 1.5;
  const EcoEdit scaled = ScaleEditWindows(edit, 10.0);
  EXPECT_DOUBLE_EQ(scaled.lo, 5.0);
  EXPECT_DOUBLE_EQ(scaled.hi, 15.0);
  EXPECT_DOUBLE_EQ(scaled.point.x, 3.0);  // coordinates untouched
  EXPECT_DOUBLE_EQ(scaled.point.y, 4.0);

  EcoEdit unbounded;
  unbounded.kind = EcoEditKind::kSetBounds;
  unbounded.sink = 0;
  unbounded.lo = 0.5;
  unbounded.hi = kLpInf;
  EXPECT_EQ(ScaleEditWindows(unbounded, 10.0).hi, kLpInf);
}

// Batch jobs with eco_edits run the session pipeline and report the state
// after the last edit; results stay deterministic across worker counts.
TEST(EcoBatchTest, EcoJobsMatchDirectSessionsAndStayDeterministic) {
  std::vector<BatchJob> jobs;
  for (int j = 0; j < 3; ++j) {
    BatchJob job;
    job.name = "eco" + std::to_string(j);
    job.set = RandomSinkSet(12 + j, BBox({0.0, 0.0}, {400.0, 400.0}),
                            static_cast<std::uint64_t>(31 + j), true);
    job.lower = 0.9;
    job.upper = 1.25;
    EcoEdit bounds;
    bounds.kind = EcoEditKind::kSetBounds;
    bounds.sink = 1;
    bounds.lo = 0.85;
    bounds.hi = 1.3;
    EcoEdit move;
    move.kind = EcoEditKind::kMoveSink;
    move.sink = 0;
    move.point = {50.0 + 10.0 * j, 60.0};
    EcoEdit add;
    add.kind = EcoEditKind::kAddSink;
    add.point = {200.0, 100.0 + 20.0 * j};
    add.lo = 0.0;
    add.hi = 1.4;
    job.eco_edits = {bounds, move, add};
    jobs.push_back(std::move(job));
  }
  // One job also exercises per-sink overrides on top of the uniform window.
  jobs[1].bound_overrides = {{2, 0.8, 1.35}};

  const BatchResult serial = SolveBatch(jobs, {.workers = 1});
  const BatchResult threaded = SolveBatch(jobs, {.workers = 3});
  ASSERT_EQ(serial.results.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const BatchJobResult& a = serial.results[j];
    const BatchJobResult& b = threaded.results[j];
    ASSERT_EQ(a.outcome, JobOutcome::kOk) << a.status.ToString();
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.edge_len, b.edge_len);
    EXPECT_EQ(a.lp_rows, b.lp_rows);
    // The reported tree includes the added sink (structural edit applied).
    EXPECT_EQ(a.edge_len.size(),
              static_cast<std::size_t>(2 * (jobs[j].set.sinks.size() + 1)));
  }

  // Cross-check job 0 against a directly driven session.
  const double radius = Radius(jobs[0].set.sinks, jobs[0].set.source);
  Topology topo = NnMergeTopology(jobs[0].set.sinks, jobs[0].set.source);
  std::vector<DelayBounds> bounds(jobs[0].set.sinks.size(),
                                  DelayBounds{0.9 * radius, 1.25 * radius});
  auto session = EcoSession::Create(jobs[0].set, std::move(bounds),
                                    std::move(topo), {});
  ASSERT_TRUE(session.ok());
  for (const EcoEdit& edit : jobs[0].eco_edits) {
    auto info = (*session)->Apply(ScaleEditWindows(edit, radius));
    ASSERT_TRUE(info.ok() && info->ok());
  }
  EXPECT_TRUE(CostsAgree(serial.results[0].cost, (*session)->Last().cost));
}

TEST(EcoBatchTest, InvalidOverridesAndEditsAreJobErrors) {
  BatchJob job;
  job.name = "bad-override";
  job.set = RandomSinkSet(8, BBox({0.0, 0.0}, {200.0, 200.0}), 3, true);
  job.lower = 0.9;
  job.upper = 1.2;
  job.bound_overrides = {{42, 0.5, 1.0}};  // out-of-range sink
  const BatchJobResult bad_override = SolveOneJob(job);
  EXPECT_EQ(bad_override.outcome, JobOutcome::kError);

  job.bound_overrides.clear();
  EcoEdit edit;
  edit.kind = EcoEditKind::kRemoveSink;
  edit.sink = 99;
  job.eco_edits = {edit};
  job.name = "bad-edit";
  const BatchJobResult bad_edit = SolveOneJob(job);
  EXPECT_EQ(bad_edit.outcome, JobOutcome::kError);
}

}  // namespace
}  // namespace lubt
