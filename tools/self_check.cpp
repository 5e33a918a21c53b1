// Randomized end-to-end self-check of the topology → EBF → LP → embed
// pipeline with every src/check validator enabled unconditionally.
//
// Each seed draws a random instance (uniform or clustered sinks, fixed or
// free source, NN-merge or MST topology), a random bounds regime, and a
// random solver configuration, then asserts the full invariant chain:
//
//   ValidateTopology      on the generated topology,
//   ValidateModel         on the built LP (via SolveLp's boundary gate),
//   ValidateEdgeLengths   on the solved lengths (Steiner + delay windows),
//   ValidateEmbedding     on the placed tree (realizability + bounds),
//
// and that deliberately infeasible windows are *reported* as kInfeasible
// rather than mis-solved. This binary is the designated workload for the
// asan/ubsan presets (tools/check.sh) and runs under ctest at small scale,
// so every sanitizer finding or invariant break fails the pre-merge gate.

#include <cstdio>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "cts/bounded_skew_dme.h"
#include "runtime/thread_pool.h"
#include "cts/metrics.h"
#include "ebf/solver.h"
#include "eco/eco_session.h"
#include "embed/placer.h"
#include "geom/bbox.h"
#include "io/benchmarks.h"
#include "topo/mst.h"
#include "topo/nn_merge.h"
#include "topo/validate.h"
#include "util/args.h"
#include "util/rng.h"

namespace lubt {
namespace {

// One of the bounds regimes a seed can draw.
enum class BoundsRegime {
  kAchievedWindow,  // baseline tree's achieved [min, max] delays (feasible)
  kSteinerOnly,     // l = 0, u = inf (plain Steiner objective, feasible)
  kZeroSkew,        // l = u = achieved max delay (feasible, fast-path prone)
  kInfeasible,      // u below the farthest sink's distance (must reject)
};

const char* RegimeName(BoundsRegime regime) {
  switch (regime) {
    case BoundsRegime::kAchievedWindow:
      return "achieved-window";
    case BoundsRegime::kSteinerOnly:
      return "steiner-only";
    case BoundsRegime::kZeroSkew:
      return "zero-skew";
    case BoundsRegime::kInfeasible:
      return "infeasible";
  }
  return "unknown";
}

struct CaseConfig {
  std::uint64_t seed = 0;
  int num_sinks = 0;
  bool clustered = false;
  bool with_source = false;
  bool mst_topology = false;
  /// NN-merge backend when !mst_topology (grid-soa / grid / scan draw).
  NnMergeAccel nn_accel = NnMergeAccel::kGridSoa;
  BoundsRegime regime = BoundsRegime::kAchievedWindow;
  EbfSolveOptions options;
  /// When > 0, follow the cold solve with this many random ECO edits, each
  /// cross-checked against a cold solve of the edited instance.
  int eco_ops = 0;
};

std::string Describe(const CaseConfig& c) {
  std::string out = "seed " + std::to_string(c.seed) + ": m=" +
                    std::to_string(c.num_sinks);
  out += c.clustered ? " clustered" : " uniform";
  out += c.with_source ? " fixed-source" : " free-source";
  out += c.mst_topology ? " mst"
                        : std::string(" nn-") + NnMergeAccelName(c.nn_accel);
  out += std::string(" ") + RegimeName(c.regime);
  out += std::string(" ") + LpEngineName(c.options.lp.engine);
  if (c.options.lp.engine == LpEngine::kInteriorPoint) {
    out += std::string("/") + IpmFactorModeName(c.options.lp.factor_mode);
  }
  out += std::string(" ") + EbfStrategyName(c.options.strategy);
  if (c.options.strategy == EbfStrategy::kLazy) {
    out += std::string(" sep=") + SeparationModeName(c.options.separation);
  }
  return out;
}

// Draw every stochastic choice for one seed.
CaseConfig DrawCase(std::uint64_t seed, int min_sinks, int max_sinks) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  CaseConfig c;
  c.seed = seed;
  c.num_sinks = rng.UniformInt(min_sinks, max_sinks);
  c.clustered = rng.Bernoulli(0.3);
  c.with_source = rng.Bernoulli(0.6);
  c.mst_topology = rng.Bernoulli(0.3);
  const double regime_draw = rng.Uniform();
  if (regime_draw < 0.4) {
    c.regime = BoundsRegime::kAchievedWindow;
  } else if (regime_draw < 0.6) {
    c.regime = BoundsRegime::kSteinerOnly;
  } else if (regime_draw < 0.8) {
    c.regime = BoundsRegime::kZeroSkew;
  } else {
    c.regime = BoundsRegime::kInfeasible;
  }
  // Simplex tableaus are dense; cap it to small instances.
  c.options.lp.engine = (c.num_sinks <= 24 && rng.Bernoulli(0.4))
                            ? LpEngine::kSimplex
                            : LpEngine::kInteriorPoint;
  const double strategy_draw = rng.Uniform();
  if (c.num_sinks <= 24 && strategy_draw < 0.3) {
    c.options.strategy = EbfStrategy::kFullRows;
  } else if (c.num_sinks <= 32 && strategy_draw < 0.5) {
    c.options.strategy = EbfStrategy::kReducedRows;
  } else {
    c.options.strategy = EbfStrategy::kLazy;
  }
  c.options.use_zero_skew_fast_path = rng.Bernoulli(0.7);
  // Mostly the SoA octant oracle (the default), with a brute-force slice so
  // the sanitizers keep covering the reference path too. Same two-way split
  // for the NN-merge backend (grid SoA vs scan), and a
  // supernodal-vs-simplicial draw for the interior-point Cholesky — any
  // divergence shows up as a validator or cross-check failure downstream.
  c.options.separation = rng.Uniform() < 0.25 ? SeparationMode::kBruteForce
                                              : SeparationMode::kOctantSoa;
  c.nn_accel = rng.Uniform() < 0.25 ? NnMergeAccel::kScan
                                    : NnMergeAccel::kGridSoa;
  c.options.lp.factor_mode = rng.Bernoulli(0.3) ? IpmFactorMode::kSimplicial
                                                : IpmFactorMode::kSupernodal;
  return c;
}

// One random edit for the ECO stream. Edits are drawn so they are always
// well-formed (never rejected by Apply); they may still make the instance
// infeasible, which the session must then *report*, matching the cold side.
EcoEdit DrawEcoEdit(Rng& rng, const EcoSession& session, const BBox& die,
                    double radius) {
  const int m = session.NumSinks();
  const int min_sinks =
      session.Topo().Mode() == RootMode::kFreeSource ? 2 : 1;
  EcoEdit e;
  const double kind_draw = rng.Uniform();
  if (kind_draw < 0.35) {
    e.kind = EcoEditKind::kMoveSink;
    e.sink = rng.UniformInt(0, m - 1);
    e.point = {rng.Uniform(die.Lo().x, die.Hi().x),
               rng.Uniform(die.Lo().y, die.Hi().y)};
  } else if (kind_draw < 0.60) {
    e.kind = EcoEditKind::kSetBounds;
    e.sink = rng.UniformInt(0, m - 1);
    e.lo = rng.Uniform(0.0, 0.8) * radius;
    e.hi = rng.Bernoulli(0.2) ? kLpInf
                              : e.lo + rng.Uniform(0.1, 1.2) * radius;
  } else if (kind_draw < 0.70) {
    e.kind = EcoEditKind::kShiftWindow;
    e.lo = rng.Uniform(-0.1, 0.1) * radius;
    e.hi = e.lo + rng.Uniform(0.0, 0.2) * radius;
    // A shift that would invert some window is rejected as malformed; fall
    // back to a pure relaxation, which is always valid.
    for (const DelayBounds& b : session.Bounds()) {
      if (!std::isfinite(b.hi)) continue;
      if (std::max(0.0, b.lo + e.lo) > b.hi + e.hi) {
        e.lo = 0.0;
        e.hi = 0.05 * radius;
        break;
      }
    }
  } else if (kind_draw < 0.85 || m - 1 < min_sinks) {
    e.kind = EcoEditKind::kAddSink;
    e.point = {rng.Uniform(die.Lo().x, die.Hi().x),
               rng.Uniform(die.Lo().y, die.Hi().y)};
    e.lo = 0.0;
    e.hi = rng.Bernoulli(0.3) ? kLpInf : rng.Uniform(0.8, 1.6) * radius;
  } else {
    e.kind = EcoEditKind::kRemoveSink;
    e.sink = rng.UniformInt(0, m - 1);
  }
  return e;
}

// Streams `c.eco_ops` random edits through an EcoSession seeded with the
// case's instance and cross-checks every incremental solve against
// ColdReferenceSolve — the incremental ≡ cold contract under sanitizers.
std::string RunEcoStream(const CaseConfig& c, const SinkSet& set,
                         const Topology& topo,
                         const std::vector<DelayBounds>& bounds,
                         const BBox& die) {
  EcoOptions opt;
  opt.solve = c.options;
  auto created = EcoSession::Create(set, bounds, topo, opt);
  if (!created.ok()) {
    return "EcoSession::Create: " + created.status().ToString();
  }
  EcoSession& session = **created;
  const double radius = session.InitialRadius();
  Rng rng(c.seed * 0x51f15eed00d5eedULL + 7);
  for (int op = 0; op < c.eco_ops; ++op) {
    const EcoEdit edit = DrawEcoEdit(rng, session, die, radius);
    const std::string where = "eco op " + std::to_string(op + 1) + " (" +
                              EcoEditKindName(edit.kind) + ", tier ";
    auto info = session.Apply(edit);
    if (!info.ok()) {
      return "eco apply " + std::string(EcoEditKindName(edit.kind)) + ": " +
             info.status().ToString();
    }
    const std::string ctx = where + EcoTierName(info->tier) + ")";
    const EbfSolveResult cold = ColdReferenceSolve(session);
    if (info->ok() != cold.ok()) {
      return ctx + ": incremental " + info->status.ToString() +
             " but cold " + cold.status.ToString();
    }
    if (!info->ok()) {
      if (info->status.code() != StatusCode::kInfeasible ||
          cold.status.code() != StatusCode::kInfeasible) {
        return ctx + ": non-infeasible failure (incremental " +
               info->status.ToString() + ", cold " + cold.status.ToString() +
               ")";
      }
      continue;
    }
    const double tol = 1e-5 * std::max(1.0, std::abs(cold.cost));
    if (std::abs(info->cost - cold.cost) > tol) {
      return ctx + ": cost " + std::to_string(info->cost) + " vs cold " +
             std::to_string(cold.cost);
    }
    const Status lengths_ok =
        ValidateEdgeLengths(session.Problem(), session.EdgeLengths());
    if (!lengths_ok.ok()) {
      return ctx + ": ValidateEdgeLengths: " + lengths_ok.ToString();
    }
  }
  return "";
}

// Returns an error description, or the empty string when the case passes.
std::string RunCase(const CaseConfig& c, bool quiet) {
  const BBox die({0.0, 0.0}, {1000.0, 1000.0});
  const SinkSet set =
      c.clustered ? ClusteredSinkSet(c.num_sinks, 4, die, c.seed, c.with_source)
                  : RandomSinkSet(c.num_sinks, die, c.seed, c.with_source);

  const Topology topo =
      c.mst_topology
          ? MstBinaryTopology(set.sinks, set.source)
          : NnMergeTopology(set.sinks, set.source, c.nn_accel);
  const Status topo_ok =
      ValidateTopology(topo, static_cast<int>(set.sinks.size()));
  if (!topo_ok.ok()) return "ValidateTopology: " + topo_ok.ToString();

  // A feasible reference window comes from the bounded-skew baseline on the
  // same topology (its achieved delays are achievable by construction).
  const double radius = Radius(set.sinks, set.source);
  auto base = BoundedSkewOnTopology(topo, set.sinks, set.source, 0.5 * radius);
  if (!base.ok()) return "BoundedSkewOnTopology: " + base.status().ToString();

  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  bool expect_feasible = true;
  switch (c.regime) {
    case BoundsRegime::kAchievedWindow:
      prob.bounds.assign(set.sinks.size(),
                         DelayBounds{base->min_delay, base->max_delay});
      break;
    case BoundsRegime::kSteinerOnly:
      prob.bounds.assign(set.sinks.size(), DelayBounds{0.0, kLpInf});
      break;
    case BoundsRegime::kZeroSkew:
      prob.bounds.assign(set.sinks.size(),
                         DelayBounds{base->max_delay, base->max_delay});
      break;
    case BoundsRegime::kInfeasible:
      // No tree can deliver below half the farthest fixed-point distance
      // (Steiner rows force path >= distance), so this window must be
      // reported infeasible, never "solved".
      prob.bounds.assign(set.sinks.size(), DelayBounds{0.0, 0.45 * radius});
      expect_feasible = false;
      break;
  }

  const EbfSolveResult solved = SolveEbf(prob, c.options);
  if (!expect_feasible) {
    if (solved.ok()) return "infeasible window was claimed solved";
    if (solved.status.code() != StatusCode::kInfeasible) {
      return "infeasible window misreported as " + solved.status.ToString();
    }
    if (c.eco_ops > 0) {
      // Infeasible start: the session must report kInfeasible too, and
      // edits may later restore feasibility (the cold-rebuild tier).
      const std::string eco = RunEcoStream(c, set, topo, prob.bounds, die);
      if (!eco.empty()) return eco;
    }
    if (!quiet) std::printf("ok   %s rejected as infeasible\n", Describe(c).c_str());
    return "";
  }
  if (!solved.ok()) return "SolveEbf: " + solved.status.ToString();

  const Status lengths_ok = ValidateEdgeLengths(prob, solved.edge_len);
  if (!lengths_ok.ok()) {
    return "ValidateEdgeLengths: " + lengths_ok.ToString();
  }

  const PlacementRule rule = (c.seed % 2 == 0) ? PlacementRule::kClosestToParent
                                               : PlacementRule::kCenter;
  auto embedding =
      EmbedTree(topo, set.sinks, set.source, solved.edge_len, rule);
  if (!embedding.ok()) return "EmbedTree: " + embedding.status().ToString();

  const Status embed_ok =
      ValidateEmbedding(prob, solved.edge_len, embedding->location);
  if (!embed_ok.ok()) return "ValidateEmbedding: " + embed_ok.ToString();

  if (c.eco_ops > 0) {
    const std::string eco = RunEcoStream(c, set, topo, prob.bounds, die);
    if (!eco.empty()) return eco;
  }

  if (!quiet) {
    std::printf("ok   %s cost=%.1f rows=%d\n", Describe(c).c_str(),
                solved.cost, solved.lp_rows);
  }
  return "";
}

int Run(int argc, const char* const* argv) {
  Result<ArgParser> args = ArgParser::Parse(
      argc, argv,
      {"seeds", "start-seed", "min-sinks", "max-sinks", "jobs", "eco-ops",
       "quiet", "help"});
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 2;
  }
  if (args->Has("help")) {
    std::printf(
        "self_check: randomized LP -> embed pipeline property driver\n"
        "  --seeds N       number of random cases (default 8)\n"
        "  --start-seed S  first seed (default 1)\n"
        "  --min-sinks M   smallest instance (default 4)\n"
        "  --max-sinks M   largest instance (default 40)\n"
        "  --jobs N        run cases on N worker threads (0 = hardware)\n"
        "  --eco-ops N     per case, stream N random ECO edits through an\n"
        "                  EcoSession and cross-check each against a cold\n"
        "                  solve (default 0 = off)\n"
        "  --quiet         only print failures and the summary\n");
    return 0;
  }
  const Result<int> seeds = args->GetIntFlag("seeds", 8, 1);
  const Result<int> start = args->GetIntFlag("start-seed", 1, 0);
  const Result<int> min_sinks = args->GetIntFlag("min-sinks", 4, 2);
  const Result<int> max_sinks = args->GetIntFlag("max-sinks", 40, 2);
  const Result<int> jobs = args->GetJobsFlag(1);
  const Result<int> eco_ops = args->GetIntFlag("eco-ops", 0, 0);
  const bool quiet = args->GetBool("quiet", false);
  for (const Result<int>* flag : {&seeds, &start, &min_sinks, &max_sinks,
                                  &jobs, &eco_ops}) {
    if (!flag->ok()) {
      std::fprintf(stderr, "%s\n", flag->status().ToString().c_str());
      return 2;
    }
  }
  if (*max_sinks < *min_sinks) {
    std::fprintf(stderr, "--max-sinks below --min-sinks\n");
    return 2;
  }

  // With --jobs > 1 the cases run concurrently on the runtime's pool — the
  // designated tsan workload for the whole pipeline. Per-case chatter is
  // suppressed and errors are collected per slot, so output stays in seed
  // order regardless of scheduling.
  std::vector<CaseConfig> cases;
  cases.reserve(static_cast<std::size_t>(*seeds));
  for (int s = 0; s < *seeds; ++s) {
    cases.push_back(DrawCase(static_cast<std::uint64_t>(*start + s),
                             *min_sinks, *max_sinks));
    // Parallel sweeps also parallelize each case's separation, so the tsan
    // lane exercises the octant oracle's bucket fan-out under concurrent
    // solves. Results are worker-count invariant by contract.
    cases.back().options.separation_jobs = *jobs;
    cases.back().eco_ops = *eco_ops;
  }
  std::vector<std::string> errors(cases.size());
  const bool parallel = *jobs > 1;
  ParallelFor(*seeds, *jobs, [&](int s) {
    errors[static_cast<std::size_t>(s)] =
        RunCase(cases[static_cast<std::size_t>(s)], quiet || parallel);
  });

  int failures = 0;
  for (std::size_t s = 0; s < cases.size(); ++s) {
    if (errors[s].empty()) continue;
    ++failures;
    std::fprintf(stderr, "FAIL %s\n     %s\n", Describe(cases[s]).c_str(),
                 errors[s].c_str());
  }
  std::printf("self_check: %d/%d cases passed (%d worker%s)\n",
              *seeds - failures, *seeds, *jobs, *jobs == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lubt

int main(int argc, char** argv) { return lubt::Run(argc, argv); }
