// Separation-oracle scaling curve: SoA octant aggregates vs the all-pairs
// brute-force scan, measured on the *real* iterates of a lazy solve, plus
// the grid-soa vs scan nearest-neighbour topology build.
//
// For each sink count one instance is built and lazily solved once with a
// wrapper oracle that, every round, runs the SoA octant oracle (serial and
// at --jobs workers) AND the brute-force reference on the identical LP
// point, times each, and demands the returned row sequences be bitwise
// identical (supports, coefficients, bounds, order). Any disagreement is a
// hard error (exit 1): the bench doubles as the oracle's correctness gate.
// End-to-end SolveEbf wall time is then measured per separation mode (no
// cross-timing interference), and NnMergeTopology is timed grid-soa vs
// scan with node-for-node equality checks.
//
// Above 2048 sinks the quadratic baselines are sampled rather than swept:
// brute force runs only on the round-0 iterate (the seed relaxation's
// solution — the most violation-dense point of the whole solve), the scan
// topology and the per-mode e2e solves are skipped, and the speedup gate
// uses the round-0 ratio. That keeps 16k sinks affordable while still
// anchoring the curve to the scalar baselines.
//
// Modes:
//   (default)      sizes 128..16384, written to BENCH_sep.json — the curve
//                  quoted in EXPERIMENTS.md. Gates: SoA >= 5x brute at
//                  1024..2048 sinks (accumulated), >= 8x at larger sizes
//                  (round-0; measured 10.6x at 4k and 14.5x at 16k on the
//                  1-core reference container). LUBT_BENCH_SCALE is
//                  deliberately ignored (engine benchmark, not a paper
//                  table).
//   --big N        the sampled large-size protocol at N sinks only
//                  (default 16384), same gates, with the lazy solve capped
//                  at 6 rounds — the gate needs the violation-dense early
//                  iterates, not convergence; the 16k smoke gate wired
//                  into tools/check.sh (default preset only).
//   --smoke        two small fixed instances, agreement gates only; fast
//                  enough for tools/check.sh and the sanitizer presets.
//
// Flags: --smoke, --big N, --seed S (default 7), --jobs N (default 4),
// --json PATH (default BENCH_sep.json; empty string disables the file).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "cts/metrics.h"
#include "ebf/formulation.h"
#include "ebf/solver.h"
#include "geom/bbox.h"
#include "io/benchmarks.h"
#include "lp/lazy_row_solver.h"
#include "topo/nn_merge.h"
#include "util/args.h"
#include "util/table.h"
#include "util/timer.h"

using namespace lubt;

namespace {

// Sizes above this get the sampled protocol: round-0 brute force only, no
// scan topology, no per-mode e2e solves (all Theta(n^2) or worse).
constexpr int kDetailCap = 2048;

struct SizeResult {
  int sinks = 0;
  bool detail = true;  ///< full quadratic baselines vs sampled protocol
  // Separation phase (accumulated over all lazy rounds, identical iterates).
  int sep_calls = 0;
  int rows_found = 0;
  double sep_soa_seconds = 0.0;  ///< SoA path, serial
  double sep_soa_jobs_seconds = 0.0;
  double sep_brute_seconds = 0.0;  ///< accumulated (detail) / round 0 only
  double sep_r0_soa_seconds = 0.0;
  double sep_r0_brute_seconds = 0.0;
  bool rows_agree = true;
  // End-to-end solves, one per mode (detail sizes only).
  double e2e_soa_seconds = 0.0;
  double e2e_brute_seconds = 0.0;
  double e2e_soa_objective = 0.0;
  double e2e_brute_objective = 0.0;
  bool objectives_agree = true;
  // Topology construction.
  double topo_gridsoa_seconds = 0.0;
  double topo_scan_seconds = 0.0;
  bool topo_agree = true;

  double SepSpeedup() const {
    return sep_soa_seconds > 0.0 ? sep_brute_seconds / sep_soa_seconds : 0.0;
  }
  double R0Speedup() const {
    return sep_r0_soa_seconds > 0.0
               ? sep_r0_brute_seconds / sep_r0_soa_seconds
               : 0.0;
  }
};

bool SameRows(const std::vector<SparseRow>& a,
              const std::vector<SparseRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].index != b[r].index || a[r].value != b[r].value ||
        a[r].lo != b[r].lo || a[r].hi != b[r].hi) {
      return false;
    }
  }
  return true;
}

bool SameTopology(const Topology& a, const Topology& b) {
  if (a.NumNodes() != b.NumNodes() || a.Root() != b.Root() ||
      a.Mode() != b.Mode()) {
    return false;
  }
  for (NodeId v = 0; v < a.NumNodes(); ++v) {
    const TopoNode& na = a.Node(v);
    const TopoNode& nb = b.Node(v);
    if (na.parent != nb.parent || na.left != nb.left ||
        na.right != nb.right || na.sink != nb.sink) {
      return false;
    }
  }
  return true;
}

bool RunSize(int sinks, std::uint64_t seed, int jobs, int max_rounds,
             SizeResult* out) {
  const SinkSet set = RandomSinkSet(
      sinks, BBox({0.0, 0.0}, {1000.0, 1000.0}), seed, /*with_source=*/true);
  const double radius = Radius(set.sinks, set.source);

  out->sinks = sinks;
  out->detail = sinks <= kDetailCap;

  // Topology: grid-soa (the default) vs scan, timed, node-for-node equal.
  // The scan baseline is quadratic and only run on detail sizes.
  Timer topo_timer;
  const Topology topo =
      NnMergeTopology(set.sinks, set.source, NnMergeAccel::kGridSoa);
  out->topo_gridsoa_seconds = topo_timer.Seconds();
  if (out->detail) {
    topo_timer.Restart();
    const Topology topo_scan =
        NnMergeTopology(set.sinks, set.source, NnMergeAccel::kScan);
    out->topo_scan_seconds = topo_timer.Seconds();
    if (!SameTopology(topo, topo_scan)) {
      std::fprintf(stderr, "FAIL %d sinks: grid-soa topology != scan\n",
                   sinks);
      out->topo_agree = false;
    }
  }

  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  prob.bounds.assign(set.sinks.size(), DelayBounds{0.9 * radius, 1.2 * radius});

  const EbfSolveOptions defaults;  // tol / row cap / round cap knobs

  // One lazy solve through a wrapper oracle that runs every separation
  // variant on the identical iterate and gates on exact agreement.
  {
    Result<EbfFormulation> built =
        EbfFormulation::Build(prob, SteinerRowPolicy::kSeed);
    if (!built.ok()) {
      std::fprintf(stderr, "FAIL %d sinks: %s\n", sinks,
                   built.status().ToString().c_str());
      return false;
    }
    EbfFormulation& f = *built;
    const RowOracle oracle = [&](std::span<const double> x) {
      // Untimed warm-up on the first iterate: grows the formulation's
      // scratch buffers so every timed call below runs in steady state.
      if (out->sep_calls == 0) {
        (void)f.FindViolatedSteinerRows(x, defaults.separation_tol,
                                        defaults.max_rows_per_round,
                                        {SeparationMode::kOctantSoa, 1});
      }
      Timer t;
      auto soa = f.FindViolatedSteinerRows(
          x, defaults.separation_tol, defaults.max_rows_per_round,
          {SeparationMode::kOctantSoa, 1});
      const double soa_seconds = t.Seconds();
      out->sep_soa_seconds += soa_seconds;
      t.Restart();
      const auto threaded = f.FindViolatedSteinerRows(
          x, defaults.separation_tol, defaults.max_rows_per_round,
          {SeparationMode::kOctantSoa, jobs});
      out->sep_soa_jobs_seconds += t.Seconds();
      const bool run_brute = out->detail || out->sep_calls == 0;
      if (out->sep_calls == 0) out->sep_r0_soa_seconds = soa_seconds;
      if (run_brute) {
        t.Restart();
        const auto brute = f.FindViolatedSteinerRows(
            x, defaults.separation_tol, defaults.max_rows_per_round,
            {SeparationMode::kBruteForce, 1});
        const double brute_seconds = t.Seconds();
        out->sep_brute_seconds += brute_seconds;
        if (out->sep_calls == 0) out->sep_r0_brute_seconds = brute_seconds;
        if (!SameRows(soa, brute)) {
          std::fprintf(stderr,
                       "FAIL %d sinks: soa rows != brute in round %d\n",
                       sinks, out->sep_calls);
          out->rows_agree = false;
        }
      }
      if (!SameRows(soa, threaded)) {
        std::fprintf(stderr,
                     "FAIL %d sinks: serial and threaded rows disagree in "
                     "round %d\n",
                     sinks, out->sep_calls);
        out->rows_agree = false;
      }
      ++out->sep_calls;
      out->rows_found += static_cast<int>(soa.size());
      return soa;
    };
    LazySolveStats stats;
    const int rounds =
        max_rounds > 0 ? max_rounds : defaults.max_lazy_rounds;
    const LpSolution lp = SolveWithLazyRows(f.MutableModel(), oracle,
                                            defaults.lp, rounds, &stats);
    // A capped run (--big) is expected to hit the round limit while rows
    // remain violated; that is not a failure of the oracle under test.
    const bool ran_out = max_rounds > 0 && out->sep_calls == rounds;
    if (!lp.ok() && !ran_out) {
      std::fprintf(stderr, "FAIL %d sinks: lazy solve: %s\n", sinks,
                   lp.status.ToString().c_str());
      return false;
    }
  }

  // End-to-end wall time per mode, free of cross-timing interference
  // (detail sizes only: the brute solve is quadratic per round).
  if (out->detail) {
    for (const SeparationMode mode :
         {SeparationMode::kOctantSoa, SeparationMode::kBruteForce}) {
      EbfSolveOptions opt;
      opt.separation = mode;
      opt.separation_jobs = 1;
      opt.use_zero_skew_fast_path = false;
      const EbfSolveResult r = SolveEbf(prob, opt);
      if (!r.ok()) {
        std::fprintf(stderr, "FAIL %d sinks e2e %s: %s\n", sinks,
                     SeparationModeName(mode), r.status.ToString().c_str());
        return false;
      }
      if (mode == SeparationMode::kOctantSoa) {
        out->e2e_soa_seconds = r.seconds;
        out->e2e_soa_objective = r.objective;
      } else {
        out->e2e_brute_seconds = r.seconds;
        out->e2e_brute_objective = r.objective;
      }
    }
    const double ref = out->e2e_soa_objective;
    const double other = out->e2e_brute_objective;
    if (std::abs(other - ref) > 1e-6 * (1.0 + std::abs(ref))) {
      std::fprintf(stderr,
                   "FAIL %d sinks: e2e objectives disagree (%.12g vs %.12g)\n",
                   sinks, ref, other);
      out->objectives_agree = false;
    }
  }
  return out->rows_agree && out->objectives_agree && out->topo_agree;
}

void WriteJson(const std::string& path, const std::string& mode, int jobs,
               const std::vector<SizeResult>& all) {
  std::FILE* f = bench::OpenBenchJson(path, "separation_scaling", mode);
  if (f == nullptr) return;
  std::fprintf(f, "  \"jobs\": %d,\n  \"sizes\": [\n", jobs);
  for (std::size_t s = 0; s < all.size(); ++s) {
    const SizeResult& r = all[s];
    std::fprintf(
        f,
        "    {\"sinks\": %d, \"detail\": %s, \"sep_calls\": %d, "
        "\"rows_found\": %d,\n"
        "     \"sep_soa_seconds\": %.6f, "
        "\"sep_soa_jobs_seconds\": %.6f, \"sep_brute_seconds\": %.6f,\n"
        "     \"sep_r0_soa_seconds\": %.6f, \"sep_r0_brute_seconds\": %.6f, "
        "\"sep_speedup\": %.2f, \"sep_r0_speedup\": %.2f,\n"
        "     \"e2e_soa_seconds\": %.6f, "
        "\"e2e_brute_seconds\": %.6f, \"objective\": %.12g,\n"
        "     \"topo_gridsoa_seconds\": %.6f, "
        "\"topo_scan_seconds\": %.6f, \"rows_agree\": %s, "
        "\"topo_agree\": %s}%s\n",
        r.sinks, r.detail ? "true" : "false", r.sep_calls, r.rows_found,
        r.sep_soa_seconds, r.sep_soa_jobs_seconds, r.sep_brute_seconds,
        r.sep_r0_soa_seconds, r.sep_r0_brute_seconds, r.SepSpeedup(),
        r.R0Speedup(), r.e2e_soa_seconds, r.e2e_brute_seconds,
        r.e2e_soa_objective, r.topo_gridsoa_seconds, r.topo_scan_seconds,
        r.rows_agree ? "true" : "false", r.topo_agree ? "true" : "false",
        s + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("(results also written to %s)\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = ArgParser::Parse(
      argc, argv, {"smoke", "big", "seed", "jobs", "json", "help"});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  if (parsed->Has("help")) {
    std::printf(
        "separation_scaling: soa octant vs brute-force oracle + "
        "grid-soa/scan topology\n"
        "  --smoke      small fixed instances, agreement gates only\n"
        "  --big N      sampled large-size protocol at N sinks only "
        "(default 16384)\n"
        "  --seed S     instance seed (default 7)\n"
        "  --jobs N     octant oracle worker threads (default 4)\n"
        "  --json PATH  output file (default BENCH_sep.json; '' disables)\n");
    return 0;
  }
  const bool smoke = parsed->Has("smoke");
  const bool big = parsed->Has("big");
  const Result<int> seed = parsed->GetIntFlag("seed", 7, 0);
  const Result<int> jobs = parsed->GetIntFlag("jobs", 4, 1);
  const Result<int> big_sinks = parsed->GetIntFlag("big", 16384, 1);
  if (!seed.ok() || !jobs.ok() || !big_sinks.ok()) {
    std::fprintf(stderr, "bad --seed/--jobs/--big\n");
    return 2;
  }
  const std::string json =
      parsed->GetString("json", smoke || big ? "" : "BENCH_sep.json");

  const std::vector<int> sizes =
      smoke ? std::vector<int>{48, 96}
            : big ? std::vector<int>{*big_sinks}
                  : std::vector<int>{128, 256, 512, 1024, 2048, 8192, 16384};

  std::vector<SizeResult> all;
  bool ok = true;
  TextTable table({"sinks", "rounds", "rows", "sep_soa(s)", "sep_par(s)",
                   "sep_brute(s)", "speedup", "e2e_soa(s)", "e2e_brute(s)",
                   "topo_soa(s)", "topo_scan(s)"});
  for (const int sinks : sizes) {
    SizeResult sr;
    if (!RunSize(sinks, static_cast<std::uint64_t>(*seed), *jobs,
                 big ? 6 : 0, &sr)) {
      ok = false;
    }
    table.AddRow({std::to_string(sr.sinks), std::to_string(sr.sep_calls),
                  std::to_string(sr.rows_found),
                  FormatDouble(sr.sep_soa_seconds, 4),
                  FormatDouble(sr.sep_soa_jobs_seconds, 4),
                  FormatDouble(sr.sep_brute_seconds, 4),
                  FormatDouble(sr.detail ? sr.SepSpeedup() : sr.R0Speedup(),
                               1),
                  FormatDouble(sr.e2e_soa_seconds, 3),
                  FormatDouble(sr.e2e_brute_seconds, 3),
                  FormatDouble(sr.topo_gridsoa_seconds, 4),
                  FormatDouble(sr.topo_scan_seconds, 4)});
    all.push_back(std::move(sr));
  }

  std::printf("\n=== Separation oracle + topology scaling ===\n%s",
              table.ToString().c_str());
  WriteJson(json, smoke ? "smoke" : big ? "big" : "full", *jobs, all);

  if (!smoke) {
    // Headline + hard gates. Detail sizes compare accumulated separation
    // time; sampled sizes compare the round-0 call (the densest iterate).
    for (const SizeResult& r : all) {
      if (r.sinks < 1024) continue;
      if (r.detail) {
        std::printf(
            "%d sinks: separation %.4fs soa vs %.4fs brute (%.1fx), "
            "e2e %.3fs vs %.3fs\n",
            r.sinks, r.sep_soa_seconds, r.sep_brute_seconds, r.SepSpeedup(),
            r.e2e_soa_seconds, r.e2e_brute_seconds);
        if (r.SepSpeedup() < 5.0) {
          std::fprintf(stderr,
                       "FAIL %d sinks: separation speedup %.2fx < 5x gate\n",
                       r.sinks, r.SepSpeedup());
          ok = false;
        }
      } else {
        std::printf(
            "%d sinks: round-0 separation %.4fs soa vs %.4fs brute "
            "(%.1fx), full-solve soa %.4fs over %d rounds\n",
            r.sinks, r.sep_r0_soa_seconds, r.sep_r0_brute_seconds,
            r.R0Speedup(), r.sep_soa_seconds, r.sep_calls);
        if (r.R0Speedup() < 8.0) {
          std::fprintf(
              stderr,
              "FAIL %d sinks: round-0 separation speedup %.2fx < 8x gate\n",
              r.sinks, r.R0Speedup());
          ok = false;
        }
      }
    }
  }
  if (!ok) {
    std::fprintf(stderr, "separation_scaling: FAILED\n");
    return 1;
  }
  std::printf("separation_scaling: OK\n");
  return 0;
}
