// LP engine scaling curve: cold vs warm-started lazy rounds of the
// interior point on EBF instances of growing size — plus the factor-kernel
// curve (supernodal vs simplicial sparse Cholesky) that pushes the envelope
// to 16k sinks.
//
// For each sink count the same instance (topology + delay window) is solved
// twice — cold and warm lazy rounds — and the wall time, its lp/separation
// phase split, total interior-point iterations, lazy rounds and objective
// are reported. The two objectives must agree to 1e-6 relative;
// disagreement is a hard error (exit 1), which makes the bench double as a
// correctness gate.
//
// The kernel phase isolates the Newton-step bottleneck: one symbolic
// analysis per instance, then repeated numeric Factor() calls per
// IpmFactorMode on identical scalings, best-of-N timed. The analysis itself
// is timed the same way (analyze_ms, best of N Analyze() calls, no gate):
// every lazy round that TryExtend cannot keep pays it again. Both modes must
// produce the same Solve() result to 1e-6 relative (the factorizations
// differ only in update-summation grouping). Both kernels are serial; the
// supernodal kernel must clear the blocked-kernel floor of 1.1x at >= 4096
// sinks (recorded speedups run 1.1-1.8x; the floor leaves noise margin),
// and only a no-regression floor (0.85x) applies at <= 512 sinks.
//
// Modes:
//   (default)      e2e sizes 64..512 plus kernel sizes 512..16384, written
//                  to BENCH_lp.json — the curves quoted in EXPERIMENTS.md.
//                  Sizes are explicit (this is an engine benchmark, not a
//                  paper table), so LUBT_BENCH_SCALE is deliberately
//                  ignored.
//   --kernel       kernel phase only, sizes {4096, 16384}, with the
//                  speedup + equivalence gates; the 16k smoke gate wired
//                  into tools/check.sh (default preset only — sanitizer
//                  builds are not timings).
//   --smoke        small fixed instances, agreement + mode-equivalence
//                  checks only (no timing gates); fast enough for
//                  tools/check.sh and the sanitizer presets.
//
// Flags: --smoke, --kernel, --seed S (default 7), --json PATH (default
// BENCH_lp.json; empty string disables the file).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "cts/metrics.h"
#include "ebf/formulation.h"
#include "ebf/solver.h"
#include "geom/bbox.h"
#include "io/benchmarks.h"
#include "lp/sparse_chol.h"
#include "topo/nn_merge.h"
#include "util/args.h"
#include "util/table.h"
#include "util/timer.h"

using namespace lubt;

namespace {

struct VariantResult {
  std::string name;
  bool warm = false;
  Status status;
  double seconds = 0.0;
  double lp_seconds = 0.0;   ///< inside the LP engine, all lazy rounds
  double sep_seconds = 0.0;  ///< inside the separation oracle, all rounds
  double objective = 0.0;
  int lp_iterations = 0;
  int lazy_rounds = 0;
  int symbolic_reuses = 0;
  int warm_rounds = 0;
  int lp_rows = 0;
  int lp_cols = 0;
};

struct SizeResult {
  int sinks = 0;
  std::vector<VariantResult> variants;
};

// One instance's factor-kernel measurement: repeated numeric refactors on a
// shared symbolic analysis, per mode.
struct KernelResult {
  int sinks = 0;
  int cols = 0;
  int reps = 0;
  double analyze_ms = 0.0;     ///< best-of-reps single Analyze() wall time
  double supernodal_ms = 0.0;  ///< best-of-reps single Factor() wall time
  double simplicial_ms = 0.0;
  std::int64_t fill_nnz = 0;
  std::int64_t panel_nnz = 0;
  int supernodes = 0;
  double solve_rel_diff = 0.0;  ///< max rel component diff, sup vs simp
  bool ok = true;

  double Speedup() const {
    return supernodal_ms > 0.0 ? simplicial_ms / supernodal_ms : 0.0;
  }
};

VariantResult RunVariant(const EbfProblem& prob, bool warm) {
  VariantResult out;
  out.warm = warm;
  out.name = warm ? "warm" : "cold";
  EbfSolveOptions opt;
  opt.strategy = EbfStrategy::kLazy;
  opt.lp.engine = LpEngine::kInteriorPoint;
  opt.lp.warm_start_lazy_rounds = warm;
  // The zero-skew shortcut would bypass the LP entirely; the ranged windows
  // below never trigger it, but keep the intent explicit.
  opt.use_zero_skew_fast_path = false;
  const EbfSolveResult r = SolveEbf(prob, opt);
  out.status = r.status;
  out.seconds = r.seconds;
  out.lp_seconds = r.lazy_stats.lp_seconds;
  out.sep_seconds = r.lazy_stats.separation_seconds;
  out.objective = r.objective;
  out.lp_iterations = r.lazy_stats.lp_iterations;
  out.lazy_rounds = r.lazy_rounds;
  out.symbolic_reuses = r.lazy_stats.symbolic_reuses;
  out.warm_rounds = r.lazy_stats.warm_rounds;
  out.lp_rows = r.lp_rows;
  return out;
}

// Solve one instance cold and warm; returns false on any failure or
// objective disagreement.
bool RunSize(int sinks, std::uint64_t seed, SizeResult* out) {
  SinkSet set = RandomSinkSet(sinks, BBox({0.0, 0.0}, {1000.0, 1000.0}), seed,
                              /*with_source=*/true);
  const double radius = Radius(set.sinks, set.source);
  Topology topo = NnMergeTopology(set.sinks, set.source);
  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  prob.bounds.assign(set.sinks.size(),
                     DelayBounds{0.9 * radius, 1.2 * radius});

  out->sinks = sinks;
  bool ok = true;
  for (const bool warm : {false, true}) {
    VariantResult v = RunVariant(prob, warm);
    v.lp_cols = topo.NumEdges();
    if (!v.status.ok()) {
      std::fprintf(stderr, "FAIL %d sinks %s: %s\n", sinks, v.name.c_str(),
                   v.status.ToString().c_str());
      ok = false;
    }
    out->variants.push_back(std::move(v));
  }
  if (!ok) return false;

  const double ref = out->variants.front().objective;
  for (const VariantResult& v : out->variants) {
    if (std::abs(v.objective - ref) > 1e-6 * (1.0 + std::abs(ref))) {
      std::fprintf(stderr,
                   "FAIL %d sinks: %s objective %.12g disagrees with %s "
                   "%.12g\n",
                   sinks, v.name.c_str(), v.objective,
                   out->variants.front().name.c_str(), ref);
      ok = false;
    }
  }
  return ok;
}

// Time repeated numeric Factor() calls on the seed formulation's compiled
// matrix, per factor mode, sharing one symbolic analysis per mode object —
// the same shape every warm lazy round and every ECO re-solve hits. The
// row/column scalings are a deterministic mid-iterate-like profile; only
// their pattern matters for the kernel.
bool RunKernel(int sinks, std::uint64_t seed, KernelResult* out) {
  const SinkSet set = RandomSinkSet(
      sinks, BBox({0.0, 0.0}, {1000.0, 1000.0}), seed, /*with_source=*/true);
  const double radius = Radius(set.sinks, set.source);
  const Topology topo = NnMergeTopology(set.sinks, set.source);
  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  prob.bounds.assign(set.sinks.size(),
                     DelayBounds{0.9 * radius, 1.2 * radius});
  Result<EbfFormulation> built =
      EbfFormulation::Build(prob, SteinerRowPolicy::kSeed);
  if (!built.ok()) {
    std::fprintf(stderr, "FAIL kernel %d sinks: %s\n", sinks,
                 built.status().ToString().c_str());
    return false;
  }
  const CompiledLpModel& a = built->Model().Compiled();
  out->sinks = sinks;
  out->cols = a.num_cols;
  out->reps = sinks <= 1024 ? 20 : sinks <= 4096 ? 10 : 5;

  std::vector<double> row_weight(static_cast<std::size_t>(a.num_rows));
  for (std::size_t i = 0; i < row_weight.size(); ++i) {
    row_weight[i] = 0.5 + 0.25 * static_cast<double>(i % 7);
  }
  std::vector<double> diag(static_cast<std::size_t>(a.num_cols));
  for (std::size_t i = 0; i < diag.size(); ++i) {
    diag[i] = 1e-3 + 0.1 * static_cast<double>(i % 5);
  }

  SparseNormalFactor probe;
  for (int r = 0; r < out->reps; ++r) {
    Timer t;
    probe.Analyze(a);
    const double ms = t.Seconds() * 1e3;
    if (r == 0 || ms < out->analyze_ms) out->analyze_ms = ms;
  }

  std::vector<double> x_ref;
  for (const IpmFactorMode mode :
       {IpmFactorMode::kSimplicial, IpmFactorMode::kSupernodal}) {
    SparseNormalFactor factor;
    factor.Analyze(a);
    factor.SetMode(mode);
    if (!factor.Factor(a, row_weight, diag)) {
      std::fprintf(stderr, "FAIL kernel %d sinks: %s Factor() failed\n",
                   sinks, mode == IpmFactorMode::kSupernodal ? "supernodal"
                                                             : "simplicial");
      return false;
    }
    double best = 0.0;
    for (int r = 0; r < out->reps; ++r) {
      Timer t;
      if (!factor.Factor(a, row_weight, diag)) return false;
      const double s = t.Seconds();
      if (r == 0 || s < best) best = s;
    }
    std::vector<double> x(static_cast<std::size_t>(a.num_cols));
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = 1.0 + static_cast<double>(i % 3);
    }
    factor.Solve(x);
    if (mode == IpmFactorMode::kSimplicial) {
      out->simplicial_ms = best * 1e3;
      x_ref = std::move(x);
    } else {
      out->supernodal_ms = best * 1e3;
      out->fill_nnz = factor.FillNnz();
      out->panel_nnz = factor.PanelNnz();
      out->supernodes = factor.NumSupernodes();
      for (std::size_t i = 0; i < x.size(); ++i) {
        const double d = std::abs(x[i] - x_ref[i]) / (1.0 + std::abs(x_ref[i]));
        out->solve_rel_diff = std::max(out->solve_rel_diff, d);
      }
    }
  }
  if (out->solve_rel_diff > 1e-6) {
    std::fprintf(stderr,
                 "FAIL kernel %d sinks: supernodal Solve() differs from "
                 "simplicial by %.3g rel\n",
                 sinks, out->solve_rel_diff);
    out->ok = false;
  }
  return out->ok;
}

void WriteJson(const std::string& path, const std::string& mode,
               const std::vector<SizeResult>& all,
               const std::vector<KernelResult>& kernels) {
  std::FILE* f = bench::OpenBenchJson(path, "lp_scaling", mode);
  if (f == nullptr) return;
  std::fprintf(f, "  \"sizes\": [\n");
  for (std::size_t s = 0; s < all.size(); ++s) {
    const SizeResult& sr = all[s];
    std::fprintf(f, "    {\n      \"sinks\": %d,\n      \"variants\": [\n",
                 sr.sinks);
    for (std::size_t v = 0; v < sr.variants.size(); ++v) {
      const VariantResult& r = sr.variants[v];
      std::fprintf(
          f,
          "        {\"engine\": \"%s\", "
          "\"warm_lazy_rounds\": %s, \"seconds\": %.6f, "
          "\"lp_seconds\": %.6f, \"separation_seconds\": %.6f, "
          "\"lp_iterations\": %d, \"lazy_rounds\": %d, "
          "\"symbolic_reuses\": %d, \"warm_rounds\": %d, "
          "\"lp_rows\": %d, \"lp_cols\": %d, \"objective\": %.12g}%s\n",
          r.name.c_str(), r.warm ? "true" : "false", r.seconds, r.lp_seconds, r.sep_seconds,
          r.lp_iterations, r.lazy_rounds, r.symbolic_reuses, r.warm_rounds,
          r.lp_rows, r.lp_cols, r.objective,
          v + 1 < sr.variants.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n    }%s\n", s + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"factor_kernel\": [\n");
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const KernelResult& r = kernels[k];
    std::fprintf(
        f,
        "    {\"sinks\": %d, \"cols\": %d, \"reps\": %d, "
        "\"analyze_ms\": %.4f, "
        "\"simplicial_ms\": %.4f, \"supernodal_ms\": %.4f, "
        "\"speedup\": %.3f, \"fill_nnz\": %lld, \"panel_nnz\": %lld, "
        "\"supernodes\": %d, \"solve_rel_diff\": %.3g}%s\n",
        r.sinks, r.cols, r.reps, r.analyze_ms, r.simplicial_ms,
        r.supernodal_ms,
        r.Speedup(), static_cast<long long>(r.fill_nnz),
        static_cast<long long>(r.panel_nnz), r.supernodes, r.solve_rel_diff,
        k + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("(results also written to %s)\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = ArgParser::Parse(
      argc, argv, {"smoke", "kernel", "seed", "json", "help"});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 2;
  }
  if (parsed->Has("help")) {
    std::printf(
        "lp_scaling: cold/warm LP engine scaling curve plus\n"
        "supernodal-vs-simplicial factor kernel curve\n"
        "  --smoke      small fixed instances, agreement gates only\n"
        "  --kernel     factor kernel only at {4096, 16384}, gated\n"
        "  --seed S     instance seed (default 7)\n"
        "  --json PATH  output file (default BENCH_lp.json; '' disables)\n");
    return 0;
  }
  const bool smoke = parsed->Has("smoke");
  const bool kernel_only = parsed->Has("kernel");
  const Result<int> seed = parsed->GetIntFlag("seed", 7, 0);
  if (!seed.ok()) {
    std::fprintf(stderr, "bad --seed\n");
    return 2;
  }
  const std::string json = parsed->GetString(
      "json", smoke || kernel_only ? "" : "BENCH_lp.json");

  const std::vector<int> sizes =
      smoke ? std::vector<int>{48, 80}
            : kernel_only ? std::vector<int>{}
                          : std::vector<int>{64, 128, 256, 512};
  const std::vector<int> kernel_sizes =
      smoke ? std::vector<int>{96}
            : kernel_only
                  ? std::vector<int>{4096, 16384}
                  : std::vector<int>{512, 1024, 2048, 4096, 8192, 16384};

  std::vector<SizeResult> all;
  bool ok = true;
  TextTable table({"sinks", "variant", "seconds", "lp(s)", "sep(s)", "iters",
                   "rounds", "warm_rounds", "sym_reuses", "rows"});
  for (const int sinks : sizes) {
    SizeResult sr;
    if (!RunSize(sinks, static_cast<std::uint64_t>(*seed), &sr)) ok = false;
    for (const VariantResult& v : sr.variants) {
      table.AddRow({std::to_string(sr.sinks), v.name,
                    FormatDouble(v.seconds, 4), FormatDouble(v.lp_seconds, 4),
                    FormatDouble(v.sep_seconds, 4),
                    std::to_string(v.lp_iterations),
                    std::to_string(v.lazy_rounds),
                    std::to_string(v.warm_rounds),
                    std::to_string(v.symbolic_reuses),
                    std::to_string(v.lp_rows)});
    }
    all.push_back(std::move(sr));
  }
  if (!sizes.empty()) {
    std::printf("\n=== LP scaling: cold vs warm lazy rounds ===\n%s",
                table.ToString().c_str());
  }

  std::vector<KernelResult> kernels;
  TextTable ktable({"sinks", "cols", "analyze(ms)", "simplicial(ms)",
                    "supernodal(ms)", "speedup", "supernodes", "fill_nnz",
                    "panel_nnz"});
  for (const int sinks : kernel_sizes) {
    KernelResult kr;
    if (!RunKernel(sinks, static_cast<std::uint64_t>(*seed), &kr)) {
      ok = false;
    }
    ktable.AddRow({std::to_string(kr.sinks), std::to_string(kr.cols),
                   FormatDouble(kr.analyze_ms, 3),
                   FormatDouble(kr.simplicial_ms, 3),
                   FormatDouble(kr.supernodal_ms, 3),
                   FormatDouble(kr.Speedup(), 2),
                   std::to_string(kr.supernodes),
                   std::to_string(kr.fill_nnz),
                   std::to_string(kr.panel_nnz)});
    kernels.push_back(kr);
  }
  if (!kernel_sizes.empty()) {
    std::printf(
        "\n=== Symbolic analysis and factor kernel: supernodal vs "
        "simplicial ===\n%s",
        ktable.ToString().c_str());
  }

  WriteJson(json, smoke ? "smoke" : kernel_only ? "kernel" : "full", all,
            kernels);

  if (!smoke) {
    // Speedup gates: the blocked kernel must clear its floor at large sizes
    // and must never regress small ones.
    const double big_floor = 1.1;
    for (const KernelResult& kr : kernels) {
      if (kr.sinks >= 4096) {
        std::printf(
            "%d sinks: factor %.3fms simplicial vs %.3fms supernodal "
            "(%.2fx, floor %.2fx)\n",
            kr.sinks, kr.simplicial_ms, kr.supernodal_ms, kr.Speedup(),
            big_floor);
        if (kr.Speedup() < big_floor) {
          std::fprintf(stderr,
                       "FAIL %d sinks: supernodal speedup %.2fx < %.2fx "
                       "gate\n",
                       kr.sinks, kr.Speedup(), big_floor);
          ok = false;
        }
      } else if (kr.sinks <= 512 && kr.Speedup() < 0.85) {
        std::fprintf(stderr,
                     "FAIL %d sinks: supernodal regresses small sizes "
                     "(%.2fx < 0.85x)\n",
                     kr.sinks, kr.Speedup());
        ok = false;
      }
    }
  }
  if (!smoke && !kernel_only && ok && !all.empty()) {
    // Headline numbers: warm lazy rounds vs cold at the largest size.
    const SizeResult& biggest = all.back();
    double cold = 0.0;
    double warm = 0.0;
    for (const VariantResult& v : biggest.variants) {
      (v.warm ? warm : cold) = v.seconds;
    }
    if (warm > 0.0) {
      std::printf("%d sinks: cold %.3fs, warm %.3fs (%.2fx)\n", biggest.sinks,
                  cold, warm, cold / warm);
    }
  }
  if (!ok) {
    std::fprintf(stderr, "lp_scaling: FAILED\n");
    return 1;
  }
  std::printf("lp_scaling: OK\n");
  return 0;
}
