// Shared helpers for the table/figure reproduction benches.
//
// Every bench honours LUBT_BENCH_SCALE in (0, 1]: the fraction of each
// benchmark's sinks to keep. The default 0.35 keeps every table under a few
// minutes on a laptop while preserving the shapes; set LUBT_BENCH_SCALE=1
// for the paper's full cardinalities (prim2/r3 then take tens of minutes
// because each row is a fresh LP over up to ~1700 edges).

#ifndef LUBT_BENCH_COMMON_H_
#define LUBT_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "cts/bounded_skew_dme.h"
#include "cts/metrics.h"
#include "ebf/solver.h"
#include "embed/placer.h"
#include "embed/verifier.h"
#include "io/benchmarks.h"
#include "io/csv.h"
#include "runtime/thread_pool.h"
#include "util/args.h"
#include "util/table.h"
#include "util/timer.h"

namespace lubt::bench {

inline double BenchScale() {
  const char* env = std::getenv("LUBT_BENCH_SCALE");
  if (env == nullptr) return 0.35;
  const double v = std::atof(env);
  if (v <= 0.0 || v > 1.0) {
    std::fprintf(stderr, "ignoring invalid LUBT_BENCH_SCALE=%s\n", env);
    return 0.35;
  }
  return v;
}

/// Result of one baseline + LUBT run.
struct RowResult {
  Status status;
  double base_cost = 0.0;
  double lubt_cost = 0.0;
  double shortest = 0.0;       ///< achieved, normalized to the radius
  double longest = 0.0;        ///< achieved, normalized to the radius
  double lubt_seconds = 0.0;
  int lp_rows = 0;
  std::string generator;

  bool ok() const { return status.ok(); }
};

/// The paper's Table-1 flow: build the bounded-skew baseline, extract its
/// achieved [shortest, longest] window, re-solve with EBF on the same
/// topology, verify the embedding.
inline RowResult RunBaselineThenLubt(const SinkSet& set, double bound_factor) {
  RowResult out;
  const double radius = Radius(set.sinks, set.source);
  auto base =
      BuildBoundedSkewTree(set.sinks, set.source, bound_factor * radius);
  if (!base.ok()) {
    out.status = base.status();
    return out;
  }
  out.base_cost = base->cost;
  out.shortest = base->min_delay / radius;
  out.longest = base->max_delay / radius;
  out.generator = base->generator;

  EbfProblem prob;
  prob.topo = &base->topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  prob.bounds.assign(set.sinks.size(),
                     DelayBounds{base->min_delay, base->max_delay});
  Timer timer;
  const EbfSolveResult lubt = SolveEbf(prob);
  out.lubt_seconds = timer.Seconds();
  if (!lubt.ok()) {
    out.status = lubt.status;
    return out;
  }
  out.lubt_cost = lubt.cost;
  out.lp_rows = lubt.lp_rows;

  auto embedding =
      EmbedTree(base->topo, set.sinks, set.source, lubt.edge_len);
  if (!embedding.ok()) {
    out.status = embedding.status();
    return out;
  }
  const auto report =
      VerifyEmbedding(base->topo, set.sinks, set.source, lubt.edge_len,
                      embedding->location, prob.bounds);
  out.status = report.status;
  return out;
}

/// Solve a LUBT instance with window [lo_f, hi_f] (radius units) on the
/// topology of a baseline built at the given skew bound factor.
inline RowResult RunWindowOnBaselineTopo(const SinkSet& set,
                                         double topo_bound_factor,
                                         double lo_f, double hi_f) {
  RowResult out;
  const double radius = Radius(set.sinks, set.source);
  auto base = BuildBoundedSkewTree(set.sinks, set.source,
                                   topo_bound_factor * radius);
  if (!base.ok()) {
    out.status = base.status();
    return out;
  }
  out.base_cost = base->cost;
  out.generator = base->generator;

  EbfProblem prob;
  prob.topo = &base->topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  prob.bounds.assign(set.sinks.size(),
                     DelayBounds{lo_f * radius, hi_f * radius});
  Timer timer;
  const EbfSolveResult lubt = SolveEbf(prob);
  out.lubt_seconds = timer.Seconds();
  if (!lubt.ok()) {
    out.status = lubt.status;
    return out;
  }
  out.lubt_cost = lubt.cost;
  out.lp_rows = lubt.lp_rows;
  out.shortest = lubt.stats.min_delay / radius;
  out.longest = lubt.stats.max_delay / radius;
  out.status = Status::Ok();
  return out;
}

/// Parse the shared bench command line (currently just --jobs). Rows of a
/// sweep are independent (instance x bound) solves, so benches fan them out
/// on the runtime's pool. Exits the process on a malformed flag.
inline int ParseBenchJobs(int argc, char** argv) {
  auto parsed = ArgParser::Parse(argc, argv, {"jobs", "help"});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    std::exit(2);
  }
  if (parsed->Has("help")) {
    std::printf("flags:\n  --jobs N   solve sweep rows on N worker threads "
                "(default 1; 0 = hardware concurrency)\n");
    std::exit(0);
  }
  const Result<int> jobs = parsed->GetJobsFlag(1);
  if (!jobs.ok()) {
    std::fprintf(stderr, "%s\n", jobs.status().ToString().c_str());
    std::exit(2);
  }
  return *jobs;
}

/// Compute `n` sweep rows on `jobs` workers; out[i] = row(i), in index
/// order. row() must only read shared state (the precomputed SinkSets).
inline std::vector<RowResult> ComputeRows(
    int n, int jobs, const std::function<RowResult(int)>& row) {
  std::vector<RowResult> out(static_cast<std::size_t>(n));
  ParallelFor(n, jobs, [&](int i) {
    out[static_cast<std::size_t>(i)] = row(i);
  });
  return out;
}

/// Open a BENCH_*.json file and emit the uniform header every scaling bench
/// shares — {"bench": NAME, "mode": MODE, "hw_threads": N, "build": B, ...}
/// — so downstream tooling can parse lp_scaling / separation_scaling
/// output without per-bench sniffing. MODE is "full" or
/// "smoke"; hw_threads and the build flavor make timings comparable across
/// machines and presets (a 1-core container cannot honour multi-thread
/// speedup gates, and a sanitizer build's numbers are not timings at all).
/// Returns nullptr (with a diagnostic) when the path is empty or
/// unwritable; the caller writes the remaining keys, closes the object,
/// and fclose()s.
inline std::FILE* OpenBenchJson(const std::string& path,
                                const std::string& bench,
                                const std::string& mode) {
  if (path.empty()) return nullptr;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return nullptr;
  }
#ifndef LUBT_BENCH_BUILD
#define LUBT_BENCH_BUILD "unknown"
#endif
  std::fprintf(f,
               "{\n  \"bench\": \"%s\",\n  \"mode\": \"%s\",\n"
               "  \"hw_threads\": %u,\n  \"build\": \"%s\",\n",
               bench.c_str(), mode.c_str(),
               std::thread::hardware_concurrency(), LUBT_BENCH_BUILD);
  return f;
}

/// Print the table and also drop a CSV next to the binary's cwd.
inline void EmitTable(const TextTable& table, const std::string& title,
                      const std::string& csv_name) {
  std::printf("\n=== %s ===\n%s", title.c_str(), table.ToString().c_str());
  const Status csv = WriteCsv(table, csv_name);
  if (csv.ok()) {
    std::printf("(rows also written to %s)\n", csv_name.c_str());
  } else {
    std::fprintf(stderr, "CSV write failed: %s\n", csv.ToString().c_str());
  }
}

}  // namespace lubt::bench

#endif  // LUBT_BENCH_COMMON_H_
