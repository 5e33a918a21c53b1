// solve_cold: the paper's job. A fixed serial set of single nets goes
// through SolveBatch with one worker (topology, SolveEbf, EmbedTree,
// VerifyEmbedding): the four paper stand-ins at full scale, one uniform and
// one clustered 2048-sink net, and one net whose window is empty by
// construction and must come back Infeasible.
//
// The set does not depend on --seed. Seeded 2048-sink nets differed by up
// to 1.5x in peak memory and 30% in solve time from seed to seed, which
// would hide any change smaller than that; a fixed set also lets every
// objective be checked against a recorded value.

#include <algorithm>

#include "embed/verifier.h"
#include "io/benchmarks.h"
#include "layers.h"
#include "reference.h"
#include "topo/nn_merge.h"
#include "workloads.h"

namespace perfbench {

using namespace lubt;

namespace {

constexpr int kLargeSinks = 2048;
// Generator seeds of the two large nets.
constexpr std::uint64_t kUniformSeed = 1;
constexpr std::uint64_t kClusteredSeed = 2;
// Seconds one pass takes on the reference machine; sets how many passes a
// run of --seconds makes, so a run's work does not depend on timing.
constexpr double kPassSeconds = 9.0;

// The two large nets, reported apart from the paper's own set.
bool IsLargeNet(const ColdNet& net) {
  return net.name.rfind("uniform-", 0) == 0 ||
         net.name.rfind("clustered-", 0) == 0;
}

}  // namespace

std::vector<ColdNet> SolveColdNets(bool smoke) {
  const double scale = smoke ? 0.1 : 1.0;
  const int large = smoke ? 128 : kLargeSinks;
  std::vector<ColdNet> nets;
  for (const BenchmarkId id : {BenchmarkId::kR1, BenchmarkId::kPrim1,
                               BenchmarkId::kPrim2, BenchmarkId::kR3}) {
    nets.push_back({BenchmarkName(id), MakeBenchmark(id, scale), 1.0, 1.2, true});
  }
  // Every sink needs a delay of at least its distance to the source, and
  // the farthest one is a radius away: an upper bound of 0.4 radius leaves
  // its window empty.
  nets.push_back({"r1-empty", MakeBenchmark(BenchmarkId::kR1, scale), 0.0, 0.4,
                  false});
  const BBox die({0.0, 0.0}, {10000.0, 10000.0});
  const std::string size = std::to_string(large);
  nets.push_back({"uniform-" + size,
                  RandomSinkSet(large, die, kUniformSeed, /*with_source=*/true),
                  1.0, 1.2, true});
  nets.push_back({"clustered-" + size,
                  ClusteredSinkSet(large, 16, die, kClusteredSeed,
                                   /*with_source=*/true),
                  1.0, 1.2, true});
  return nets;
}

void RunSolveCold(const RunConfig& config, Outcome* out) {
  if (config.trace) {
    // The eco, serve and search layers run on the two smallest paper nets.
    const std::vector<ColdNet> nets = SolveColdNets(config.smoke);
    ServeSpec spec;
    spec.sessions = {nets[0].set, nets[1].set};
    spec.seconds = config.smoke ? 0.2 : 1.5;
    spec.min_rounds = 3;
    spec.seed = config.seed;
    TopoSearchOptions search;
    search.seed = config.seed;
    search.max_rounds = config.smoke ? 2 : 4;
    search.jobs = 2;
    RunLayerSuite(nets, spec, {nets[0]}, search, out);
    return;
  }

  std::vector<ColdNet> nets;
  std::vector<BatchJob> jobs;
  const std::vector<BatchJob> warmup = ColdJobs(
      {{"warmup", MakeBenchmark(BenchmarkId::kR1, 0.25), 1.0, 1.2, true}});
  // Set-up: generate the inputs and warm the allocator and code paths with
  // one small solve, as a long-lived process would have.
  const double setup_s = MedianSetupSeconds(
      25,
      [&] {
        nets = SolveColdNets(config.smoke);
        jobs = ColdJobs(nets);
        out->Check(SolveBatch(warmup).results[0].ok(), "warm-up solve failed");
      },
      [&] {
        nets.clear();
        jobs.clear();
      });

  const int passes =
      config.smoke ? 1 : std::max(1, static_cast<int>(config.seconds / kPassSeconds));
  std::vector<std::vector<double>> net_s(jobs.size());
  std::vector<double> pass_ms;
  std::vector<BatchJobResult> last(jobs.size());
  double sinks_solved = 0.0;
  for (int p = 0; p < passes; ++p) {
    double pass_s = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const double t0 = NowSeconds();
      BatchResult r = SolveBatch(std::span<const BatchJob>(&jobs[i], 1));
      const double dt = NowSeconds() - t0;
      pass_s += dt;
      net_s[i].push_back(dt);
      BatchJobResult& result = r.results[0];
      const bool classified = nets[i].feasible
                                  ? result.ok()
                                  : result.outcome == JobOutcome::kInfeasible;
      out->Check(classified, nets[i].name + ": outcome " +
                                 JobOutcomeName(result.outcome) + " " +
                                 result.status.ToString());
      if (result.ok()) sinks_solved += static_cast<double>(nets[i].set.sinks.size());
      if (p > 0 && nets[i].feasible) {
        out->Check(result.cost == last[i].cost,
                   nets[i].name + ": cost differs between passes");
      }
      last[i] = std::move(result);
    }
    pass_ms.push_back(pass_s * 1e3);
  }
  // A pass's time is the sum of each net's median over the passes, so one
  // disturbed solve does not move it.
  double paper_s = 0.0, large_s = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    (IsLargeNet(nets[i]) ? large_s : paper_s) += Median(net_s[i]);
  }

  // Output checks, outside the timed passes: every embedding verifies
  // against the net's windows, and every objective matches its reference.
  const Reference reference = LoadReference(config.reference_path, out);
  double cost = 0.0, expected = 0.0;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (!nets[i].feasible || !last[i].ok()) continue;
    const ColdNet& net = nets[i];
    const Topology topo = NnMergeTopology(net.set.sinks, net.set.source);
    const VerificationReport report = VerifyEmbedding(
        topo, net.set.sinks, net.set.source, last[i].edge_len,
        last[i].location, WindowBounds(net.set, net.lower, net.upper));
    out->Check(report.ok(), net.name + ": embedding " + report.status.ToString());
    const double ref = ReferenceCost(reference, net, config.smoke);
    cost += last[i].cost;
    expected += ref;
    out->Check(RelDiff(last[i].cost, ref) <= kObjectiveRelTol,
               net.name + ": cost " + std::to_string(last[i].cost) +
                   " != reference " + std::to_string(ref));
  }

  double total_s = 0.0;
  for (const double ms : pass_ms) total_s += ms / 1e3;
  out->Metric("setup_s", setup_s, "s");
  out->Metric("peak_rss_mb", PeakRssMb(), "MB");
  out->Metric("p50_ms", (paper_s + large_s) * 1e3, "ms");
  out->Metric("tail_ms", ReportedTail(pass_ms).value, "ms");
  out->Metric("ops_per_s", sinks_solved / total_s, "1/s");
  out->Metric("cost_ratio", cost / expected, "ratio");
  out->Report("solve_paper_s", paper_s, "s");
  out->Report("solve_large_s", large_s, "s");
  out->Report("passes", passes, "count");
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out->Report(nets[i].name + "_s", Median(net_s[i]), "s");
  }
}

}  // namespace perfbench
