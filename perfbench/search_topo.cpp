// search_topo: TopoOptimizer::Optimize on 128-sink uniform nets, each with
// a fixed seed, round budget and worker count. Hundreds of warm structural
// re-solves at medium size; the best cost is the run's quality guard.

#include <algorithm>
#include <memory>

#include "io/benchmarks.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

using namespace lubt;

namespace {

constexpr int kSinks = 128;
constexpr int kRounds = 40;
// Evaluation workers: fixed, and at most the 4 hardware threads the
// benchmark is sized for.
constexpr int kJobs = 2;
// Seconds one search takes on the reference machine; sets how many nets a
// run of --seconds searches, so a run's work does not depend on timing.
constexpr double kSearchSeconds = 2.5;

std::vector<ColdNet> SearchNets(const RunConfig& config) {
  const int count =
      config.smoke ? 1 : std::max(1, static_cast<int>(config.seconds / kSearchSeconds));
  const BBox die({0.0, 0.0}, {1000.0, 1000.0});
  std::vector<ColdNet> nets;
  for (int k = 0; k < count; ++k) {
    const std::uint64_t net_seed = config.seed * 7919 + static_cast<std::uint64_t>(k);
    nets.push_back({"search-" + std::to_string(k),
                    RandomSinkSet(config.smoke ? 24 : kSinks, die, net_seed,
                                  /*with_source=*/true),
                    1.0, 1.2, true});
  }
  return nets;
}

TopoSearchOptions SearchOptions(const RunConfig& config) {
  TopoSearchOptions options;
  options.seed = config.seed;
  options.max_rounds = config.smoke ? 3 : kRounds;
  options.jobs = kJobs;
  return options;
}

}  // namespace

void RunSearchTopo(const RunConfig& config, Outcome* out) {
  const TopoSearchOptions options = SearchOptions(config);
  if (config.trace) {
    // The served loop runs on the first two nets.
    const std::vector<ColdNet> nets = SearchNets(config);
    ServeSpec spec;
    spec.sessions = {nets.front().set,
                     nets[std::min<std::size_t>(1, nets.size() - 1)].set};
    spec.seconds = config.smoke ? 0.2 : 1.5;
    spec.min_rounds = 3;
    spec.seed = config.seed;
    RunLayerSuite(nets, spec, nets, options, out);
    return;
  }

  std::vector<ColdNet> nets;
  std::vector<std::unique_ptr<EcoSession>> sessions;
  // Set-up: generate the nets and solve each once on its NN-merge
  // topology; the search starts from those solved sessions.
  const double setup_s = MedianSetupSeconds(
      5,
      [&] {
        nets = SearchNets(config);
        sessions = CreateSessions(nets, out);
      },
      [&] { sessions.clear(); });

  std::vector<double> search_ms;
  double initial = 0.0, best = 0.0, evaluated = 0.0, total_s = 0.0;
  for (std::size_t k = 0; k < sessions.size(); ++k) {
    const double t0 = NowSeconds();
    Result<TopoSearchResult> searched = TopoOptimizer::Optimize(*sessions[k], options);
    const double dt = NowSeconds() - t0;
    out->Check(searched.ok(), nets[k].name + ": search failed");
    if (!searched.ok()) continue;
    search_ms.push_back(dt * 1e3);
    total_s += dt;
    initial += searched->initial_cost;
    best += searched->best_cost;
    evaluated += searched->stats.evaluated;
    out->Check(searched->best_cost <=
                   searched->initial_cost * (1.0 + kObjectiveRelTol),
               nets[k].name + ": search returned a worse tree");
    CheckAgainstColdSolve(*sessions[k], searched->best_topo,
                          searched->best_cost, nets[k].name, out);
  }

  out->Metric("setup_s", setup_s, "s");
  out->Metric("peak_rss_mb", PeakRssMb(), "MB");
  out->Metric("p50_ms", Median(search_ms), "ms");
  out->Metric("tail_ms", ReportedTail(search_ms).value, "ms");
  out->Metric("ops_per_s", evaluated / total_s, "1/s");
  out->Metric("cost_ratio", best / initial, "ratio");
  out->Report("search_s", total_s, "s");
  out->Report("search_gain_pct", 100.0 * (1.0 - best / initial), "%");
  out->Report("nets", static_cast<double>(sessions.size()), "count");
}

}  // namespace perfbench
