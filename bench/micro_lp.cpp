// Microbenchmarks for the LP engines on EBF-shaped instances
// (google-benchmark).

#include <benchmark/benchmark.h>

#include <vector>

#include "cts/metrics.h"
#include "ebf/formulation.h"
#include "ebf/solver.h"
#include "io/benchmarks.h"
#include "lp/sparse_chol.h"
#include "topo/nn_merge.h"

namespace lubt {
namespace {

EbfProblem MakeProblem(const SinkSet& set, const Topology& topo,
                       std::vector<DelayBounds>& storage) {
  const double radius = Radius(set.sinks, set.source);
  storage.assign(set.sinks.size(), DelayBounds{0.9 * radius, 1.2 * radius});
  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = set.sinks;
  prob.source = set.source;
  prob.bounds = storage;
  return prob;
}

void BM_EbfSimplexFull(benchmark::State& state) {
  const SinkSet set = RandomSinkSet(static_cast<int>(state.range(0)),
                                    BBox({0, 0}, {1000, 1000}), 11, true);
  const Topology topo = NnMergeTopology(set.sinks, set.source);
  std::vector<DelayBounds> storage;
  const EbfProblem prob = MakeProblem(set, topo, storage);
  EbfSolveOptions opt;
  opt.lp.engine = LpEngine::kSimplex;
  opt.strategy = EbfStrategy::kFullRows;
  for (auto _ : state) {
    const EbfSolveResult r = SolveEbf(prob, opt);
    benchmark::DoNotOptimize(r.cost);
  }
}
BENCHMARK(BM_EbfSimplexFull)->Arg(10)->Arg(20)->Arg(40)
    ->Unit(benchmark::kMillisecond);

void BM_EbfIpmLazy(benchmark::State& state) {
  const SinkSet set = RandomSinkSet(static_cast<int>(state.range(0)),
                                    BBox({0, 0}, {1000, 1000}), 13, true);
  const Topology topo = NnMergeTopology(set.sinks, set.source);
  std::vector<DelayBounds> storage;
  const EbfProblem prob = MakeProblem(set, topo, storage);
  EbfSolveOptions opt;
  opt.lp.engine = LpEngine::kInteriorPoint;
  opt.strategy = EbfStrategy::kLazy;
  for (auto _ : state) {
    const EbfSolveResult r = SolveEbf(prob, opt);
    benchmark::DoNotOptimize(r.cost);
  }
}
BENCHMARK(BM_EbfIpmLazy)->Arg(20)->Arg(60)->Arg(120)
    ->Unit(benchmark::kMillisecond);

void BM_Separation(benchmark::State& state) {
  const SinkSet set = RandomSinkSet(static_cast<int>(state.range(0)),
                                    BBox({0, 0}, {1000, 1000}), 17, true);
  const Topology topo = NnMergeTopology(set.sinks, set.source);
  std::vector<DelayBounds> storage;
  const EbfProblem prob = MakeProblem(set, topo, storage);
  auto built = EbfFormulation::Build(prob, SteinerRowPolicy::kSeed);
  LUBT_ASSERT(built.ok());
  const std::vector<double> x(
      static_cast<std::size_t>(built->Model().NumCols()), 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        built->FindViolatedSteinerRows(x, 1e-7, 1000000));
  }
}
BENCHMARK(BM_Separation)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);

// Numeric refactorization kernel in isolation (assembly + Cholesky on the
// cached symbolic analysis), supernodal vs simplicial on the same EBF
// normal-equations pattern. This is the per-Newton-iteration inner loop the
// 16k-sink envelope hinges on.
void BM_SparseFactor(benchmark::State& state) {
  const int sinks = static_cast<int>(state.range(0));
  const IpmFactorMode mode = state.range(1) == 0 ? IpmFactorMode::kSupernodal
                                                 : IpmFactorMode::kSimplicial;
  const SinkSet set =
      RandomSinkSet(sinks, BBox({0, 0}, {1000, 1000}), 19, true);
  const Topology topo = NnMergeTopology(set.sinks, set.source);
  std::vector<DelayBounds> storage;
  const EbfProblem prob = MakeProblem(set, topo, storage);
  auto built = EbfFormulation::Build(prob, SteinerRowPolicy::kSeed);
  LUBT_ASSERT(built.ok());
  const CompiledLpModel& a = built->Model().Compiled();
  SparseNormalFactor factor;
  factor.Analyze(a);
  factor.SetMode(mode);
  const std::vector<double> row_weight(
      static_cast<std::size_t>(a.num_rows), 1.0);
  const std::vector<double> diag(static_cast<std::size_t>(a.num_cols), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(factor.Factor(a, row_weight, diag));
  }
  state.counters["fill_nnz"] = static_cast<double>(factor.FillNnz());
  state.counters["supernodes"] = static_cast<double>(factor.NumSupernodes());
}
BENCHMARK(BM_SparseFactor)
    ->ArgsProduct({{512, 2048, 8192}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lubt

BENCHMARK_MAIN();
