// Microbenchmarks for the geometry kernel (google-benchmark).

#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "geom/octant.h"
#include "geom/point.h"
#include "geom/segment.h"
#include "geom/trr.h"
#include "util/rng.h"

namespace lubt {
namespace {

std::vector<Trr> RandomSquares(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Trr> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(Trr::Square({rng.Uniform(-100, 100), rng.Uniform(-100, 100)},
                              rng.Uniform(0.1, 30.0)));
  }
  return out;
}

void BM_TrrIntersect(benchmark::State& state) {
  const auto squares = RandomSquares(1024, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    const Trr r = Intersect(squares[i % 1024], squares[(i + 7) % 1024]);
    benchmark::DoNotOptimize(r);
    ++i;
  }
}
BENCHMARK(BM_TrrIntersect);

void BM_TrrInflate(benchmark::State& state) {
  const auto squares = RandomSquares(1024, 2);
  std::size_t i = 0;
  for (auto _ : state) {
    const Trr r = squares[i % 1024].Inflate(3.5);
    benchmark::DoNotOptimize(r);
    ++i;
  }
}
BENCHMARK(BM_TrrInflate);

void BM_TrrDist(benchmark::State& state) {
  const auto squares = RandomSquares(1024, 3);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TrrDist(squares[i % 1024], squares[(i + 13) % 1024]));
    ++i;
  }
}
BENCHMARK(BM_TrrDist);

void BM_IntersectAll(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  // Pairwise-intersecting family: all contain the origin.
  Rng rng(4);
  std::vector<Trr> squares;
  for (int i = 0; i < n; ++i) {
    const Point c{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    squares.push_back(Trr::Square(c, 10.0 + ManhattanDist(c, {0, 0})));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(IntersectAll(squares));
  }
}
BENCHMARK(BM_IntersectAll)->Arg(8)->Arg(64)->Arg(512);

// Batched TRR distance: the AoS object walk vs the branch-free lane form
// used by the grid-soa nearest-neighbour cells (topo/nn_merge.cpp). Both
// compute the identical per-axis gap/clamp/max chain; the contest is purely
// memory layout.
void BM_TrrDistBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = RandomSquares(n, 6);
  const auto b = RandomSquares(n, 7);
  for (auto _ : state) {
    double acc = 0.0;
    for (int i = 0; i < n; ++i) {
      acc += TrrDist(a[static_cast<std::size_t>(i)],
                     b[static_cast<std::size_t>(i)]);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_TrrDistBatch)->Arg(1024)->Arg(8192);

void BM_TrrDistRawBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = RandomSquares(n, 6);
  const auto b = RandomSquares(n, 7);
  std::vector<double> au_lo, au_hi, av_lo, av_hi, bu_lo, bu_hi, bv_lo, bv_hi;
  for (int i = 0; i < n; ++i) {
    const Trr& ra = a[static_cast<std::size_t>(i)];
    const Trr& rb = b[static_cast<std::size_t>(i)];
    au_lo.push_back(ra.U().lo);
    au_hi.push_back(ra.U().hi);
    av_lo.push_back(ra.V().lo);
    av_hi.push_back(ra.V().hi);
    bu_lo.push_back(rb.U().lo);
    bu_hi.push_back(rb.U().hi);
    bv_lo.push_back(rb.V().lo);
    bv_hi.push_back(rb.V().hi);
  }
  for (auto _ : state) {
    double acc = 0.0;
    for (int i = 0; i < n; ++i) {
      const auto k = static_cast<std::size_t>(i);
      acc += TrrDistRaw(au_lo[k], au_hi[k], av_lo[k], av_hi[k], bu_lo[k],
                        bu_hi[k], bv_lo[k], bv_hi[k]);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_TrrDistRawBatch)->Arg(1024)->Arg(8192);

std::vector<Point> RandomPoints(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back({rng.Uniform(-100, 100), rng.Uniform(-100, 100)});
  }
  return out;
}

// Octant-aggregate sweep shaped like the separation oracle's bottom-up
// pass: include a point per slot, merge each slot into its parent (i/2),
// then screen adjacent slots with the cross bound.
void BM_OctantSoaSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto pts = RandomPoints(n, 8);
  OctantSoa agg;
  for (auto _ : state) {
    agg.Assign(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const auto k = static_cast<std::size_t>(i);
      agg.Include(k, pts[k], -0.01 * static_cast<double>(i));
    }
    for (int i = n - 1; i >= 1; --i) {
      agg.Merge(static_cast<std::size_t>(i / 2), static_cast<std::size_t>(i));
    }
    double acc = 0.0;
    for (int i = 0; i + 1 < n; ++i) {
      acc += OctantSoa::CrossBound(agg, static_cast<std::size_t>(i), agg,
                                   static_cast<std::size_t>(i + 1));
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_OctantSoaSweep)->Arg(1024)->Arg(16384);

void BM_SnakedRoute(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    const Point a{rng.Uniform(-50, 50), rng.Uniform(-50, 50)};
    const Point b{rng.Uniform(-50, 50), rng.Uniform(-50, 50)};
    benchmark::DoNotOptimize(SnakedRoute(a, b, 12.0, 2.0));
  }
}
BENCHMARK(BM_SnakedRoute);

}  // namespace
}  // namespace lubt

BENCHMARK_MAIN();
