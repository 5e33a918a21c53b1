// Geometry kernel tests: points, intervals, TRRs, segments, bboxes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "geom/bbox.h"
#include "geom/interval.h"
#include "geom/octant.h"
#include "geom/point.h"
#include "geom/segment.h"
#include "geom/trr.h"
#include "util/rng.h"

namespace lubt {
namespace {

TEST(PointTest, DiagonalRoundTrip) {
  const Point p{3.5, -2.25};
  const Point q = FromDiag(ToDiag(p));
  EXPECT_DOUBLE_EQ(p.x, q.x);
  EXPECT_DOUBLE_EQ(p.y, q.y);
}

TEST(PointTest, ManhattanEqualsChebyshevInDiag) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const Point a{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
    const Point b{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
    EXPECT_NEAR(ManhattanDist(a, b), ChebyshevDist(ToDiag(a), ToDiag(b)),
                1e-12);
  }
}

TEST(PointTest, ManhattanDominatesEuclidean) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    const Point a{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    const Point b{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    EXPECT_GE(ManhattanDist(a, b) + 1e-12, EuclideanDist(a, b));
  }
}

TEST(IntervalTest, EmptyBasics) {
  const Interval e = Interval::Empty();
  EXPECT_TRUE(e.IsEmpty());
  EXPECT_EQ(e.Length(), 0.0);
  EXPECT_FALSE(e.Contains(0.0));
  EXPECT_TRUE((Interval{0.0, 1.0}.Contains(e)));
}

TEST(IntervalTest, IntersectAndGap) {
  const Interval a{0.0, 2.0};
  const Interval b{1.0, 3.0};
  const Interval c{4.0, 5.0};
  EXPECT_EQ(Intersect(a, b), (Interval{1.0, 2.0}));
  EXPECT_TRUE(Intersect(a, c).IsEmpty());
  EXPECT_DOUBLE_EQ(IntervalGap(a, c), 2.0);
  EXPECT_DOUBLE_EQ(IntervalGap(a, b), 0.0);
}

TEST(IntervalTest, InflateClampDist) {
  const Interval a{1.0, 3.0};
  EXPECT_EQ(a.Inflate(0.5), (Interval{0.5, 3.5}));
  EXPECT_DOUBLE_EQ(a.Clamp(0.0), 1.0);
  EXPECT_DOUBLE_EQ(a.Clamp(2.0), 2.0);
  EXPECT_DOUBLE_EQ(a.Clamp(9.0), 3.0);
  EXPECT_DOUBLE_EQ(a.DistTo(0.0), 1.0);
  EXPECT_DOUBLE_EQ(a.DistTo(2.5), 0.0);
  EXPECT_DOUBLE_EQ(a.DistTo(4.0), 1.0);
}

TEST(TrrTest, SquareContainsItsBall) {
  const Point c{1.0, 2.0};
  const Trr square = Trr::Square(c, 3.0);
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const Point p{rng.Uniform(-5, 7), rng.Uniform(-4, 8)};
    EXPECT_EQ(square.Contains(p, 1e-12), ManhattanDist(c, p) <= 3.0 + 1e-12)
        << "point " << p.x << "," << p.y;
  }
}

TEST(TrrTest, PointRegionIsPoint) {
  const Trr t = Trr::FromPoint({2.0, 3.0});
  EXPECT_TRUE(t.IsPoint());
  EXPECT_TRUE(t.IsSegment());
  EXPECT_EQ(t.Center(), (Point{2.0, 3.0}));
  EXPECT_DOUBLE_EQ(t.Width(), 0.0);
}

TEST(TrrTest, InflationIsMinkowskiSum) {
  // Every point within distance r of the region, and no others.
  const Trr base = Intersect(Trr::Square({0, 0}, 2.0), Trr::Square({1, 0}, 2.0));
  const Trr big = base.Inflate(1.5);
  Rng rng(12);
  for (int i = 0; i < 500; ++i) {
    const Point p{rng.Uniform(-6, 7), rng.Uniform(-6, 6)};
    const double d = base.DistTo(p);
    EXPECT_EQ(big.Contains(p, 1e-9), d <= 1.5 + 1e-9);
  }
}

TEST(TrrTest, DistanceMatchesClosestPoints) {
  Rng rng(13);
  for (int i = 0; i < 200; ++i) {
    const Trr a = Trr::Square({rng.Uniform(-20, 20), rng.Uniform(-20, 20)},
                              rng.Uniform(0.0, 5.0));
    const Trr b = Trr::Square({rng.Uniform(-20, 20), rng.Uniform(-20, 20)},
                              rng.Uniform(0.0, 5.0));
    const double d = TrrDist(a, b);
    // Closest point from each side realizes the distance.
    const Point pb = b.ClosestTo(a.Center());
    const Point pa = a.ClosestTo(pb);
    const Point pb2 = b.ClosestTo(pa);
    EXPECT_LE(d, ManhattanDist(pa, pb2) + 1e-9);
    // Distance is symmetric and zero iff intersecting.
    EXPECT_DOUBLE_EQ(d, TrrDist(b, a));
    EXPECT_EQ(d == 0.0, !Intersect(a, b).IsEmpty());
  }
}

TEST(TrrTest, IntersectionIsExact) {
  const Trr a = Trr::Square({0, 0}, 2.0);
  const Trr b = Trr::Square({2, 0}, 2.0);
  const Trr c = Intersect(a, b);
  ASSERT_FALSE(c.IsEmpty());
  Rng rng(14);
  for (int i = 0; i < 400; ++i) {
    const Point p{rng.Uniform(-3, 5), rng.Uniform(-3, 3)};
    EXPECT_EQ(c.Contains(p, 1e-12),
              a.Contains(p, 1e-12) && b.Contains(p, 1e-12));
  }
}

TEST(TrrTest, DegenerateIntersectionIsSegmentOrPoint) {
  // Two Manhattan circles at distance exactly the sum of radii intersect in
  // a segment (the classic zero-skew merging segment).
  const Trr a = Trr::Square({0, 0}, 1.0);
  const Trr b = Trr::Square({4, 0}, 3.0);
  const Trr c = Intersect(a, b);
  ASSERT_FALSE(c.IsEmpty());
  EXPECT_TRUE(c.IsSegment());
}

// ---- Helly property (Lemma 10.1) ----------------------------------------

class TrrHellyTest : public ::testing::TestWithParam<int> {};

TEST_P(TrrHellyTest, PairwiseIntersectionImpliesCommonPoint) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  // Generate squares around a loose cluster until pairwise-intersecting.
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::vector<Trr> regions;
    const int n = 3 + static_cast<int>(rng.UniformInt(5));
    for (int i = 0; i < n; ++i) {
      regions.push_back(
          Trr::Square({rng.Uniform(-5, 5), rng.Uniform(-5, 5)},
                      rng.Uniform(3.0, 8.0)));
    }
    if (!PairwiseIntersecting(regions)) continue;
    const Trr common = IntersectAll(regions);
    EXPECT_FALSE(common.IsEmpty())
        << "Helly property violated for " << n << " TRRs";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrrHellyTest, ::testing::Range(1, 21));

TEST(TrrHellyTest, EuclideanCounterexampleDoesNotApply) {
  // Three unit-side equilateral-triangle circles (Euclidean) pairwise touch
  // but share no common point — the analogous *Manhattan* construction must
  // have a common point (this is why EBF is valid only in L1; Section 4.7).
  const Point a{0.0, 0.0};
  const Point b{1.0, 0.0};
  const Point c{0.5, 0.5};
  const double dab = ManhattanDist(a, b);
  const double dac = ManhattanDist(a, c);
  const double dbc = ManhattanDist(b, c);
  // Radii = half the pairwise distances: pairwise touching balls.
  const Trr ta = Trr::Square(a, 0.5 * std::max(dab, dac));
  const Trr tb = Trr::Square(b, 0.5 * std::max(dab, dbc));
  const Trr tc = Trr::Square(c, 0.5 * std::max(dac, dbc));
  std::vector<Trr> regions{ta, tb, tc};
  ASSERT_TRUE(PairwiseIntersecting(regions, 1e-12));
  EXPECT_FALSE(IntersectAll(regions).IsEmpty());
}

// ---- Segments ------------------------------------------------------------

TEST(SegmentTest, LRouteLengthIsManhattan) {
  const Point a{0, 0};
  const Point b{3, -4};
  const auto route = LRoute(a, b);
  ASSERT_EQ(route.size(), 2u);
  EXPECT_DOUBLE_EQ(TotalLength(route), ManhattanDist(a, b));
  for (const auto& s : route) EXPECT_TRUE(s.IsRectilinear());
}

TEST(SegmentTest, LRouteDegenerateCases) {
  EXPECT_TRUE(LRoute({1, 1}, {1, 1}).empty());
  EXPECT_EQ(LRoute({0, 0}, {5, 0}).size(), 1u);
  EXPECT_EQ(LRoute({0, 0}, {0, 5}).size(), 1u);
}

TEST(SegmentTest, SnakedRouteRealizesExactLength) {
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    const Point a{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    const Point b{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    const double extra = rng.Uniform(0.0, 7.0);
    const auto route = SnakedRoute(a, b, extra);
    EXPECT_NEAR(TotalLength(route), ManhattanDist(a, b) + extra, 1e-9);
  }
}

TEST(SegmentTest, SnakedRouteWithFoldPitch) {
  const auto route = SnakedRoute({0, 0}, {10, 0}, 6.0, 1.0);
  EXPECT_NEAR(TotalLength(route), 16.0, 1e-9);
  for (const auto& s : route) EXPECT_TRUE(s.IsRectilinear());
}

// ---- BBox ------------------------------------------------------------------

TEST(BBoxTest, AroundPoints) {
  const std::vector<Point> pts{{0, 1}, {4, -2}, {2, 5}};
  const BBox box = BBox::Around(pts);
  ASSERT_FALSE(box.IsEmpty());
  EXPECT_EQ(box.Lo(), (Point{0, -2}));
  EXPECT_EQ(box.Hi(), (Point{4, 5}));
  EXPECT_DOUBLE_EQ(box.Width(), 4.0);
  EXPECT_DOUBLE_EQ(box.Height(), 7.0);
  EXPECT_DOUBLE_EQ(box.HalfPerimeter(), 11.0);
  EXPECT_TRUE(box.Contains({2, 2}));
  EXPECT_FALSE(box.Contains({5, 2}));
}

TEST(BBoxTest, EmptyAndInflate) {
  BBox box;
  EXPECT_TRUE(box.IsEmpty());
  box.Expand({1, 1});
  EXPECT_FALSE(box.IsEmpty());
  const BBox big = box.Inflated(2.0);
  EXPECT_EQ(big.Lo(), (Point{-1, -1}));
  EXPECT_EQ(big.Hi(), (Point{3, 3}));
}

// ---- SoA kernel forms ------------------------------------------------------
//
// TrrDistRaw is the lane-layout form of TrrDist consumed by the NN-merge
// grid; its contract is bitwise equality with TrrDist, not approximate
// agreement, because the topology comparisons use ==. OctantSoa is checked
// against a brute-force max over the point pairs it aggregates.

double RawDist(const Trr& a, const Trr& b) {
  return TrrDistRaw(a.U().lo, a.U().hi, a.V().lo, a.V().hi, b.U().lo,
                    b.U().hi, b.V().lo, b.V().hi);
}

TEST(TrrDistRawTest, MatchesTrrDistOnRandomSquares) {
  Rng rng(101);
  for (int it = 0; it < 2000; ++it) {
    const Trr a = Trr::Square({rng.Uniform(-50, 50), rng.Uniform(-50, 50)},
                              rng.Uniform(0.0, 10.0));
    const Trr b = Trr::Square({rng.Uniform(-50, 50), rng.Uniform(-50, 50)},
                              rng.Uniform(0.0, 10.0));
    EXPECT_EQ(TrrDist(a, b), RawDist(a, b));  // bitwise, both orders
    EXPECT_EQ(TrrDist(b, a), RawDist(b, a));
  }
}

TEST(TrrDistRawTest, DegenerateRegions) {
  // Zero-radius squares are points: the raw form must reproduce the exact
  // Manhattan distance, including the 0.0 of coincident points.
  Rng rng(103);
  for (int it = 0; it < 500; ++it) {
    const Point p{rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
    const Point q{rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
    const Trr a = Trr::FromPoint(p);
    const Trr b = Trr::FromPoint(q);
    EXPECT_EQ(TrrDist(a, b), RawDist(a, b));
    EXPECT_EQ(RawDist(a, a), 0.0);
  }

  // Segment-shaped TRRs (one diagonal interval collapsed) and collinear
  // placements along one diagonal axis.
  const Trr seg1{Interval{0.0, 4.0}, Interval{1.0, 1.0}};
  const Trr seg2{Interval{6.0, 9.0}, Interval{1.0, 1.0}};  // collinear gap 2
  const Trr seg3{Interval{2.0, 3.0}, Interval{1.0, 1.0}};  // contained
  EXPECT_EQ(TrrDist(seg1, seg2), RawDist(seg1, seg2));
  EXPECT_EQ(RawDist(seg1, seg2), 2.0);
  EXPECT_EQ(TrrDist(seg1, seg3), RawDist(seg1, seg3));
  EXPECT_EQ(RawDist(seg1, seg3), 0.0);

  // Touching and overlapping squares: distance exactly 0.0 either way.
  const Trr s1 = Trr::Square({0.0, 0.0}, 2.0);
  const Trr s2 = Trr::Square({4.0, 0.0}, 2.0);
  EXPECT_EQ(TrrDist(s1, s2), RawDist(s1, s2));
  EXPECT_EQ(RawDist(s1, s2), 0.0);
  const Trr s3 = Trr::Square({1.0, 1.0}, 3.0);
  EXPECT_EQ(RawDist(s1, s3), 0.0);
}

// A point with its additive offset, as folded into an OctantSoa slot.
struct Weighted {
  Point p;
  double offset;
};

// max over p in A, q in B of dist(p, q) + offset(p) + offset(q), restricted
// to pairs with a dirty endpoint when `dirty_a` / `dirty_b` are given; -inf
// when no pair qualifies.
double BrutePairMax(const std::vector<Weighted>& a,
                    const std::vector<Weighted>& b,
                    const std::vector<bool>* dirty_a = nullptr,
                    const std::vector<bool>* dirty_b = nullptr) {
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (dirty_a != nullptr && !(*dirty_a)[i] && !(*dirty_b)[j]) continue;
      best = std::max(best, ManhattanDist(a[i].p, b[j].p) + a[i].offset +
                                b[j].offset);
    }
  }
  return best;
}

// The octant bound sums the same terms in another order, so it may differ
// from the brute-force max by a few ulps of the operands.
void ExpectBoundNear(double want, double got) {
  if (std::isinf(want)) {
    EXPECT_EQ(want, got);
    return;
  }
  EXPECT_NEAR(want, got, 1e-12 * (1.0 + std::abs(want)));
}

TEST(OctantSoaTest, CrossBoundMatchesBrutePairMax) {
  // Drive per-slot point lists and an SoA store through the same random op
  // stream (Include / Merge), then require every cross bound — within one
  // store and against a CopyFrom-permuted store — and every Empty flag to
  // match the brute-force pair maximum.
  Rng rng(107);
  constexpr std::size_t kSlots = 48;
  std::vector<std::vector<Weighted>> sets(kSlots);
  OctantSoa soa;
  soa.Assign(kSlots);
  ASSERT_EQ(soa.size(), kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) EXPECT_TRUE(soa.Empty(i));

  for (int op = 0; op < 600; ++op) {
    const std::size_t i = static_cast<std::size_t>(rng.UniformInt(kSlots));
    const std::size_t j = static_cast<std::size_t>(rng.UniformInt(kSlots));
    const double pick = rng.Uniform(0.0, 1.0);
    if (pick < 0.6) {
      const Point p{rng.Uniform(-30, 30), rng.Uniform(-30, 30)};
      const double offset = rng.Uniform(-5, 5);
      sets[i].push_back({p, offset});
      soa.Include(i, p, offset);
    } else if (i != j) {
      sets[i].insert(sets[i].end(), sets[j].begin(), sets[j].end());
      soa.Merge(i, j);
    }
  }

  OctantSoa copy;
  copy.Assign(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) {
    copy.CopyFrom(i, soa, kSlots - 1 - i);
    EXPECT_EQ(soa.Empty(i), sets[i].empty());
  }
  for (std::size_t a = 0; a < kSlots; ++a) {
    for (std::size_t b = 0; b < kSlots; ++b) {
      const double want = BrutePairMax(sets[a], sets[b]);
      const double got = OctantSoa::CrossBound(soa, a, soa, b);
      ExpectBoundNear(want, got);
      EXPECT_EQ(got, OctantSoa::CrossBound(soa, a, copy, kSlots - 1 - b));
    }
  }
}

TEST(OctantSoaTest, CrossBoundDirtyMatchesBruteScreen) {
  // Parallel "all"/"dirty" stores, dirty a strict subset: the dirty screen
  // must equal the brute-force max over pairs with a dirty endpoint.
  Rng rng(109);
  constexpr std::size_t kSlots = 24;
  std::vector<std::vector<Weighted>> sets(kSlots);
  std::vector<std::vector<bool>> flags(kSlots);
  OctantSoa all;
  OctantSoa dirty;
  all.Assign(kSlots);
  dirty.Assign(kSlots);

  for (std::size_t i = 0; i < kSlots; ++i) {
    const int pts = 1 + static_cast<int>(rng.UniformInt(4));
    for (int t = 0; t < pts; ++t) {
      const Point p{rng.Uniform(-20, 20), rng.Uniform(-20, 20)};
      const double offset = rng.Uniform(-3, 3);
      const bool is_dirty = rng.Uniform(0.0, 1.0) < 0.4;
      sets[i].push_back({p, offset});
      flags[i].push_back(is_dirty);
      all.Include(i, p, offset);
      if (is_dirty) dirty.Include(i, p, offset);
    }
  }

  for (std::size_t a = 0; a < kSlots; ++a) {
    for (std::size_t b = 0; b < kSlots; ++b) {
      ExpectBoundNear(BrutePairMax(sets[a], sets[b], &flags[a], &flags[b]),
                      OctantSoa::CrossBoundDirty(all, dirty, a, b));
    }
  }

  // Empty dirty side: the screen collapses to -inf exactly (no pair has a
  // dirty endpoint).
  OctantSoa clean;
  clean.Assign(kSlots);
  EXPECT_EQ(OctantSoa::CrossBoundDirty(all, clean, 0, 1),
            -std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace lubt
