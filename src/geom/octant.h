// Octant aggregates for exact farthest-pair bounds under the L1 metric.
//
// Manhattan distance decomposes over the four sign combinations
//
//     dist(p, q) = max over s in {+1,-1}^2 of  s.(p - q)
//                = max over s of  (s.p) + (-s.q),
//
// so the maximum of dist(p, q) + f(p) + g(q) over p in P, q in Q — the shape
// of every Steiner-row violation query, with f/g the negated root distances —
// equals max over s of [max_P (s.p + f)] + [max_Q (-s.q + g)]. Maintaining
// the four per-octant maxima per set makes that cross bound O(1) and the
// maxima merge bottom-up over a topology in O(1) per node, which is what
// turns the all-pairs separation scan into an output-sensitive oracle
// (ebf/formulation.cpp). The bound is *exact* (not an estimate) whenever
// both sets are singletons.

#ifndef LUBT_GEOM_OCTANT_H_
#define LUBT_GEOM_OCTANT_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "geom/point.h"

namespace lubt {

/// Per-octant maxima of s.p + offset over indexed point sets ("slots"), one
/// lane per sign combination s in {(+,+), (+,-), (-,+), (-,-)}: lane k holds,
/// contiguously, the octant-k maximum of every slot. In diagonal coordinates
/// the four lanes are the subtree maxima of +u, -v, +v, -u (each plus the
/// per-point offset), so bulk operations — the Assign reset, the bottom-up
/// Merge sweep, the bucket screen — are branch-free max reductions over flat
/// double arrays. The separation oracle (ebf/formulation.cpp) keeps one slot
/// per topology node.
class OctantSoa {
 public:
  /// Reset to n empty slots (four contiguous -inf fills).
  void Assign(std::size_t n) {
    for (auto& lane : lane_) {
      lane.assign(n, -std::numeric_limits<double>::infinity());
    }
  }

  std::size_t size() const { return lane_[0].size(); }

  /// Fold one point with an additive offset into slot i.
  void Include(std::size_t i, const Point& p, double offset) {
    for (int k = 0; k < kOctants; ++k) {
      double& m = lane_[static_cast<std::size_t>(k)][i];
      m = std::max(m, Key(k, p) + offset);
    }
  }

  /// Fold slot src into slot dst (set union: lane-wise max).
  void Merge(std::size_t dst, std::size_t src) {
    for (auto& lane : lane_) lane[dst] = std::max(lane[dst], lane[src]);
  }

  /// Copy slot src of `o` into slot dst (seeds the dirty aggregate).
  void CopyFrom(std::size_t dst, const OctantSoa& o, std::size_t src) {
    for (int k = 0; k < kOctants; ++k) {
      lane_[static_cast<std::size_t>(k)][dst] =
          o.lane_[static_cast<std::size_t>(k)][src];
    }
  }

  bool Empty(std::size_t i) const {
    return lane_[0][i] == -std::numeric_limits<double>::infinity();
  }

  /// max over p in A, q in B of dist(p, q) + offset_A(p) + offset_B(q), with
  /// side A the set in slot a of `a_store` and side B the set in slot b of
  /// `b_store`. -inf when either side is empty.
  static double CrossBound(const OctantSoa& a_store, std::size_t a,
                           const OctantSoa& b_store, std::size_t b) {
    double best = -std::numeric_limits<double>::infinity();
    for (int k = 0; k < kOctants; ++k) {
      const std::size_t ka = static_cast<std::size_t>(k);
      const std::size_t kb = static_cast<std::size_t>(Opposite(k));
      best = std::max(best, a_store.lane_[ka][a] + b_store.lane_[kb][b]);
    }
    return best;
  }

  /// CrossBound restricted to pairs with at least one point in a marked
  /// ("dirty") subset. `all` aggregates every point and `dirty` the flagged
  /// subset, with the same slot indexing, and
  ///   max(CrossBound(dirty_a, all_b), CrossBound(all_a, dirty_b))
  /// bounds every pair with >= 1 dirty endpoint. This is the screen the ECO
  /// engine uses to re-separate only the region an edit touched
  /// (eco/eco_session.cpp) without losing the exactness of CrossBound.
  static double CrossBoundDirty(const OctantSoa& all, const OctantSoa& dirty,
                                std::size_t a, std::size_t b) {
    return std::max(CrossBound(dirty, a, all, b),
                    CrossBound(all, a, dirty, b));
  }

 private:
  static constexpr int kOctants = 4;

  // s.p for octant k; the lane order makes Opposite(k) == 3 - k.
  static double Key(int k, const Point& p) {
    switch (k) {
      case 0: return p.x + p.y;
      case 1: return p.x - p.y;
      case 2: return p.y - p.x;
      default: return -p.x - p.y;
    }
  }

  // Index of the negated sign combination.
  static constexpr int Opposite(int k) { return kOctants - 1 - k; }

  std::vector<double> lane_[kOctants];
};

}  // namespace lubt

#endif  // LUBT_GEOM_OCTANT_H_
