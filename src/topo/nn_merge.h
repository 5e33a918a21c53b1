// Nearest-neighbour merge topology generation.
//
// The paper (Section 8) adopts its topology generator from Huang-Kahng-Tsao
// [9], which is based on Edahiro's nearest-neighbour clustering: repeatedly
// merge the two clusters whose merging regions are closest in L1, producing
// a full binary tree in which every sink is a leaf (so Lemma 3.1 guarantees
// LUBT feasibility for any bounds). Cluster regions are maintained exactly
// as in DME: merging two regions at L1 distance d yields the intersection of
// the regions inflated by d/2 each.
//
// Two search backends produce the *identical* topology (node ids, children
// order, everything). kGridSoa, the default, is a uniform grid over
// diagonal coordinates that answers nearest-region queries by expanding
// cell rings (pruning a ring as soon as its distance lower bound exceeds
// the best candidate); its cells store the cluster regions' diagonal bounds
// in parallel double lanes, so the per-cell candidate scan is a branch-free
// TrrDistRaw reduction over contiguous arrays. kScan, the historical
// all-pairs rescan, is kept as the cross-check reference
// (tests/separation_test.cpp gates on exact agreement).

#ifndef LUBT_TOPO_NN_MERGE_H_
#define LUBT_TOPO_NN_MERGE_H_

#include <optional>
#include <span>

#include "geom/point.h"
#include "topo/topology.h"

namespace lubt {

/// Which nearest-neighbour search backs the merge loop. Both produce the
/// same tree; kGridSoa is the lane-major grid, kScan the O(n^2)-rescan
/// reference.
enum class NnMergeAccel { kGridSoa, kScan };

const char* NnMergeAccelName(NnMergeAccel accel);

/// Build a nearest-neighbour-merge topology over `sinks`.
/// With a `source`, the tree gets a fixed-source unary root; otherwise the
/// top merge node is a free-source root. Requires at least one sink.
Topology NnMergeTopology(std::span<const Point> sinks,
                         const std::optional<Point>& source,
                         NnMergeAccel accel = NnMergeAccel::kGridSoa);

/// Leaf node of `topo` whose sink lies nearest to `p` in L1, ties broken by
/// the smaller sink index; kInvalidNode when there is no eligible sink.
/// `sinks` is indexed by sink index; `exclude_sink` (if >= 0) is skipped.
/// O(m) scan — this backs the ECO engine's NN re-attach repair, where the
/// query point is a single edited sink, not a merge loop.
NodeId NearestSinkNode(const Topology& topo, std::span<const Point> sinks,
                       const Point& p, std::int32_t exclude_sink = -1);

}  // namespace lubt

#endif  // LUBT_TOPO_NN_MERGE_H_
