#include "search/exact_dp.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "cts/metrics.h"
#include "ebf/solver.h"
#include "util/status.h"

namespace lubt {

namespace {

// Octant sign lanes: k indexes sigma in {(+,+), (+,-), (-,+), (-,-)};
// -sigma_k is lane 3-k.
inline double SigmaDot(int k, const Point& p) {
  const double sx = k < 2 ? 1.0 : -1.0;
  const double sy = (k % 2) == 0 ? 1.0 : -1.0;
  return sx * p.x + sy * p.y;
}

}  // namespace

LeafDelayDpResult LeafDelayDp(const Topology& topo,
                              std::span<const Point> sinks,
                              const std::optional<Point>& source,
                              std::span<const DelayBounds> bounds,
                              std::span<const double> leaf_delay,
                              double tol) {
  LeafDelayDpResult out;
  const std::size_t n = static_cast<std::size_t>(topo.NumNodes());
  if (!topo.HasRoot() || leaf_delay.size() != sinks.size() ||
      bounds.size() != sinks.size()) {
    return out;
  }

  // Window feasibility of the given delays, with the fixed-source fold
  // (a root-to-sink path is at least the L1 source distance).
  for (std::size_t s = 0; s < sinks.size(); ++s) {
    double lo = bounds[s].lo;
    if (source.has_value()) {
      lo = std::max(lo, ManhattanDist(*source, sinks[s]));
    }
    if (leaf_delay[s] < lo - tol) return out;
    if (std::isfinite(bounds[s].hi) && leaf_delay[s] > bounds[s].hi + tol) {
      return out;
    }
  }

  // Bottom-up sweep: octant aggregates g[k][v] = min over leaves under v of
  // (d_i - sigma_k . p_i), and the componentwise-maximal feasible root
  // distance dstar[v] = min(cap_v, min over children dstar).
  std::vector<std::array<double, 4>> g(n);
  std::vector<double> dstar(n, 0.0);
  const std::vector<NodeId> post = topo.PostOrder();
  for (const NodeId v : post) {
    const TopoNode& node = topo.Node(v);
    auto& gv = g[static_cast<std::size_t>(v)];
    if (node.sink >= 0) {
      const double d = leaf_delay[static_cast<std::size_t>(node.sink)];
      const Point& p = sinks[static_cast<std::size_t>(node.sink)];
      for (int k = 0; k < 4; ++k) gv[k] = d - SigmaDot(k, p);
      dstar[static_cast<std::size_t>(v)] = d;
      continue;
    }
    if (node.right == kInvalidNode) {  // fixed-source unary root
      gv = g[static_cast<std::size_t>(node.left)];
      dstar[static_cast<std::size_t>(v)] =
          dstar[static_cast<std::size_t>(node.left)];
      continue;
    }
    const auto& gl = g[static_cast<std::size_t>(node.left)];
    const auto& gr = g[static_cast<std::size_t>(node.right)];
    double cap = 0.5 * (gl[0] + gr[3]);
    for (int k = 1; k < 4; ++k) {
      cap = std::min(cap, 0.5 * (gl[k] + gr[3 - k]));
    }
    for (int k = 0; k < 4; ++k) gv[k] = std::min(gl[k], gr[k]);
    dstar[static_cast<std::size_t>(v)] =
        std::min(cap, std::min(dstar[static_cast<std::size_t>(node.left)],
                               dstar[static_cast<std::size_t>(node.right)]));
  }

  // Feasible iff the root can sit at distance 0: every internal node's
  // maximal distance is >= dstar[root], so one check covers the tree.
  const NodeId root = topo.Root();
  if (dstar[static_cast<std::size_t>(root)] < -tol) return out;

  // Assign the maximal solution (root pinned to 0, internal nodes at their
  // clamped maxima, leaves at the given delays) and telescope the edges.
  double cost = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    const NodeId id = static_cast<NodeId>(v);
    if (id == root) continue;
    const TopoNode& node = topo.Node(id);
    const double dv = node.sink >= 0
                          ? leaf_delay[static_cast<std::size_t>(node.sink)]
                          : std::max(0.0, dstar[v]);
    const double dp =
        node.parent == root
            ? 0.0
            : std::max(0.0, dstar[static_cast<std::size_t>(node.parent)]);
    cost += dv - dp;
  }
  out.feasible = true;
  out.cost = cost;
  return out;
}

ExactScore ExactTopologyScore(const Topology& topo,
                              std::span<const Point> sinks,
                              const std::optional<Point>& source,
                              std::span<const DelayBounds> bounds) {
  ExactScore out;
  const int m = static_cast<int>(sinks.size());
  if (m > 2 * kExactOracleMaxSinks) {
    out.status = Status::InvalidArgument(
        "exact scoring is a small-instance oracle (full Theta(m^2) rows)");
    return out;
  }

  // Independent engine stack: every Steiner row materialized up front, dense
  // two-phase simplex, no warm starts, no separation oracle, no IPM.
  EbfProblem prob;
  prob.topo = &topo;
  prob.sinks = sinks;
  prob.source = source;
  prob.bounds.assign(bounds.begin(), bounds.end());
  EbfSolveOptions opts;
  opts.strategy = EbfStrategy::kFullRows;
  opts.lp.engine = LpEngine::kSimplex;
  opts.use_zero_skew_fast_path = false;
  const EbfSolveResult res = SolveEbf(prob, opts);
  if (!res.ok()) {
    out.status = res.status;
    return out;
  }
  out.status = Status::Ok();
  out.cost = res.cost;

  // Certification: re-derive the cost from the leaf delays alone through
  // the DP. The DP's optimum for these delays can only be <= the LP's cost
  // (the LP's internal assignment is feasible for the DP); since the LP is
  // optimal over *all* delays, equality is the consistency certificate.
  std::vector<double> root_dist(static_cast<std::size_t>(topo.NumNodes()),
                                0.0);
  std::vector<double> leaf_delay(sinks.size(), 0.0);
  for (const NodeId v : topo.PreOrder()) {
    const TopoNode& node = topo.Node(v);
    if (node.parent != kInvalidNode) {
      root_dist[static_cast<std::size_t>(v)] =
          root_dist[static_cast<std::size_t>(node.parent)] +
          res.edge_len[static_cast<std::size_t>(v)];
    }
    if (node.sink >= 0) {
      leaf_delay[static_cast<std::size_t>(node.sink)] =
          root_dist[static_cast<std::size_t>(v)];
    }
  }
  const double scale = std::max(1.0, Radius(sinks, source));
  const LeafDelayDpResult dp =
      LeafDelayDp(topo, sinks, source, bounds, leaf_delay, 1e-6 * scale);
  out.dp_certified =
      dp.feasible && std::abs(dp.cost - res.cost) <= 1e-6 * scale;
  return out;
}

namespace {

// Exhaustive enumerator over rooted binary leaf-labeled merge trees:
// leaves are ids [0, m), internal nodes [m, 2m-1); the tree over the first
// k leaves grows by splitting any of its 2k-1 node-above edges (counting
// the above-root position) with leaf k — each tree is produced exactly
// once, (2m-3)!! in total.
class TopoEnumerator {
 public:
  TopoEnumerator(std::span<const Point> sinks,
                 const std::optional<Point>& source,
                 std::span<const DelayBounds> bounds, ExactBest* best)
      : sinks_(sinks), source_(source), bounds_(bounds), best_(best) {
    const std::size_t m = sinks.size();
    parent_.assign(2 * m, kInvalidNode);
    left_.assign(2 * m, kInvalidNode);
    right_.assign(2 * m, kInvalidNode);
  }

  void Run() {
    root_ = 0;  // the tree on leaf 0 alone
    next_internal_ = static_cast<NodeId>(sinks_.size());
    Recurse(1);
  }

 private:
  void Score() {
    Topology topo;
    const NodeId top = Emit(root_, &topo);
    if (source_.has_value()) {
      topo.SetRoot(topo.AddUnaryNode(top), RootMode::kFixedSource);
    } else {
      topo.SetRoot(top, RootMode::kFreeSource);
    }
    const ExactScore score =
        ExactTopologyScore(topo, sinks_, source_, bounds_);
    ++best_->enumerated;
    if (!score.ok()) return;
    ++best_->feasible;
    if (!best_->status.ok() || score.cost < best_->cost - 1e-12) {
      best_->status = Status::Ok();
      best_->cost = score.cost;
      best_->topo = std::move(topo);
    }
  }

  NodeId Emit(NodeId v, Topology* out) const {
    if (v < static_cast<NodeId>(sinks_.size())) return out->AddSinkNode(v);
    const NodeId l = Emit(left_[static_cast<std::size_t>(v)], out);
    const NodeId r = Emit(right_[static_cast<std::size_t>(v)], out);
    return out->AddInternalNode(l, r);
  }

  void Recurse(int k) {
    if (k == static_cast<int>(sinks_.size())) {
      Score();
      return;
    }
    const NodeId leaf = static_cast<NodeId>(k);
    const NodeId w = next_internal_;
    // Positions: above every live node (leaves [0, k), internals
    // [m, next_internal_)), including above the root.
    const NodeId m = static_cast<NodeId>(sinks_.size());
    for (int pass = 0; pass < 2; ++pass) {
      const NodeId lo = pass == 0 ? 0 : m;
      const NodeId hi = pass == 0 ? leaf : next_internal_;
      for (NodeId v = lo; v < hi; ++v) {
        const NodeId p = parent_[static_cast<std::size_t>(v)];
        parent_[static_cast<std::size_t>(w)] = p;
        if (p == kInvalidNode) {
          root_ = w;
        } else if (left_[static_cast<std::size_t>(p)] == v) {
          left_[static_cast<std::size_t>(p)] = w;
        } else {
          right_[static_cast<std::size_t>(p)] = w;
        }
        left_[static_cast<std::size_t>(w)] = v;
        right_[static_cast<std::size_t>(w)] = leaf;
        parent_[static_cast<std::size_t>(v)] = w;
        parent_[static_cast<std::size_t>(leaf)] = w;
        ++next_internal_;
        Recurse(k + 1);
        --next_internal_;
        // Undo the split.
        parent_[static_cast<std::size_t>(leaf)] = kInvalidNode;
        parent_[static_cast<std::size_t>(v)] = p;
        if (p == kInvalidNode) {
          root_ = v;
        } else if (left_[static_cast<std::size_t>(p)] == w) {
          left_[static_cast<std::size_t>(p)] = v;
        } else {
          right_[static_cast<std::size_t>(p)] = v;
        }
      }
    }
  }

  std::span<const Point> sinks_;
  const std::optional<Point>& source_;
  std::span<const DelayBounds> bounds_;
  ExactBest* best_;
  std::vector<NodeId> parent_, left_, right_;
  NodeId root_ = 0;
  NodeId next_internal_ = 0;
};

}  // namespace

ExactBest ExactBestTopology(std::span<const Point> sinks,
                            const std::optional<Point>& source,
                            std::span<const DelayBounds> bounds) {
  ExactBest best;
  best.status = Status::Infeasible("no feasible topology");
  const int m = static_cast<int>(sinks.size());
  if (bounds.size() != sinks.size()) {
    best.status = Status::InvalidArgument("one DelayBounds per sink");
    return best;
  }
  const int min_sinks = source.has_value() ? 1 : 2;
  if (m < min_sinks || m > kExactEnumMaxSinks) {
    best.status = Status::InvalidArgument(
        "exhaustive enumeration handles " + std::to_string(min_sinks) +
        ".." + std::to_string(kExactEnumMaxSinks) + " sinks");
    return best;
  }
  if (m == 1) {  // fixed source, single sink: one topology exists
    Topology topo;
    topo.SetRoot(topo.AddUnaryNode(topo.AddSinkNode(0)),
                 RootMode::kFixedSource);
    const ExactScore score = ExactTopologyScore(topo, sinks, source, bounds);
    best.enumerated = 1;
    if (score.ok()) {
      best.feasible = 1;
      best.status = Status::Ok();
      best.cost = score.cost;
      best.topo = std::move(topo);
    } else {
      best.status = score.status;
    }
    return best;
  }
  TopoEnumerator(sinks, source, bounds, &best).Run();
  return best;
}

}  // namespace lubt
