#include "ebf/formulation.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "cts/metrics.h"
#include "runtime/thread_pool.h"
#include "topo/validate.h"

namespace lubt {

const char* SeparationModeName(SeparationMode mode) {
  switch (mode) {
    case SeparationMode::kOctantSoa:
      return "octant-soa";
    case SeparationMode::kBruteForce:
      return "brute-force";
  }
  return "unknown";
}

Status ValidateEbfProblem(const EbfProblem& problem) {
  if (problem.topo == nullptr) {
    return Status::InvalidArgument("problem has no topology");
  }
  const Topology& topo = *problem.topo;
  LUBT_RETURN_IF_ERROR(
      ValidateTopology(topo, static_cast<int>(problem.sinks.size())));
  if (problem.bounds.size() != problem.sinks.size()) {
    return Status::InvalidArgument("one DelayBounds required per sink");
  }
  const bool fixed = topo.Mode() == RootMode::kFixedSource;
  if (fixed != problem.source.has_value()) {
    return Status::InvalidArgument(
        "source point must be given exactly when the topology has a fixed "
        "source root");
  }
  for (const DelayBounds& b : problem.bounds) {
    if (std::isnan(b.lo) || std::isnan(b.hi)) {
      return Status::InvalidArgument("NaN delay bound");
    }
    if (b.lo < 0.0) {
      return Status::InvalidArgument("negative delay lower bound");
    }
    if (b.lo > b.hi) {
      return Status::InvalidArgument("delay lower bound exceeds upper bound");
    }
  }
  if (!problem.edge_weight.empty() &&
      problem.edge_weight.size() != static_cast<std::size_t>(topo.NumNodes())) {
    return Status::InvalidArgument(
        "edge_weight must be empty or have one entry per node");
  }
  for (const NodeId v : problem.zero_length_edges) {
    if (v < 0 || v >= topo.NumNodes() || v == topo.Root()) {
      return Status::InvalidArgument("zero-length edge id out of range");
    }
  }
  return Status::Ok();
}

EdgeIndexer::EdgeIndexer(const Topology& topo) {
  col_of_node_.assign(static_cast<std::size_t>(topo.NumNodes()), -1);
  node_of_col_.reserve(static_cast<std::size_t>(topo.NumEdges()));
  for (NodeId v = 0; v < topo.NumNodes(); ++v) {
    if (v == topo.Root()) continue;
    col_of_node_[static_cast<std::size_t>(v)] =
        static_cast<int>(node_of_col_.size());
    node_of_col_.push_back(v);
  }
}

int EdgeIndexer::ColOf(NodeId node) const {
  const int col = col_of_node_[static_cast<std::size_t>(node)];
  LUBT_ASSERT(col >= 0);
  return col;
}

NodeId EdgeIndexer::NodeOf(int col) const {
  return node_of_col_[static_cast<std::size_t>(col)];
}

EbfFormulation::EbfFormulation(const EbfProblem& problem, double scale)
    : problem_(&problem),
      indexer_(*problem.topo),
      paths_(*problem.topo),
      model_(indexer_.NumEdges()),
      scale_(scale) {}

namespace {

// Sorted-column sparse row over a set of edges (node ids), all coef 1.
SparseRow RowOverEdges(const EdgeIndexer& indexer,
                       std::span<const NodeId> edges, double lo, double hi) {
  SparseRow row;
  row.index.reserve(edges.size());
  for (const NodeId v : edges) {
    row.index.push_back(indexer.ColOf(v));
  }
  std::sort(row.index.begin(), row.index.end());
  row.value.assign(row.index.size(), 1.0);
  row.lo = lo;
  row.hi = hi;
  return row;
}

// Extreme sinks of a subtree in diagonal coordinates, for exact farthest
// cross-pair queries (L1 distance = max coordinate gap in (u, v)).
struct Extremes {
  double max_u = -std::numeric_limits<double>::infinity();
  double min_u = std::numeric_limits<double>::infinity();
  double max_v = -std::numeric_limits<double>::infinity();
  double min_v = std::numeric_limits<double>::infinity();
  NodeId arg_max_u = kInvalidNode;
  NodeId arg_min_u = kInvalidNode;
  NodeId arg_max_v = kInvalidNode;
  NodeId arg_min_v = kInvalidNode;

  void Merge(const Extremes& o) {
    if (o.max_u > max_u) { max_u = o.max_u; arg_max_u = o.arg_max_u; }
    if (o.min_u < min_u) { min_u = o.min_u; arg_min_u = o.arg_min_u; }
    if (o.max_v > max_v) { max_v = o.max_v; arg_max_v = o.arg_max_v; }
    if (o.min_v < min_v) { min_v = o.min_v; arg_min_v = o.arg_min_v; }
  }
};

// The octant screen bound and the exact per-pair violation are the same
// quantity computed through different floating-point expressions, so the
// screen keeps this much slack: a subtree pair is pruned only when its bound
// is at least kScreenSlack below the tolerance, and every surviving leaf
// pair is re-tested with the brute-force arithmetic. Magnitudes are O(1) in
// radius-normalized units, so 1e-9 dominates the few-ulp expression
// difference by orders of magnitude while costing no measurable descent.
constexpr double kScreenSlack = 1e-9;

}  // namespace

// Strict total order: strongest violation first, node-id pair as the exact
// tiebreak. Total (no two violations share a normalized pair), so top-k
// selection and full sorts agree between both separation modes and across
// worker counts.
bool EbfFormulation::StrongerViolation(const Violation& x, const Violation& y) {
  if (x.amount != y.amount) return x.amount > y.amount;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

Result<EbfFormulation> EbfFormulation::BuildBase(const EbfProblem& problem,
                                                 double scale,
                                                 std::size_t steiner_reserve) {
  LUBT_RETURN_IF_ERROR(ValidateEbfProblem(problem));
  const Topology& topo = *problem.topo;

  EbfFormulation f(problem, scale);
  LpModel& model = f.model_;

  // Row counts are known (or tightly bounded) up front: reserve once
  // instead of growing through Theta(m^2) push_backs under kAll.
  model.ReserveRows(problem.zero_length_edges.size() + problem.sinks.size() +
                    steiner_reserve);

  // Objective: (weighted) total edge length.
  for (int col = 0; col < f.indexer_.NumEdges(); ++col) {
    const NodeId v = f.indexer_.NodeOf(col);
    const double w = problem.edge_weight.empty()
                         ? 1.0
                         : problem.edge_weight[static_cast<std::size_t>(v)];
    model.SetObjective(col, w);
  }

  // Zero-length (degree-4 split) edges: e <= 0 pins them with e >= 0.
  for (const NodeId v : problem.zero_length_edges) {
    const std::int32_t col = f.indexer_.ColOf(v);
    const double one = 1.0;
    model.AddRow(std::span<const std::int32_t>(&col, 1),
                 std::span<const double>(&one, 1), -kLpInf, 0.0);
  }

  // Sink node lookup by sink index; the post order is kept for the
  // separation oracle's bottom-up aggregate pass.
  f.post_order_ = topo.PostOrder();
  f.sink_nodes_.assign(problem.sinks.size(), kInvalidNode);
  for (const NodeId v : f.post_order_) {
    if (topo.IsSinkNode(v)) {
      f.sink_nodes_[static_cast<std::size_t>(topo.SinkIndex(v))] = v;
    }
  }

  // Flat post-order topology arrays for the SoA oracle (the topology never
  // changes under a formulation, so one prefetch serves every round).
  f.flat_left_.resize(f.post_order_.size());
  f.flat_right_.resize(f.post_order_.size());
  f.flat_sink_.resize(f.post_order_.size());
  for (std::size_t i = 0; i < f.post_order_.size(); ++i) {
    const NodeId v = f.post_order_[i];
    const TopoNode& node = topo.Node(v);
    f.flat_left_[i] = node.left;
    f.flat_right_[i] = node.right;
    f.flat_sink_[i] = topo.IsSinkNode(v) ? topo.SinkIndex(v) : -1;
  }

  // Delay rows, one ranged row per sink (folding, regularization, and the
  // infeasible-window encoding all live in DelayWindowLp so incremental
  // callers refresh bounds through the exact same arithmetic).
  const NodeId root = topo.Root();
  for (std::size_t s = 0; s < problem.sinks.size(); ++s) {
    const NodeId leaf = f.sink_nodes_[s];
    const LpWindow w = f.DelayWindowLp(static_cast<std::int32_t>(s));
    f.paths_.PathEdgesInto(leaf, root, f.path_edges_scratch_);
    const std::vector<NodeId>& edges = f.path_edges_scratch_;
    if (w.lo > w.hi) {
      // Geometrically infeasible bounds (violates Equation 3): encode as two
      // contradictory single-sided rows so the solver reports infeasibility.
      model.AddRow(RowOverEdges(f.indexer_, edges, w.lo, kLpInf));
      model.AddRow(RowOverEdges(f.indexer_, edges, -kLpInf, w.hi));
      continue;
    }
    model.AddRow(RowOverEdges(f.indexer_, edges, w.lo, w.hi));
  }
  return f;
}

Result<EbfFormulation> EbfFormulation::Build(const EbfProblem& problem,
                                             SteinerRowPolicy policy) {
  LUBT_RETURN_IF_ERROR(ValidateEbfProblem(problem));
  const Topology& topo = *problem.topo;

  const double radius = Radius(problem.sinks, problem.source);
  const double scale = radius > 0.0 ? radius : 1.0;

  std::size_t steiner_reserve = 0;
  {
    const std::size_t m = problem.sinks.size();
    if (policy == SteinerRowPolicy::kAll) {
      steiner_reserve = m * (m - 1) / 2;
    } else if (policy == SteinerRowPolicy::kSeed) {
      // At most one seed row per internal node.
      steiner_reserve = static_cast<std::size_t>(topo.NumNodes()) - m;
    } else {
      steiner_reserve = m * (m - 1) / 2;  // kReduced upper bound
    }
  }
  Result<EbfFormulation> base = BuildBase(problem, scale, steiner_reserve);
  if (!base.ok()) return base;
  EbfFormulation f = std::move(base).value();
  LpModel& model = f.model_;

  // Steiner rows.
  const std::vector<NodeId>& post = f.post_order_;
  if (policy == SteinerRowPolicy::kSeed) {
    // One farthest cross pair per binary internal node, found exactly from
    // per-subtree extreme sinks in diagonal coordinates.
    std::vector<Extremes> ext(static_cast<std::size_t>(topo.NumNodes()));
    for (const NodeId v : post) {
      Extremes& e = ext[static_cast<std::size_t>(v)];
      if (topo.IsSinkNode(v)) {
        const DiagPoint d =
            ToDiag(problem.sinks[static_cast<std::size_t>(topo.SinkIndex(v))]);
        e.max_u = e.min_u = d.u;
        e.max_v = e.min_v = d.v;
        e.arg_max_u = e.arg_min_u = e.arg_max_v = e.arg_min_v = v;
        continue;
      }
      const TopoNode& node = topo.Node(v);
      if (node.left != kInvalidNode) {
        e.Merge(ext[static_cast<std::size_t>(node.left)]);
      }
      if (node.right != kInvalidNode) {
        e.Merge(ext[static_cast<std::size_t>(node.right)]);
      }
      if (node.left == kInvalidNode || node.right == kInvalidNode) continue;
      const Extremes& a = ext[static_cast<std::size_t>(node.left)];
      const Extremes& b = ext[static_cast<std::size_t>(node.right)];
      // Candidate gaps; the largest is the exact farthest cross distance.
      const double cands[4] = {a.max_u - b.min_u, b.max_u - a.min_u,
                               a.max_v - b.min_v, b.max_v - a.min_v};
      const NodeId pairs[4][2] = {{a.arg_max_u, b.arg_min_u},
                                  {b.arg_max_u, a.arg_min_u},
                                  {a.arg_max_v, b.arg_min_v},
                                  {b.arg_max_v, a.arg_min_v}};
      int bestc = 0;
      for (int c = 1; c < 4; ++c) {
        if (cands[c] > cands[bestc]) bestc = c;
      }
      const NodeId sa = pairs[bestc][0];
      const NodeId sb = pairs[bestc][1];
      const std::int32_t si = topo.SinkIndex(sa);
      const std::int32_t sj = topo.SinkIndex(sb);
      const double dist =
          ManhattanDist(problem.sinks[static_cast<std::size_t>(si)],
                        problem.sinks[static_cast<std::size_t>(sj)]);
      if (dist <= 0.0) continue;
      model.AddRow(f.MakeSteinerRow(sa, sb, dist / scale));
      f.steiner_pairs_.push_back({std::min(si, sj), std::max(si, sj)});
      ++f.num_steiner_rows_;
    }
    return f;
  }

  // kAll / kReduced: enumerate sink pairs. For kReduced, a row is implied if
  //   l_i + l_j - 2 * min_{k below lca} u_k >= dist(s_i, s_j)
  // because delay(lca) <= delay(k) <= u_k for every sink k below the LCA.
  std::vector<double> min_u_below(static_cast<std::size_t>(topo.NumNodes()),
                                  kLpInf);
  if (policy == SteinerRowPolicy::kReduced) {
    for (const NodeId v : post) {
      double mu = kLpInf;
      if (topo.IsSinkNode(v)) {
        const double hi =
            problem.bounds[static_cast<std::size_t>(topo.SinkIndex(v))].hi;
        mu = std::isfinite(hi) ? hi / scale : kLpInf;
      }
      const TopoNode& node = topo.Node(v);
      for (const NodeId child : {node.left, node.right}) {
        if (child != kInvalidNode) {
          mu = std::min(mu, min_u_below[static_cast<std::size_t>(child)]);
        }
      }
      min_u_below[static_cast<std::size_t>(v)] = mu;
    }
  }

  for (std::size_t i = 0; i < problem.sinks.size(); ++i) {
    for (std::size_t j = i + 1; j < problem.sinks.size(); ++j) {
      const double dist = ManhattanDist(problem.sinks[i], problem.sinks[j]);
      if (dist <= 0.0) continue;
      const NodeId a = f.sink_nodes_[i];
      const NodeId b = f.sink_nodes_[j];
      if (policy == SteinerRowPolicy::kReduced) {
        const NodeId anc = f.paths_.Lca(a, b);
        const double mu = min_u_below[static_cast<std::size_t>(anc)];
        if (std::isfinite(mu)) {
          const double implied = problem.bounds[i].lo / scale +
                                 problem.bounds[j].lo / scale - 2.0 * mu;
          if (implied >= dist / scale) continue;
        }
      }
      model.AddRow(f.MakeSteinerRow(a, b, dist / scale));
      f.steiner_pairs_.push_back({static_cast<std::int32_t>(i),
                                  static_cast<std::int32_t>(j)});
      ++f.num_steiner_rows_;
    }
  }
  return f;
}

Result<EbfFormulation> EbfFormulation::BuildWithSteinerPairs(
    const EbfProblem& problem, double scale,
    std::span<const std::array<std::int32_t, 2>> pairs) {
  if (!std::isfinite(scale) || scale <= 0.0) {
    return Status::InvalidArgument("restore build: scale must be positive");
  }
  const std::int32_t m = static_cast<std::int32_t>(problem.sinks.size());
  for (const std::array<std::int32_t, 2>& pr : pairs) {
    if (pr[0] < 0 || pr[1] >= m || pr[0] >= pr[1]) {
      return Status::InvalidArgument(
          "restore build: malformed Steiner pair (" +
          std::to_string(pr[0]) + ", " + std::to_string(pr[1]) + ")");
    }
  }
  Result<EbfFormulation> base = BuildBase(problem, scale, pairs.size());
  if (!base.ok()) return base;
  EbfFormulation f = std::move(base).value();
  for (const std::array<std::int32_t, 2>& pr : pairs) {
    f.model_.AddRow(f.SteinerRowForSinks(pr[0], pr[1]));
    f.steiner_pairs_.push_back(pr);
    ++f.num_steiner_rows_;
  }
  return f;
}

EbfFormulation::LpWindow EbfFormulation::DelayWindowLp(std::int32_t s) const {
  const EbfProblem& problem = *problem_;
  const std::size_t i = static_cast<std::size_t>(s);
  double lo = problem.bounds[i].lo / scale_;
  double hi = std::isfinite(problem.bounds[i].hi) ? problem.bounds[i].hi / scale_
                                                  : kLpInf;
  if (problem.source.has_value()) {
    lo = std::max(lo, ManhattanDist(*problem.source, problem.sinks[i]) / scale_);
  }
  // Regularize (near-)equality windows: exactly-tight rows (l = u, the
  // zero-skew case) are painfully degenerate for interior-point methods.
  // Widening by 1e-9 in radius units changes the optimum by a negligible
  // amount while keeping the LP well-centered.
  constexpr double kMinWindow = 1e-9;
  if (std::isfinite(hi) && hi - lo < kMinWindow && lo <= hi) {
    lo = std::max(0.0, hi - kMinWindow);
  }
  return {lo, hi};
}

double EbfFormulation::SteinerRhsLp(std::int32_t i, std::int32_t j) const {
  return ManhattanDist(problem_->sinks[static_cast<std::size_t>(i)],
                       problem_->sinks[static_cast<std::size_t>(j)]) /
         scale_;
}

SparseRow EbfFormulation::SteinerRowForSinks(std::int32_t i,
                                             std::int32_t j) const {
  return MakeSteinerRow(sink_nodes_[static_cast<std::size_t>(i)],
                        sink_nodes_[static_cast<std::size_t>(j)],
                        SteinerRhsLp(i, j));
}

SparseRow EbfFormulation::MakeSteinerRow(NodeId a, NodeId b,
                                         double rhs_lp) const {
  // The path-edge buffer is reused across every row generated in a round
  // (the returned SparseRow owns its own storage either way).
  paths_.PathEdgesInto(a, b, path_edges_scratch_);
  return RowOverEdges(indexer_, path_edges_scratch_, rhs_lp, kLpInf);
}

long long EbfFormulation::NumPotentialSteinerRows() const {
  const long long m = static_cast<long long>(problem_->sinks.size());
  return m * (m - 1) / 2;
}

void EbfFormulation::BruteForceViolations(std::span<const double> root_dist,
                                          double tol,
                                          std::span<const std::uint8_t> dirty,
                                          std::vector<Violation>* found) const {
  for (std::size_t i = 0; i < problem_->sinks.size(); ++i) {
    for (std::size_t j = i + 1; j < problem_->sinks.size(); ++j) {
      if (!dirty.empty() && dirty[i] == 0 && dirty[j] == 0) continue;
      NodeId a = sink_nodes_[i];
      NodeId b = sink_nodes_[j];
      if (a > b) std::swap(a, b);  // normalized pair id, as the oracle emits
      const NodeId anc = paths_.Lca(a, b);
      const double pl = root_dist[static_cast<std::size_t>(a)] +
                        root_dist[static_cast<std::size_t>(b)] -
                        2.0 * root_dist[static_cast<std::size_t>(anc)];
      const double dist_lp =
          ManhattanDist(problem_->sinks[i], problem_->sinks[j]) / scale_;
      const double violation = dist_lp - pl;
      if (violation > tol) {
        found->push_back({a, b, dist_lp, violation});
      }
    }
  }
}

void EbfFormulation::EnumerateBucket(NodeId bucket,
                                     std::span<const double> root_dist,
                                     double tol,
                                     std::span<const std::uint8_t> dirty,
                                     const OctantSoa& agg,
                                     const OctantSoa& dagg,
                                     std::vector<Violation>* out) const {
  const Topology& topo = *problem_->topo;
  const bool dirty_only = !dirty.empty();
  const double two_rd = 2.0 * root_dist[static_cast<std::size_t>(bucket)];
  const TopoNode& top = topo.Node(bucket);

  // Branch-and-bound over (left-subtree, right-subtree) node pairs: a pair
  // of subtrees descends only while some contained sink pair can still beat
  // the tolerance, so pruned branches cost O(1) and each reported pair costs
  // O(depth). The bound is exact at singleton/singleton level; the final
  // test nevertheless re-runs the brute-force arithmetic so both modes emit
  // bitwise-identical violations. In dirty mode the bound only covers pairs
  // with a dirty endpoint, so clean-x-clean branches prune immediately.
  std::vector<std::pair<NodeId, NodeId>> stack;
  stack.emplace_back(top.left, top.right);
  while (!stack.empty()) {
    const auto [a, b] = stack.back();
    stack.pop_back();
    const std::size_t sa = static_cast<std::size_t>(a);
    const std::size_t sb = static_cast<std::size_t>(b);
    const double bound = (dirty_only
                              ? OctantSoa::CrossBoundDirty(agg, dagg, sa, sb)
                              : OctantSoa::CrossBound(agg, sa, agg, sb)) +
                         two_rd;
    if (!(bound > tol - kScreenSlack)) continue;
    const TopoNode& na = topo.Node(a);
    const TopoNode& nb = topo.Node(b);
    const bool leaf_a = na.left == kInvalidNode && na.right == kInvalidNode;
    const bool leaf_b = nb.left == kInvalidNode && nb.right == kInvalidNode;
    if (leaf_a && leaf_b) {
      NodeId u = a;
      NodeId v = b;
      if (u > v) std::swap(u, v);
      const std::size_t i =
          static_cast<std::size_t>(topo.SinkIndex(u));
      const std::size_t j =
          static_cast<std::size_t>(topo.SinkIndex(v));
      if (dirty_only && dirty[i] == 0 && dirty[j] == 0) continue;
      const double pl = root_dist[static_cast<std::size_t>(u)] +
                        root_dist[static_cast<std::size_t>(v)] - two_rd;
      const double dist_lp =
          ManhattanDist(problem_->sinks[i], problem_->sinks[j]) / scale_;
      const double violation = dist_lp - pl;
      if (violation > tol) {
        out->push_back({u, v, dist_lp, violation});
      }
      continue;
    }
    if (!leaf_a) {
      if (na.left != kInvalidNode) stack.emplace_back(na.left, b);
      if (na.right != kInvalidNode) stack.emplace_back(na.right, b);
    } else {
      if (nb.left != kInvalidNode) stack.emplace_back(a, nb.left);
      if (nb.right != kInvalidNode) stack.emplace_back(a, nb.right);
    }
  }
}

void EbfFormulation::OctantViolations(std::span<const double> root_dist,
                                      double tol, int jobs,
                                      std::span<const std::uint8_t> dirty,
                                      std::vector<Violation>* found) const {
  const std::size_t n = static_cast<std::size_t>(problem_->topo->NumNodes());
  const bool dirty_only = !dirty.empty();

  // Bottom-up octant aggregates: slot v holds, per sign combination s, the
  // max of s.(p/scale) - rootdist over the sinks below v, streamed from the
  // flat post-order arrays in one sweep, O(1) per node. Dirty mode keeps a
  // second aggregate over the flagged sinks only, feeding the restricted
  // CrossBoundDirty screen.
  OctantSoa& agg = octant_soa_scratch_;
  OctantSoa& dagg = octant_soa_dirty_scratch_;
  agg.Assign(n);
  if (dirty_only) dagg.Assign(n);
  for (std::size_t i = 0; i < post_order_.size(); ++i) {
    const std::size_t v = static_cast<std::size_t>(post_order_[i]);
    const std::int32_t s = flat_sink_[i];
    if (s >= 0) {
      const Point& p = problem_->sinks[static_cast<std::size_t>(s)];
      agg.Include(v, Point{p.x / scale_, p.y / scale_}, -root_dist[v]);
      if (dirty_only && dirty[static_cast<std::size_t>(s)] != 0) {
        dagg.CopyFrom(v, agg, v);
      }
      continue;
    }
    for (const NodeId child : {flat_left_[i], flat_right_[i]}) {
      if (child == kInvalidNode) continue;
      agg.Merge(v, static_cast<std::size_t>(child));
      if (dirty_only) dagg.Merge(v, static_cast<std::size_t>(child));
    }
  }

  // O(n) screen: pairs with LCA = v can violate only when the octant cross
  // bound over (left, right) plus 2 rootdist(v) clears the tolerance.
  std::vector<NodeId>& buckets = bucket_scratch_;
  buckets.clear();
  for (std::size_t i = 0; i < post_order_.size(); ++i) {
    const NodeId left = flat_left_[i];
    const NodeId right = flat_right_[i];
    if (left == kInvalidNode || right == kInvalidNode) continue;
    const std::size_t l = static_cast<std::size_t>(left);
    const std::size_t r = static_cast<std::size_t>(right);
    const double bound =
        (dirty_only ? OctantSoa::CrossBoundDirty(agg, dagg, l, r)
                    : OctantSoa::CrossBound(agg, l, agg, r)) +
        2.0 * root_dist[static_cast<std::size_t>(post_order_[i])];
    if (bound > tol - kScreenSlack) buckets.push_back(post_order_[i]);
  }

  // Enumerate surviving buckets, optionally on the runtime's pool. Buckets
  // write to disjoint slots and the merge below walks slots in bucket
  // order, so the result is identical at any worker count.
  std::vector<std::vector<Violation>>& outs = bucket_out_scratch_;
  if (outs.size() < buckets.size()) outs.resize(buckets.size());
  ParallelFor(static_cast<int>(buckets.size()), jobs, [&](int i) {
    std::vector<Violation>* out = &outs[static_cast<std::size_t>(i)];
    out->clear();
    EnumerateBucket(buckets[static_cast<std::size_t>(i)], root_dist, tol,
                    dirty, agg, dagg, out);
  });
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    found->insert(found->end(), outs[i].begin(), outs[i].end());
  }
}

std::vector<SparseRow> EbfFormulation::SeparateImpl(
    std::span<const double> x, double tol, int max_rows,
    const SeparationOptions& sep, std::span<const std::uint8_t> dirty,
    std::vector<std::array<std::int32_t, 2>>* pairs_out) const {
  const Topology& topo = *problem_->topo;
  // Per-node edge lengths in LP units (scratch reused across rounds).
  std::vector<double>& edge_len = edge_len_scratch_;
  edge_len.assign(static_cast<std::size_t>(topo.NumNodes()), 0.0);
  for (int col = 0; col < indexer_.NumEdges(); ++col) {
    edge_len[static_cast<std::size_t>(indexer_.NodeOf(col))] =
        x[static_cast<std::size_t>(col)];
  }
  paths_.RootDistancesInto(edge_len, root_dist_scratch_);
  const std::vector<double>& root_dist = root_dist_scratch_;

  std::vector<Violation>& found = violation_scratch_;
  found.clear();
  if (sep.mode == SeparationMode::kBruteForce) {
    BruteForceViolations(root_dist, tol, dirty, &found);
  } else {
    OctantViolations(root_dist, tol, sep.jobs, dirty, &found);
  }

  // Keep the strongest max_rows violations: selection in O(V), then order
  // just the survivors — O(V + k log k) instead of sorting all V.
  if (max_rows >= 0 && static_cast<int>(found.size()) > max_rows) {
    std::nth_element(found.begin(),
                     found.begin() + static_cast<std::ptrdiff_t>(max_rows),
                     found.end(), StrongerViolation);
    found.resize(static_cast<std::size_t>(max_rows));
  }
  std::sort(found.begin(), found.end(), StrongerViolation);

  std::vector<SparseRow> rows;
  rows.reserve(found.size());
  if (pairs_out != nullptr) {
    pairs_out->clear();
    pairs_out->reserve(found.size());
  }
  for (const Violation& v : found) {
    rows.push_back(MakeSteinerRow(v.a, v.b, v.dist_lp));
    if (pairs_out != nullptr) {
      const std::int32_t si = topo.SinkIndex(v.a);
      const std::int32_t sj = topo.SinkIndex(v.b);
      pairs_out->push_back({std::min(si, sj), std::max(si, sj)});
    }
  }
  return rows;
}

std::vector<SparseRow> EbfFormulation::FindViolatedSteinerRows(
    std::span<const double> x, double tol, int max_rows,
    const SeparationOptions& sep,
    std::vector<std::array<std::int32_t, 2>>* pairs_out) const {
  return SeparateImpl(x, tol, max_rows, sep, {}, pairs_out);
}

std::vector<SparseRow> EbfFormulation::FindViolatedSteinerRowsDirty(
    std::span<const double> x, double tol, int max_rows,
    const SeparationOptions& sep, std::span<const std::uint8_t> dirty_sink,
    std::vector<std::array<std::int32_t, 2>>* pairs_out) const {
  LUBT_ASSERT(dirty_sink.size() == sink_nodes_.size());
  return SeparateImpl(x, tol, max_rows, sep, dirty_sink, pairs_out);
}

std::vector<double> EbfFormulation::EdgeLengths(
    std::span<const double> x) const {
  const Topology& topo = *problem_->topo;
  std::vector<double> edge_len(static_cast<std::size_t>(topo.NumNodes()), 0.0);
  for (int col = 0; col < indexer_.NumEdges(); ++col) {
    const double e = x[static_cast<std::size_t>(col)] * scale_;
    edge_len[static_cast<std::size_t>(indexer_.NodeOf(col))] =
        std::max(e, 0.0);
  }
  return edge_len;
}

}  // namespace lubt
