#include "eco/eco_session.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "check/invariants.h"
#include "cts/metrics.h"
#include "lp/lazy_row_solver.h"
#include "topo/nn_merge.h"
#include "topo/validate.h"
#include "util/logging.h"
#include "util/timer.h"

namespace lubt {

namespace {

// Tier-0 slack margin in LP (radius-normalized) units. A row this far from
// both of its bounds at a tolerance-1e-8 optimum is non-binding at the exact
// optimum too, so editing its bounds within the still-slack region cannot
// move the optimum: the solution is reused without a solve.
constexpr double kNoOpSlackMargin = 1e-5;

// Warm primal in LP units from edge lengths in layout units indexed by node
// id: negative lengths clamp to zero, nodes past the end of `edge_len` start
// at zero.
std::vector<double> WarmPrimal(const EbfFormulation& form,
                               const std::vector<double>& edge_len) {
  const int cols = form.Model().NumCols();
  std::vector<double> x(static_cast<std::size_t>(cols), 0.0);
  for (int col = 0; col < cols; ++col) {
    const NodeId v = form.Indexer().NodeOf(col);
    if (static_cast<std::size_t>(v) < edge_len.size()) {
      x[static_cast<std::size_t>(col)] =
          std::max(0.0, edge_len[static_cast<std::size_t>(v)]) / form.Scale();
    }
  }
  return x;
}

}  // namespace

const char* EcoTierName(EcoTier tier) {
  switch (tier) {
    case EcoTier::kInitial:
      return "initial";
    case EcoTier::kNoOp:
      return "no-op";
    case EcoTier::kRhsWarm:
      return "rhs-warm";
    case EcoTier::kStructural:
      return "structural";
    case EcoTier::kColdRebuild:
      return "cold-rebuild";
  }
  return "unknown";
}

Result<std::unique_ptr<EcoSession>> EcoSession::Create(
    SinkSet set, std::vector<DelayBounds> bounds, Topology topo,
    EcoOptions options) {
  if (bounds.size() != set.sinks.size()) {
    return Status::InvalidArgument("one DelayBounds required per sink");
  }
  std::unique_ptr<EcoSession> session(new EcoSession());
  session->set_ = std::move(set);
  session->topo_ = std::move(topo);
  session->opt_ = options;
  session->problem_.topo = &session->topo_;
  session->problem_.sinks = session->set_.sinks;
  session->problem_.source = session->set_.source;
  session->problem_.bounds = std::move(bounds);

  const Status valid = ValidateEbfProblem(session->problem_);
  if (!valid.ok()) return valid;
  if (!session->problem_.edge_weight.empty() ||
      !session->problem_.zero_length_edges.empty()) {
    return Status::InvalidArgument(
        "eco sessions support unit weights and no zero-length edges");
  }

  const double radius = Radius(session->set_.sinks, session->set_.source);
  session->initial_radius_ = radius > 0.0 ? radius : 1.0;

  Timer timer;
  EcoSolveInfo info;
  info.tier = EcoTier::kInitial;
  if (session->AnyEmptyFoldedWindow()) {
    session->needs_rebuild_ = true;
    info.status = Status::Infeasible(
        "a sink's delay window is emptied by its source distance");
  } else {
    info.status = session->RebuildAndSolve(nullptr, &info);
  }
  info.seconds = timer.Seconds();
  session->last_ = info;
  return session;
}

int EcoSession::NumLpRows() const {
  return form_.has_value() ? form_->Model().NumRows() : 0;
}

TreeSolution EcoSession::Solution() const {
  TreeSolution tree;
  tree.topo = topo_;
  tree.edge_len.assign(edge_len_.begin(), edge_len_.end());
  return tree;
}

EcoDualReport EcoSession::DualReport() const {
  EcoDualReport rep;
  const std::size_t m = set_.sinks.size();
  rep.sinks.resize(m);
  if (!form_.has_value() || !lp_valid_) return rep;

  const auto full = ExtractDualReport(form_->Model(), lp_x_, lp_dual_);
  rep.valid = full.valid;
  for (std::size_t s = 0; s < m; ++s) {
    const RowDuals& d = full.rows[static_cast<std::size_t>(
        DelayRow(static_cast<std::int32_t>(s)))];
    rep.sinks[s].lo_dual = d.lo_dual;
    rep.sinks[s].hi_dual = d.hi_dual;
    rep.sinks[s].binding = d.binding_lo || d.binding_hi;
  }
  rep.steiner.resize(pool_.size());
  for (std::size_t k = 0; k < pool_.size(); ++k) {
    const RowDuals& d = full.rows[static_cast<std::size_t>(SteinerRow(k))];
    rep.steiner[k].pair = pool_[k];
    rep.steiner[k].dual = d.lo_dual;
    rep.steiner[k].binding = d.binding_lo;
  }
  return rep;
}

EcoTopoEval EcoSession::EvaluateCandidateTopology(
    const Topology& candidate, const std::vector<double>* warm_edge_len) const {
  EcoTopoEval out;
  const Status valid = ValidateTopology(candidate, NumSinks());
  if (!valid.ok()) {
    out.status = valid;
    return out;
  }
  if (candidate.Mode() != topo_.Mode()) {
    out.status = Status::InvalidArgument("candidate root mode mismatch");
    return out;
  }
  if (AnyEmptyFoldedWindow()) {
    out.status = Status::Infeasible(
        "a sink's delay window is emptied by its source distance");
    return out;
  }

  // Evaluation-local instance: same sinks/source/windows, candidate tree.
  EbfProblem prob = problem_;
  prob.topo = &candidate;
  Result<EbfFormulation> built =
      EbfFormulation::Build(prob, SteinerRowPolicy::kSeed);
  if (!built.ok()) {
    out.status = built.status();
    return out;
  }
  EbfFormulation form = std::move(built).value();

  // The Steiner pool is a set of *sink pairs* — knowledge about the
  // instance's geometry, not about any particular tree — so every pair the
  // session has ever separated seeds the candidate's model too, saving the
  // lazy loop from rediscovering them.
  std::unordered_set<std::int64_t> seen;
  AddCarriedPairs(pool_, &form, &seen, nullptr);
  LpModel& model = form.MutableModel();

  // Warm primal: the caller's per-candidate-node layout lengths (the move
  // kernel projects the session's solved lengths through its renaming).
  LpWarmStart warm;
  if (warm_edge_len != nullptr) warm.x = WarmPrimal(form, *warm_edge_len);

  // Separation runs single-threaded: it is documented worker-count
  // invariant, and evaluations themselves fan out across the optimizer's
  // workers, so inner parallelism would only oversubscribe. The
  // interior-point context is evaluation-local, like every other mutable.
  IpmContext ipm;
  LpSolverOptions lp_opt = opt_.solve.lp;
  lp_opt.engine = LpEngine::kInteriorPoint;
  lp_opt.ipm_context = &ipm;
  lp_opt.warm_start = warm.x.empty() ? nullptr : &warm;
  const SeparationOptions sep{opt_.solve.separation, 1};
  std::vector<std::array<std::int32_t, 2>> pairs;
  const RowOracle oracle = [&](std::span<const double> x) {
    std::vector<SparseRow> rows = form.FindViolatedSteinerRows(
        x, opt_.solve.separation_tol, opt_.solve.max_rows_per_round, sep,
        &pairs);
    KeepUnseenPairs(pairs, &seen, nullptr, &rows);
    return rows;
  };
  LazySolveStats lazy;
  const LpSolution sol = SolveWithLazyRows(
      model, oracle, lp_opt, opt_.solve.max_lazy_rounds, &lazy);
  out.lazy_rounds = lazy.rounds;
  out.lp_iterations = lazy.lp_iterations;
  out.lp_rows = model.NumRows();
  out.status = sol.status;
  if (!sol.ok()) return out;
  out.edge_len = form.EdgeLengths(sol.x);
  out.stats = ComputeTreeStats(candidate, out.edge_len);
  out.cost = out.stats.cost;
#if LUBT_DCHECK_IS_ON
  const Status post = ValidateEdgeLengths(prob, out.edge_len);
  if (!post.ok()) out.status = post;
#endif
  return out;
}

Result<EcoSolveInfo> EcoSession::ApplyTopologyReplace(
    Topology candidate, const std::vector<double>* warm_edge_len) {
  const Status valid = ValidateTopology(candidate, NumSinks());
  if (!valid.ok()) return valid;
  if (candidate.Mode() != topo_.Mode()) {
    return Status::InvalidArgument("replace: root mode mismatch");
  }

  Timer timer;
  EcoSolveInfo info;
  info.tier = EcoTier::kStructural;
  topo_ = std::move(candidate);
  problem_.topo = &topo_;  // unchanged address, kept explicit
  if (AnyEmptyFoldedWindow()) {
    info.status = Status::Infeasible(
        "a sink's delay window is emptied by its source distance");
    needs_rebuild_ = true;
    form_.reset();
    lp_valid_ = false;
  } else {
    info.status = RebuildAndSolve(warm_edge_len, &info);
  }
  info.lp_rows = NumLpRows();
  info.seconds = timer.Seconds();
  last_ = info;
  LUBT_LOG_DEBUG << "eco topo-replace: tier=" << EcoTierName(info.tier)
                 << " status=" << StatusCodeName(info.status.code())
                 << " rounds=" << info.lazy_rounds
                 << " rows+=" << info.rows_added;
  return info;
}

bool EcoSession::AnyEmptyFoldedWindow() const {
  // Layout units, so the test is independent of the session scale.
  for (std::size_t s = 0; s < problem_.bounds.size(); ++s) {
    const DelayBounds& b = problem_.bounds[s];
    if (!std::isfinite(b.hi)) continue;
    double lo = b.lo;
    if (problem_.source.has_value()) {
      lo = std::max(lo, ManhattanDist(*problem_.source, problem_.sinks[s]));
    }
    if (lo > b.hi) return true;
  }
  return false;
}

void EcoSession::PushDelayWindow(std::int32_t s, EcoSolveInfo* info) {
  const EbfFormulation::LpWindow w = form_->DelayWindowLp(s);
  LpModel& model = form_->MutableModel();
  const SparseRow& row = model.Row(DelayRow(s));
  if (row.lo == w.lo && row.hi == w.hi) return;  // bitwise no-change
  model.SetRowBounds(DelayRow(s), w.lo, w.hi);
  ++info->rows_refreshed;
  const std::uint8_t has_hi = std::isfinite(w.hi) ? 1 : 0;
  if (has_hi != ge_has_hi_[static_cast<std::size_t>(s)]) {
    // The compiled ge-row pattern changed shape (a ranged row became
    // single-sided or vice versa): the stored dual prefix and the symbolic
    // analysis no longer describe this model.
    ge_has_hi_[static_cast<std::size_t>(s)] = has_hi;
    lp_dual_.clear();
    ipm_ = IpmContext{};
  }
}

bool EcoSession::RowsStrictlySlack(std::span<const int> rows,
                                   std::span<const double> pending_lo,
                                   std::span<const double> pending_hi) const {
  const LpModel& model = form_->Model();
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const SparseRow& row = model.Row(rows[k]);
    const double act = row.Activity(lp_x_);
    for (const double lo : {row.lo, pending_lo[k]}) {
      if (std::isfinite(lo) && act < lo + kNoOpSlackMargin) return false;
    }
    for (const double hi : {row.hi, pending_hi[k]}) {
      if (std::isfinite(hi) && act > hi - kNoOpSlackMargin) return false;
    }
  }
  return true;
}

void EcoSession::FinishSolve(const LpSolution& sol, EcoSolveInfo* info) {
  lp_x_ = sol.x;
  lp_dual_ = sol.ge_dual;
  lp_valid_ = true;
  edge_len_ = form_->EdgeLengths(lp_x_);
  info->status = Status::Ok();
  info->stats = ComputeTreeStats(topo_, edge_len_);
  info->cost = info->stats.cost;
  info->objective = info->cost;
#if LUBT_DCHECK_IS_ON
  // Debug postcondition, mirroring SolveEbf's gate: an accepted incremental
  // solve must satisfy every constraint of the full edited problem.
  const Status post = ValidateEdgeLengths(problem_, edge_len_);
  if (!post.ok()) {
    info->status = post;
    lp_valid_ = false;
  }
#endif
}

int EcoSession::AddCarriedPairs(
    std::span<const std::array<std::int32_t, 2>> carried, EbfFormulation* form,
    std::unordered_set<std::int64_t>* seen,
    std::vector<std::array<std::int32_t, 2>>* pool) const {
  const std::vector<std::array<std::int32_t, 2>>& seeded =
      form->SteinerRowPairs();
  seen->clear();
  for (const std::array<std::int32_t, 2>& pr : seeded) {
    seen->insert(PairKey(pr[0], pr[1]));
  }
  if (pool != nullptr) *pool = seeded;
  LpModel& model = form->MutableModel();
  const std::int32_t m = NumSinks();
  int added = 0;
  for (const std::array<std::int32_t, 2>& pr : carried) {
    if (pr[0] < 0 || pr[1] >= m || pr[0] == pr[1]) continue;
    if (seen->count(PairKey(pr[0], pr[1])) != 0) continue;
    if (!(form->SteinerRhsLp(pr[0], pr[1]) > 0.0)) continue;
    model.AddRow(form->SteinerRowForSinks(pr[0], pr[1]));
    if (pool != nullptr) pool->push_back(pr);
    seen->insert(PairKey(pr[0], pr[1]));
    ++added;
  }
  return added;
}

void EcoSession::KeepUnseenPairs(
    std::span<const std::array<std::int32_t, 2>> pairs,
    std::unordered_set<std::int64_t>* seen,
    std::vector<std::array<std::int32_t, 2>>* pool,
    std::vector<SparseRow>* rows) {
  std::size_t kept = 0;
  for (std::size_t k = 0; k < rows->size(); ++k) {
    if (!seen->insert(PairKey(pairs[k][0], pairs[k][1])).second) continue;
    if (pool != nullptr) pool->push_back(pairs[k]);
    if (kept != k) (*rows)[kept] = std::move((*rows)[k]);
    ++kept;
  }
  rows->resize(kept);
}

Status EcoSession::RunLazyLoop(const std::vector<double>* warm_x,
                               const std::vector<double>* warm_dual,
                               std::span<const std::uint8_t> dirty,
                               EcoSolveInfo* info) {
  LpModel& model = form_->MutableModel();
  LpWarmStart warm;
  if (warm_x != nullptr &&
      static_cast<int>(warm_x->size()) == model.NumCols()) {
    warm.x = *warm_x;
    if (warm_dual != nullptr) warm.ge_dual = *warm_dual;
  }
  LpSolverOptions lp_opt = opt_.solve.lp;
  lp_opt.engine = LpEngine::kInteriorPoint;  // simplex cannot warm-start
  lp_opt.ipm_context = &ipm_;
  lp_opt.warm_start = warm.x.empty() ? nullptr : &warm;
  const double tol = opt_.solve.separation_tol;
  const int max_rows = opt_.solve.max_rows_per_round;
  const SeparationOptions sep{opt_.solve.separation,
                              opt_.solve.separation_jobs};

  // Separation: the dirty phase searches only pairs touching the edit
  // (octant aggregates restricted via CrossBoundDirty); once it comes back
  // empty the oracle switches to full passes permanently, so optimality is
  // only ever certified against the whole pair space. Kept rows extend
  // pool_ in row order, so pool_[k] stays the pair of SteinerRow(k).
  bool dirty_phase = !dirty.empty();
  const RowOracle oracle = [&](std::span<const double> x) {
    std::vector<SparseRow> rows;
    if (dirty_phase) {
      rows = form_->FindViolatedSteinerRowsDirty(x, tol, max_rows, sep, dirty,
                                                 &pairs_scratch_);
      KeepUnseenPairs(pairs_scratch_, &pair_seen_, &pool_, &rows);
      if (!rows.empty()) return rows;
      dirty_phase = false;
    }
    rows = form_->FindViolatedSteinerRows(x, tol, max_rows, sep,
                                          &pairs_scratch_);
    KeepUnseenPairs(pairs_scratch_, &pair_seen_, &pool_, &rows);
    return rows;
  };

  LazySolveStats lazy;
  const LpSolution sol = SolveWithLazyRows(
      model, oracle, lp_opt, opt_.solve.max_lazy_rounds, &lazy);
  info->lazy_rounds = lazy.rounds;
  info->lp_iterations = lazy.lp_iterations;
  info->rows_added = lazy.rows_added;
  info->cold_retries = lazy.cold_retries;
  info->warm_started = lazy.warm_rounds > 0;
  info->symbolic_reused = lazy.symbolic_reuses > 0;
  info->lp_rows = model.NumRows();
  if (!sol.ok()) {
    lp_valid_ = false;
    return sol.status;
  }
  FinishSolve(sol, info);
  return info->status;
}

Status EcoSession::RebuildAndSolve(const std::vector<double>* warm_edge_len,
                                   EcoSolveInfo* info) {
  form_.reset();
  Result<EbfFormulation> built =
      EbfFormulation::Build(problem_, SteinerRowPolicy::kSeed);
  if (!built.ok()) return built.status();
  form_.emplace(std::move(built).value());
  ipm_ = IpmContext{};
  lp_dual_.clear();
  lp_valid_ = false;
  needs_rebuild_ = false;

  // Re-materialize the carried Steiner pool against the fresh model: the
  // seed rows come back from Build; every other remembered pair is re-added
  // with its RHS recomputed at the current coordinates and scale.
  const std::vector<std::array<std::int32_t, 2>> carried = std::move(pool_);
  info->rows_refreshed +=
      AddCarriedPairs(carried, &*form_, &pair_seen_, &pool_);

  const std::int32_t m = static_cast<std::int32_t>(set_.sinks.size());
  ge_has_hi_.assign(static_cast<std::size_t>(m), 0);
  for (std::int32_t s = 0; s < m; ++s) {
    ge_has_hi_[static_cast<std::size_t>(s)] =
        std::isfinite(form_->DelayWindowLp(s).hi) ? 1 : 0;
  }

  std::vector<double> warm;
  if (warm_edge_len != nullptr) warm = WarmPrimal(*form_, *warm_edge_len);
  return RunLazyLoop(warm_edge_len != nullptr ? &warm : nullptr, nullptr, {},
                     info);
}

void EcoSession::RepairTopologyAdd(NodeId attach_leaf, std::int32_t new_sink,
                                   std::vector<double>* warm_edge_len) {
  const Point& new_point = set_.sinks[static_cast<std::size_t>(new_sink)];
  const std::int32_t attach_sink = topo_.SinkIndex(attach_leaf);
  const double leaf_len = ManhattanDist(
      set_.sinks[static_cast<std::size_t>(attach_sink)], new_point);

  Topology nt;
  const NodeId n = topo_.NumNodes();
  std::vector<NodeId> map(static_cast<std::size_t>(n), kInvalidNode);
  std::vector<double>& warm = *warm_edge_len;
  warm.assign(static_cast<std::size_t>(n) + 2, 0.0);
  const bool have_len =
      lp_valid_ && edge_len_.size() == static_cast<std::size_t>(n);
  // Node ids ascend children-before-parents, so a forward scan rebuilds the
  // arena with every child already mapped.
  for (NodeId v = 0; v < n; ++v) {
    const TopoNode& node = topo_.Node(v);
    NodeId nv;
    if (node.sink >= 0) {
      nv = nt.AddSinkNode(node.sink);
    } else if (node.right == kInvalidNode) {
      nv = nt.AddUnaryNode(map[static_cast<std::size_t>(node.left)]);
    } else {
      nv = nt.AddInternalNode(map[static_cast<std::size_t>(node.left)],
                              map[static_cast<std::size_t>(node.right)]);
    }
    warm[static_cast<std::size_t>(nv)] =
        have_len ? edge_len_[static_cast<std::size_t>(v)] : 0.0;
    map[static_cast<std::size_t>(v)] = nv;
    if (v == attach_leaf) {
      // NN re-attach: a new internal node takes the old leaf's place, with
      // the old leaf and the new sink as children. The warm guess keeps the
      // old leaf's edge on the splice node, zeroes the re-parented leaf and
      // spans the new leaf's edge to its nearest neighbour.
      const NodeId nleaf = nt.AddSinkNode(new_sink);
      warm[static_cast<std::size_t>(nleaf)] = leaf_len;
      const NodeId ni = nt.AddInternalNode(nv, nleaf);
      warm[static_cast<std::size_t>(ni)] =
          warm[static_cast<std::size_t>(nv)];
      warm[static_cast<std::size_t>(nv)] = 0.0;
      map[static_cast<std::size_t>(v)] = ni;
    }
  }
  nt.SetRoot(map[static_cast<std::size_t>(topo_.Root())], topo_.Mode());
  topo_ = std::move(nt);
}

void EcoSession::RepairTopologyRemove(std::int32_t removed_sink,
                                      std::vector<double>* warm_edge_len) {
  const NodeId n = topo_.NumNodes();
  NodeId leaf = kInvalidNode;
  for (NodeId v = 0; v < n; ++v) {
    if (topo_.IsSinkNode(v) && topo_.SinkIndex(v) == removed_sink) {
      leaf = v;
      break;
    }
  }
  LUBT_ASSERT(leaf != kInvalidNode);
  const NodeId par = topo_.Parent(leaf);
  LUBT_ASSERT(par != kInvalidNode);
  const TopoNode& pn = topo_.Node(par);
  const NodeId sibling = pn.left == leaf ? pn.right : pn.left;
  LUBT_ASSERT(sibling != kInvalidNode);

  Topology nt;
  std::vector<NodeId> map(static_cast<std::size_t>(n), kInvalidNode);
  std::vector<double>& warm = *warm_edge_len;
  warm.assign(static_cast<std::size_t>(n), 0.0);
  const bool have_len =
      lp_valid_ && edge_len_.size() == static_cast<std::size_t>(n);
  for (NodeId v = 0; v < n; ++v) {
    if (v == leaf) continue;  // dropped
    if (v == par) {
      // Splice the parent out: the sibling takes its place, and the two
      // chained edges (sibling->parent, parent->grandparent) merge into one
      // warm length.
      const NodeId ns = map[static_cast<std::size_t>(sibling)];
      map[static_cast<std::size_t>(v)] = ns;
      if (have_len) {
        warm[static_cast<std::size_t>(ns)] =
            edge_len_[static_cast<std::size_t>(sibling)] +
            edge_len_[static_cast<std::size_t>(par)];
      }
      continue;
    }
    const TopoNode& node = topo_.Node(v);
    NodeId nv;
    if (node.sink >= 0) {
      const std::int32_t s =
          node.sink > removed_sink ? node.sink - 1 : node.sink;
      nv = nt.AddSinkNode(s);
    } else if (node.right == kInvalidNode) {
      nv = nt.AddUnaryNode(map[static_cast<std::size_t>(node.left)]);
    } else {
      nv = nt.AddInternalNode(map[static_cast<std::size_t>(node.left)],
                              map[static_cast<std::size_t>(node.right)]);
    }
    warm[static_cast<std::size_t>(nv)] =
        have_len ? edge_len_[static_cast<std::size_t>(v)] : 0.0;
    map[static_cast<std::size_t>(v)] = nv;
  }
  nt.SetRoot(map[static_cast<std::size_t>(topo_.Root())], topo_.Mode());
  topo_ = std::move(nt);
}

Status EcoSession::ApplyRhsEdit(const EcoEdit& edit, EcoSolveInfo* info) {
  const std::int32_t m = static_cast<std::int32_t>(set_.sinks.size());

  // Mutate the instance.
  std::vector<std::int32_t> touched_sinks;
  switch (edit.kind) {
    case EcoEditKind::kSetBounds:
      problem_.bounds[static_cast<std::size_t>(edit.sink)] = {edit.lo,
                                                              edit.hi};
      touched_sinks.push_back(edit.sink);
      break;
    case EcoEditKind::kShiftWindow:
      for (std::int32_t s = 0; s < m; ++s) {
        DelayBounds& b = problem_.bounds[static_cast<std::size_t>(s)];
        b.lo = std::max(0.0, b.lo + edit.lo);
        if (std::isfinite(b.hi)) b.hi += edit.hi;
        touched_sinks.push_back(s);
      }
      break;
    case EcoEditKind::kMoveSink:
      set_.sinks[static_cast<std::size_t>(edit.sink)] = edit.point;
      problem_.sinks = set_.sinks;
      touched_sinks.push_back(edit.sink);
      break;
    default:
      return Status::Internal("not an RHS edit");
  }

  // A window emptied by the source fold makes the instance geometrically
  // infeasible. The formulation cannot carry an empty window on a live row
  // (SetRowBounds requires lo <= hi), so the session parks in a
  // rebuild-needed state; the next edit that restores every window
  // re-solves through the cold-rebuild tier — matching the cold side, which
  // reports kInfeasible for exactly the same instances.
  if (AnyEmptyFoldedWindow()) {
    info->tier = needs_rebuild_ ? EcoTier::kColdRebuild : EcoTier::kRhsWarm;
    info->status = Status::Infeasible(
        "a sink's delay window is emptied by its source distance");
    needs_rebuild_ = true;
    form_.reset();
    lp_valid_ = false;
    return Status::Ok();
  }
  if (needs_rebuild_) {
    info->tier = EcoTier::kColdRebuild;
    info->status = RebuildAndSolve(nullptr, info);
    return Status::Ok();
  }

  // Pending bounds of every touched row: the sinks' delay windows, plus —
  // for a move — the refreshed RHS of every pool row defined by the moved
  // sink.
  std::vector<int> rows;
  std::vector<double> plo;
  std::vector<double> phi;
  for (const std::int32_t s : touched_sinks) {
    const EbfFormulation::LpWindow w = form_->DelayWindowLp(s);
    rows.push_back(DelayRow(s));
    plo.push_back(w.lo);
    phi.push_back(w.hi);
  }
  std::vector<std::size_t> touched_pool;
  if (edit.kind == EcoEditKind::kMoveSink) {
    for (std::size_t k = 0; k < pool_.size(); ++k) {
      if (pool_[k][0] != edit.sink && pool_[k][1] != edit.sink) continue;
      touched_pool.push_back(k);
      rows.push_back(SteinerRow(k));
      plo.push_back(form_->SteinerRhsLp(pool_[k][0], pool_[k][1]));
      phi.push_back(kLpInf);
    }
  }

  // Tier-0 probe against the *old* model bounds (before the writes below):
  // if every touched row stays strictly slack under both old and new
  // bounds — and, for a move, the dirty pair region separates clean at the
  // stored point — the active set is provably unchanged and the stored
  // solution is returned bitwise.
  bool noop = lp_valid_ && RowsStrictlySlack(rows, plo, phi);
  if (noop && edit.kind == EcoEditKind::kMoveSink) {
    dirty_scratch_.assign(static_cast<std::size_t>(m), 0);
    dirty_scratch_[static_cast<std::size_t>(edit.sink)] = 1;
    const SeparationOptions sep{opt_.solve.separation,
                                opt_.solve.separation_jobs};
    noop = form_
               ->FindViolatedSteinerRowsDirty(
                   lp_x_, opt_.solve.separation_tol,
                   opt_.solve.max_rows_per_round, sep, dirty_scratch_)
               .empty();
  }

  // Write the refreshed bounds into the model (bitwise-unchanged rows are
  // skipped so a pure no-op leaves the compiled model untouched).
  for (std::size_t i = 0; i < touched_sinks.size(); ++i) {
    PushDelayWindow(touched_sinks[i], info);
  }
  LpModel& model = form_->MutableModel();
  for (std::size_t i = 0; i < touched_pool.size(); ++i) {
    const int r = rows[touched_sinks.size() + i];
    const double rhs = plo[touched_sinks.size() + i];
    if (model.Row(r).lo == rhs) continue;
    model.SetRowBounds(r, rhs, kLpInf);
    ++info->rows_refreshed;
  }

  if (noop) {
    info->tier = EcoTier::kNoOp;
    info->status = Status::Ok();
    info->cost = last_.cost;
    info->objective = last_.objective;
    info->stats = last_.stats;
    info->lp_rows = model.NumRows();
    return Status::Ok();
  }

  info->tier = EcoTier::kRhsWarm;
  std::span<const std::uint8_t> dirty;
  if (edit.kind == EcoEditKind::kMoveSink) {
    dirty_scratch_.assign(static_cast<std::size_t>(m), 0);
    dirty_scratch_[static_cast<std::size_t>(edit.sink)] = 1;
    dirty = dirty_scratch_;
  }
  info->status = RunLazyLoop(lp_valid_ ? &lp_x_ : nullptr,
                             lp_valid_ ? &lp_dual_ : nullptr, dirty, info);
  return Status::Ok();
}

Status EcoSession::ApplyStructuralEdit(const EcoEdit& edit,
                                       EcoSolveInfo* info) {
  info->tier = EcoTier::kStructural;
  std::vector<double> warm;
  const bool have_warm = lp_valid_ && !needs_rebuild_;

  if (edit.kind == EcoEditKind::kAddSink) {
    const NodeId attach = NearestSinkNode(topo_, set_.sinks, edit.point);
    LUBT_ASSERT(attach != kInvalidNode);
    const std::int32_t new_sink = set_.AddSink(edit.point);
    problem_.sinks = set_.sinks;
    problem_.bounds.push_back({edit.lo, edit.hi});
    RepairTopologyAdd(attach, new_sink, &warm);
  } else {
    RepairTopologyRemove(edit.sink, &warm);
    const Status removed = set_.RemoveSink(edit.sink);
    LUBT_ASSERT(removed.ok());
    problem_.sinks = set_.sinks;
    problem_.bounds.erase(problem_.bounds.begin() + edit.sink);
    // Remap the pool to the shifted sink indices; pairs that lost an
    // endpoint are dropped.
    std::size_t kept = 0;
    for (std::array<std::int32_t, 2>& pr : pool_) {
      if (pr[0] == edit.sink || pr[1] == edit.sink) continue;
      if (pr[0] > edit.sink) --pr[0];
      if (pr[1] > edit.sink) --pr[1];
      pool_[kept++] = pr;
    }
    pool_.resize(kept);
  }

  if (AnyEmptyFoldedWindow()) {
    info->status = Status::Infeasible(
        "a sink's delay window is emptied by its source distance");
    needs_rebuild_ = true;
    form_.reset();
    lp_valid_ = false;
    return Status::Ok();
  }
  info->status = RebuildAndSolve(have_warm ? &warm : nullptr, info);
  return Status::Ok();
}

Result<EcoSolveInfo> EcoSession::Apply(const EcoEdit& edit) {
  const std::int32_t m = static_cast<std::int32_t>(set_.sinks.size());
  const auto valid_sink = [&](std::int32_t s) { return s >= 0 && s < m; };
  const auto valid_window = [](double lo, double hi) -> Status {
    if (std::isnan(lo) || std::isnan(hi)) {
      return Status::InvalidArgument("NaN delay bound");
    }
    if (lo < 0.0) {
      return Status::InvalidArgument("negative delay lower bound");
    }
    if (lo > hi) {
      return Status::InvalidArgument("delay lower bound exceeds upper bound");
    }
    return Status::Ok();
  };

  // Validate before any mutation: a malformed edit must leave the session
  // exactly as it was.
  switch (edit.kind) {
    case EcoEditKind::kMoveSink:
      if (!valid_sink(edit.sink)) {
        return Status::InvalidArgument("move: sink index out of range");
      }
      if (!std::isfinite(edit.point.x) || !std::isfinite(edit.point.y)) {
        return Status::InvalidArgument("move: non-finite coordinates");
      }
      break;
    case EcoEditKind::kAddSink: {
      if (!std::isfinite(edit.point.x) || !std::isfinite(edit.point.y)) {
        return Status::InvalidArgument("add: non-finite coordinates");
      }
      const Status w = valid_window(edit.lo, edit.hi);
      if (!w.ok()) return w;
      break;
    }
    case EcoEditKind::kRemoveSink: {
      if (!valid_sink(edit.sink)) {
        return Status::InvalidArgument("remove: sink index out of range");
      }
      const int min_sinks =
          topo_.Mode() == RootMode::kFreeSource ? 2 : 1;
      if (m - 1 < min_sinks) {
        return Status::InvalidArgument(
            "remove: topology needs at least " + std::to_string(min_sinks) +
            " sink(s)");
      }
      break;
    }
    case EcoEditKind::kSetBounds: {
      if (!valid_sink(edit.sink)) {
        return Status::InvalidArgument("bounds: sink index out of range");
      }
      const Status w = valid_window(edit.lo, edit.hi);
      if (!w.ok()) return w;
      break;
    }
    case EcoEditKind::kShiftWindow: {
      if (std::isnan(edit.lo) || std::isnan(edit.hi)) {
        return Status::InvalidArgument("shift: NaN delta");
      }
      // The shifted instance must stay well-formed (lo <= hi per sink),
      // exactly as ValidateEbfProblem would demand of a cold build.
      for (std::int32_t s = 0; s < m; ++s) {
        const DelayBounds& b = problem_.bounds[static_cast<std::size_t>(s)];
        const double nlo = std::max(0.0, b.lo + edit.lo);
        const double nhi = std::isfinite(b.hi) ? b.hi + edit.hi : kLpInf;
        if (!(nlo <= nhi)) {
          return Status::InvalidArgument(
              "shift: would invert sink " + std::to_string(s) + "'s window");
        }
      }
      break;
    }
  }

  Timer timer;
  EcoSolveInfo info;
  Status dispatch;
  switch (edit.kind) {
    case EcoEditKind::kAddSink:
    case EcoEditKind::kRemoveSink:
      dispatch = ApplyStructuralEdit(edit, &info);
      break;
    default:
      dispatch = ApplyRhsEdit(edit, &info);
      break;
  }
  if (!dispatch.ok()) return dispatch;
  info.lp_rows = NumLpRows();
  info.seconds = timer.Seconds();
  last_ = info;
  LUBT_LOG_DEBUG << "eco " << EcoEditKindName(edit.kind) << ": tier="
                 << EcoTierName(info.tier) << " status="
                 << StatusCodeName(info.status.code()) << " rounds="
                 << info.lazy_rounds << " rows+=" << info.rows_added;
  return info;
}

Result<std::vector<EcoSolveInfo>> EcoSession::ApplyAll(
    std::span<const EcoEdit> edits) {
  std::vector<EcoSolveInfo> infos;
  infos.reserve(edits.size());
  for (const EcoEdit& e : edits) {
    Result<EcoSolveInfo> info = Apply(e);
    if (!info.ok()) return info.status();
    infos.push_back(*info);
  }
  return infos;
}

EbfSolveResult ColdReferenceSolve(const EcoSession& session) {
  EbfSolveOptions options = session.Options().solve;
  options.lp.warm_start = nullptr;
  options.lp.ipm_context = nullptr;
  return SolveEbf(session.Problem(), options);
}

}  // namespace lubt
