#include "ebf/solver.h"

#include <cmath>

#include "check/dcheck.h"
#include "check/invariants.h"
#include "ebf/zero_skew_direct.h"
#include "util/logging.h"
#include "util/timer.h"

namespace lubt {
namespace {

// Debug-build postcondition gate: a solve that claims success must hand
// back edge lengths that satisfy every Steiner row and delay window
// (Theorem 4.1's premise). O(m^2 log n), so compiled out of release.
void PostcheckEdgeLengths(const EbfProblem& problem, EbfSolveResult* result) {
#if LUBT_DCHECK_IS_ON
  if (!result->ok()) return;
  const Status post = ValidateEdgeLengths(problem, result->edge_len);
  if (!post.ok()) {
    result->status = post;
    result->edge_len.clear();
  }
#else
  (void)problem;
  (void)result;
#endif
}

// True when every sink demands the same exact delay (l_i = u_i = c).
bool IsZeroSkewInstance(const EbfProblem& problem, double* common_delay) {
  if (problem.bounds.empty()) return false;
  const double c0 = problem.bounds[0].lo;
  for (const DelayBounds& b : problem.bounds) {
    if (!std::isfinite(b.hi)) return false;
    const double tol = 1e-12 * (1.0 + std::abs(c0));
    if (std::abs(b.lo - b.hi) > tol || std::abs(b.lo - c0) > tol) {
      return false;
    }
  }
  // Weighted objectives change which zero-skew tree is cheapest; only the
  // unit-weight case matches the direct DME recurrence.
  for (const double w : problem.edge_weight) {
    if (w != 1.0) return false;
  }
  if (!problem.zero_length_edges.empty()) return false;
  *common_delay = c0;
  return true;
}

// Solve the zero-skew special case directly; returns false when the caller
// should fall back to the LP.
bool TryZeroSkewFastPath(const EbfProblem& problem, double common_delay,
                         EbfSolveResult* result) {
  Result<ZeroSkewResult> direct =
      SolveZeroSkewDirect(*problem.topo, problem.sinks, problem.source);
  if (!direct.ok()) return false;
  const double radius = std::max(1.0, common_delay);
  const double tol = 1e-9 * radius;
  if (common_delay < direct->delay - tol) {
    result->status = Status::Infeasible(
        "required common delay is below the topology's minimum zero-skew "
        "delay");
    return true;
  }
  std::vector<double> edge_len = std::move(direct->edge_len);
  double cost = direct->cost;
  const double slack = std::max(0.0, common_delay - direct->delay);
  if (slack > 0.0) {
    // Raise every path by `slack`: elongate the edges just below the root.
    const Topology& topo = *problem.topo;
    const TopoNode& root = topo.Node(topo.Root());
    for (const NodeId child : {root.left, root.right}) {
      if (child == kInvalidNode) continue;
      edge_len[static_cast<std::size_t>(child)] += slack;
      cost += slack;
    }
  }
  result->edge_len = std::move(edge_len);
  result->stats = ComputeTreeStats(*problem.topo, result->edge_len);
  result->cost = result->stats.cost;
  result->objective = cost;
  result->status = Status::Ok();
  return true;
}

}  // namespace

const char* EbfStrategyName(EbfStrategy strategy) {
  switch (strategy) {
    case EbfStrategy::kFullRows:
      return "full-rows";
    case EbfStrategy::kReducedRows:
      return "reduced-rows";
    case EbfStrategy::kLazy:
      return "lazy";
  }
  return "unknown";
}

EbfSolveResult SolveEbf(const EbfProblem& problem,
                        const EbfSolveOptions& options) {
  Timer timer;
  EbfSolveResult result;

  // Boundary gate: malformed problems are rejected here on every path
  // (previously only the fast-path branch validated, so a disabled fast
  // path let bad input straight into the formulation).
  const Status valid = ValidateEbfProblem(problem);
  if (!valid.ok()) {
    result.status = valid;
    return result;
  }

  if (options.use_zero_skew_fast_path) {
    double common_delay = 0.0;
    if (IsZeroSkewInstance(problem, &common_delay) &&
        TryZeroSkewFastPath(problem, common_delay, &result)) {
      PostcheckEdgeLengths(problem, &result);
      result.seconds = timer.Seconds();
      LUBT_LOG_INFO << "EBF zero-skew fast path: cost=" << result.cost;
      return result;
    }
  }

  SteinerRowPolicy policy = SteinerRowPolicy::kSeed;
  if (options.strategy == EbfStrategy::kFullRows) {
    policy = SteinerRowPolicy::kAll;
  } else if (options.strategy == EbfStrategy::kReducedRows) {
    policy = SteinerRowPolicy::kReduced;
  }

  Result<EbfFormulation> built = EbfFormulation::Build(problem, policy);
  if (!built.ok()) {
    result.status = built.status();
    return result;
  }
  EbfFormulation& formulation = *built;
  LUBT_LOG_INFO << "EBF " << EbfStrategyName(options.strategy) << ": "
                << formulation.Model().NumCols() << " cols, "
                << formulation.Model().NumRows() << " initial rows ("
                << formulation.NumPotentialSteinerRows()
                << " potential Steiner rows)";

  LpSolution lp;
  if (options.strategy == EbfStrategy::kLazy) {
    LazySolveStats stats;
    const SeparationOptions sep{options.separation, options.separation_jobs};
    const RowOracle oracle = [&](std::span<const double> x) {
      return formulation.FindViolatedSteinerRows(
          x, options.separation_tol, options.max_rows_per_round, sep);
    };
    lp = SolveWithLazyRows(formulation.MutableModel(), oracle, options.lp,
                           options.max_lazy_rounds, &stats);
    result.lazy_rounds = stats.rounds;
    result.lazy_stats = stats;
  } else {
    lp = SolveLp(formulation.Model(), options.lp);
  }
  result.lp_rows = formulation.Model().NumRows();
  result.lp_iterations = lp.iterations;

  if (!lp.ok()) {
    result.status = lp.status;
    result.seconds = timer.Seconds();
    return result;
  }

  result.edge_len = formulation.EdgeLengths(lp.x);
  result.stats = ComputeTreeStats(*problem.topo, result.edge_len);
  result.cost = result.stats.cost;
  result.objective = lp.objective * formulation.Scale();
  // Boundary gate (lubt_lint finite-boundary): the cost and objective leave
  // the subsystem here; PostcheckEdgeLengths covers the per-edge vector.
  LUBT_DCHECK_FINITE(result.cost);
  LUBT_DCHECK_FINITE(result.objective);
  result.status = Status::Ok();
  PostcheckEdgeLengths(problem, &result);
  result.seconds = timer.Seconds();
  LUBT_LOG_INFO << "EBF solved: cost=" << result.cost
                << " rows=" << result.lp_rows
                << " iters=" << result.lp_iterations
                << " time=" << result.seconds << "s";
  return result;
}

}  // namespace lubt
