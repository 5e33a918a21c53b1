// Row generation ("lazy constraints") on top of any LP engine.
//
// The EBF has a Steiner row for every pair of sinks — Theta(m^2) rows, most
// of which are slack at the optimum (Section 4.6 of the paper argues they
// can be reduced). We therefore solve a relaxation containing only a seed
// subset, ask a caller-provided separation oracle for rows the current point
// violates, add them, and repeat. Because every added row is a valid
// constraint of the full problem, the final point (violating nothing) is
// optimal for the full problem.

#ifndef LUBT_LP_LAZY_ROW_SOLVER_H_
#define LUBT_LP_LAZY_ROW_SOLVER_H_

#include <functional>
#include <span>
#include <vector>

#include "lp/model.h"

namespace lubt {

/// Separation oracle: given the current primal point, return rows of the
/// full problem that the point violates (empty when none).
using RowOracle =
    std::function<std::vector<SparseRow>(std::span<const double> x)>;

/// Statistics about a lazy solve.
struct LazySolveStats {
  int rounds = 0;           ///< LP solves performed, cold retries included
  int cold_retries = 0;     ///< warm solves that failed and re-ran cold
  int rows_added = 0;       ///< rows appended by the oracle over all rounds
  int final_rows = 0;       ///< rows in the last relaxation
  int lp_iterations = 0;    ///< engine iterations over all rounds
  int warm_rounds = 0;      ///< rounds whose solve consumed a warm start
  int symbolic_reuses = 0;  ///< rounds that reused the symbolic analysis
  int regularizations = 0;  ///< Cholesky regularization retries, all rounds
  /// Per-phase wall-time breakdown: seconds spent inside the LP engine vs
  /// inside the separation oracle, summed over all rounds. The two phases
  /// account for essentially the whole solve (row appends are O(nnz) copies),
  /// so bench/lp_scaling reports them side by side to show where each
  /// instance size spends its time.
  double lp_seconds = 0.0;
  double separation_seconds = 0.0;
};

/// Solve min c'x s.t. all rows of `model` plus all rows the oracle can emit.
/// `model` is mutated: every row the oracle returns is appended, in order.
/// This is the one lazy-round loop: cold EBF solves, ECO edits and
/// topology-candidate evaluations all run through it, and keep their
/// caller-specific logic (pair dedup, dirty-first separation, row
/// registries) inside the oracle.
///
/// Round 0 starts from `options.warm_start` when given (interior point;
/// nullptr = cold). With the interior-point engine and
/// `options.warm_start_lazy_rounds` (the default), each later round starts
/// from the previous round's primal/dual iterate when the append was modest
/// (at most a quarter of the grown model) — rows are only ever appended, so
/// the ge-row order of earlier rounds is a stable prefix and the dual prefix
/// transfers directly. A round over new rows re-runs the symbolic analysis;
/// only a solve over exactly the analyzed rows reuses it (the first round of
/// an ECO edit that keeps every row). `options.ipm_context` is used
/// when given, otherwise the rounds share a solve-local one. A warm solve
/// that fails is retried cold once (counted in `cold_retries` and in
/// `rounds`) before giving up.
///
/// Returns a non-OK status when the last solve failed, or when no point
/// satisfying every oracle row was found within `max_rounds` rounds
/// (including `max_rounds <= 0`, which runs no solve).
LpSolution SolveWithLazyRows(LpModel& model, const RowOracle& oracle,
                             const LpSolverOptions& options = {},
                             int max_rounds = 50,
                             LazySolveStats* stats = nullptr);

}  // namespace lubt

#endif  // LUBT_LP_LAZY_ROW_SOLVER_H_
