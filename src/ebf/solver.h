// End-to-end EBF solving (formulation + LP engine + row generation).
//
// This is the main entry point of the library's core: it turns an
// EbfProblem into optimal edge lengths. Three strategies:
//
//  * kFullRows    — materialize every Steiner row; exact, Theta(m^2) rows.
//  * kReducedRows — materialize rows surviving the Section 4.6 reduction.
//  * kLazy        — seed rows + separation oracle (default; optimal too,
//                   since termination requires zero violated rows).

#ifndef LUBT_EBF_SOLVER_H_
#define LUBT_EBF_SOLVER_H_

#include "cts/metrics.h"
#include "ebf/formulation.h"
#include "lp/lazy_row_solver.h"

namespace lubt {

/// Which rows the LP starts with.
enum class EbfStrategy { kFullRows, kReducedRows, kLazy };

const char* EbfStrategyName(EbfStrategy strategy);

/// Solve knobs.
struct EbfSolveOptions {
  LpSolverOptions lp;
  EbfStrategy strategy = EbfStrategy::kLazy;
  int max_lazy_rounds = 50;
  int max_rows_per_round = 4000;
  /// Separation tolerance in radius-normalized units.
  double separation_tol = 1e-7;
  /// How the lazy strategy finds violated Steiner rows. kOctantSoa is the
  /// output-sensitive oracle over lane-major aggregates; kBruteForce is the
  /// all-pairs cross-check path (identical rows, identical order).
  SeparationMode separation = SeparationMode::kOctantSoa;
  /// Worker threads for the octant oracle's bucket enumeration (results are
  /// worker-count invariant; 1 = inline).
  int separation_jobs = 1;
  /// Dispatch l_i = u_i = c instances to the direct zero-skew solve
  /// (Section 4.6: the constraints collapse to equalities and no
  /// optimization is necessary). The LP path is kept for cross-checking.
  bool use_zero_skew_fast_path = true;
};

/// Solve outcome. `edge_len` is indexed by node id in layout units.
struct EbfSolveResult {
  Status status;
  std::vector<double> edge_len;
  double cost = 0.0;       ///< unweighted total wirelength
  double objective = 0.0;  ///< weighted objective (== cost for unit weights)
  TreeStats stats;         ///< delays of the solved tree
  int lp_rows = 0;         ///< rows in the final LP
  int lp_iterations = 0;
  int lazy_rounds = 0;
  /// Full lazy-solve statistics (warm rounds, symbolic reuses, ...);
  /// populated only by the kLazy strategy.
  LazySolveStats lazy_stats;
  double seconds = 0.0;

  bool ok() const { return status.ok(); }
};

/// Solve a LUBT instance. The problem data must stay alive during the call.
EbfSolveResult SolveEbf(const EbfProblem& problem,
                        const EbfSolveOptions& options = {});

}  // namespace lubt

#endif  // LUBT_EBF_SOLVER_H_
