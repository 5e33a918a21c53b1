// Primal-dual interior-point LP solver (Mehrotra predictor-corrector).
//
// This is the engine class the paper itself used (LOQO is an interior-point
// code). The model is solved in the inequality form
//
//     min c'x   s.t.  A x >= b,  x >= 0
//
// (ranged rows are split into opposing inequalities; see
// LpModel::Compiled()). Eliminating the two complementarity blocks reduces
// each Newton step to the n x n SPD normal system
// (A' diag(y/w) A + diag(z/x)) dx = rhs where n is the number of structural
// columns — for EBF that is the number of tree edges, independent of how
// many of the Theta(m^2) Steiner rows are present. Rows are sparse (tree
// paths) and the normal matrix has a fixed pattern across Newton
// iterations, so every solve runs one symbolic analysis and then the sparse
// numeric Cholesky (lp/sparse_chol.h) on it, whatever the model's size.

#ifndef LUBT_LP_INTERIOR_POINT_H_
#define LUBT_LP_INTERIOR_POINT_H_

#include "lp/model.h"
#include "lp/sparse_chol.h"

namespace lubt {

/// Reusable interior-point state across solves of one model: the sparse
/// symbolic factorization survives between solves, so a solve over exactly
/// the analyzed rows skips ordering + elimination-tree + fill analysis. A
/// solve over any other rows (a lazy round's grown model) re-analyzes.
class IpmContext {
 public:
  SparseNormalFactor normal;
  int analyses = 0;         ///< full symbolic analyses performed
  int symbolic_reuses = 0;  ///< solves that reused the cached analysis
};

/// Solve `model` with the interior-point engine.
LpSolution SolveWithInteriorPoint(const LpModel& model,
                                  const LpSolverOptions& options = {});

}  // namespace lubt

#endif  // LUBT_LP_INTERIOR_POINT_H_
