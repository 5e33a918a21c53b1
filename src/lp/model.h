// Linear-program model shared by all solver engines.
//
// The EBF of the paper is
//
//     min  w' e
//     s.t. sum of e over path(s_i, s_j) >= dist(s_i, s_j)   (Steiner rows)
//          l_i <= sum of e over path(s_0, s_i) <= u_i        (delay rows)
//          e >= 0
//
// so the model supports exactly what that needs: non-negative columns, a
// linear objective, and sparse rows with independent lower/upper activity
// bounds (either side may be infinite). Rows are stored sparsely because a
// path constraint touches only the O(depth) edges on one tree path.

#ifndef LUBT_LP_MODEL_H_
#define LUBT_LP_MODEL_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace lubt {

class IpmContext;  // interior_point.h: reusable cache across related solves

/// Infinity marker for absent row bounds.
inline constexpr double kLpInf = std::numeric_limits<double>::infinity();

/// One sparse constraint row: lo <= a' x <= hi.
struct SparseRow {
  std::vector<std::int32_t> index;  ///< column indices, strictly increasing
  std::vector<double> value;        ///< matching coefficients
  double lo = -kLpInf;
  double hi = kLpInf;

  /// a' x for a dense point.
  double Activity(std::span<const double> x) const;
};

/// Compiled constraint view shared by the solver engines.
///
/// Every model row `lo <= a'x <= hi` is folded into >=-form ("ge") rows:
/// `a'x >= lo` when lo is finite, then `-a'x >= -hi` when hi is finite, in
/// that order, walking model rows in order. The order is therefore stable
/// under row appends: a model grown by AddRow compiles to the previous ge
/// rows followed by the new ones, which is what lets warm-started lazy
/// solves carry dual values across rounds.
///
/// Rows are equilibrated to unit L2 norm (EBF delay rows over deep
/// topologies carry hundreds of unit entries while Steiner rows carry a
/// handful, and the norm mismatch stalls the interior-point iteration).
/// Scaling a row only rescales its dual, and `ge_dual` values are always
/// exchanged in this scaled space.
struct CompiledLpModel {
  int num_cols = 0;
  int num_rows = 0;  ///< ge rows, not model rows

  // CSR over ge rows: entries of row i are [row_ptr[i], row_ptr[i+1]).
  std::vector<std::int64_t> row_ptr;
  std::vector<std::int32_t> col;
  std::vector<double> val;
  std::vector<double> rhs;  ///< b in a'x >= b, equilibrated

  // CSC transpose (cached column supports), same entries column-major.
  std::vector<std::int64_t> col_ptr;
  std::vector<std::int32_t> row;
  std::vector<double> cval;

  /// a' x of one ge row for a dense point.
  double RowActivity(int ge_row, std::span<const double> x) const;
};

/// An LP: min c' x subject to row bounds, x >= 0.
class LpModel {
 public:
  /// Create a model with `num_cols` non-negative variables and zero costs.
  explicit LpModel(int num_cols);

  int NumCols() const { return static_cast<int>(objective_.size()); }
  int NumRows() const { return static_cast<int>(rows_.size()); }

  /// Set the objective coefficient of one column.
  void SetObjective(int col, double coef);

  /// Dense objective accessor.
  std::span<const double> Objective() const { return objective_; }

  /// Reserve storage for `num_rows` total rows (callers that know their row
  /// counts, e.g. the EBF formulation, avoid push_back reallocation churn).
  void ReserveRows(std::size_t num_rows);

  /// Add a row; returns its index. Indices must be valid columns, sorted,
  /// and unique; at least one of lo/hi must be finite.
  int AddRow(SparseRow row);

  /// Convenience: add a row from parallel spans.
  int AddRow(std::span<const std::int32_t> index, std::span<const double> value,
             double lo, double hi);

  const SparseRow& Row(int r) const { return rows_[static_cast<size_t>(r)]; }
  std::span<const SparseRow> Rows() const { return rows_; }

  /// Mutable access for in-place row surgery (scaling passes, test
  /// fixtures). AddRow's structural invariants become the caller's
  /// responsibility; ValidateModel (check/invariants.h) re-checks them at
  /// the SolveLp boundary, so a model corrupted through this handle is
  /// rejected instead of crashing an engine.
  SparseRow& MutableRow(int r);

  /// Replace the bounds of an existing row.
  void SetRowBounds(int r, double lo, double hi);

  /// Objective value c' x.
  double ObjectiveValue(std::span<const double> x) const;

  /// Largest violation of any row bound or column non-negativity at x.
  double MaxInfeasibility(std::span<const double> x) const;

  /// The compiled CSR/CSC view, built lazily and cached until the model is
  /// mutated (AddRow, SetRowBounds, MutableRow all invalidate it). Engines
  /// iterate this instead of walking std::vector<SparseRow> per iteration.
  /// The cache makes a first call on a given model state non-reentrant:
  /// concurrent solves must each own their model (runtime contract,
  /// DESIGN.md section 10 — BatchSolver builds one model per job).
  const CompiledLpModel& Compiled() const;

 private:
  std::vector<double> objective_;
  std::vector<SparseRow> rows_;

  std::uint64_t version_ = 1;  // bumped by every mutation
  mutable std::uint64_t compiled_version_ = 0;
  mutable CompiledLpModel compiled_;
};

/// Which algorithm solves the model.
enum class LpEngine {
  kSimplex,        ///< dense two-phase primal simplex (small/medium models)
  kInteriorPoint,  ///< Mehrotra predictor-corrector (default; scales)
};

const char* LpEngineName(LpEngine engine);

/// Which numeric kernel the interior point's sparse normal-equations
/// Cholesky runs. Both kernels share one symbolic analysis and produce the
/// same factor to floating-point roundoff; the simplicial path stays as the
/// scalar oracle.
enum class IpmFactorMode {
  kSupernodal,  ///< blocked panels + static update schedule (default)
  kSimplicial,  ///< single-threaded column-at-a-time reference kernel
};

const char* IpmFactorModeName(IpmFactorMode mode);

/// Optional starting point for the interior-point engine. The engine shifts
/// it to a strictly interior point, so any non-negative primal guess is
/// legal; near-optimal guesses (the previous lazy round's iterate) cut the
/// iteration count. `ge_dual` holds duals for a prefix of the compiled
/// ge-form rows (CompiledLpModel order); rows beyond the prefix start from
/// the cold default. A warm start whose `x` size does not match the model
/// is ignored.
struct LpWarmStart {
  std::vector<double> x;        ///< primal point, size NumCols()
  std::vector<double> ge_dual;  ///< dual prefix in compiled ge-row order
};

/// Solver knobs; defaults are good for EBF instances.
struct LpSolverOptions {
  LpEngine engine = LpEngine::kInteriorPoint;
  int max_iterations = 0;   ///< 0 = engine default
  double tolerance = 1e-8;  ///< relative optimality / feasibility target

  /// Interior point: numeric factorization kernel (see IpmFactorMode).
  IpmFactorMode factor_mode = IpmFactorMode::kSupernodal;
  /// Interior point: optional warm start (see LpWarmStart).
  const LpWarmStart* warm_start = nullptr;
  /// Interior point: reusable cache holding the symbolic factorization.
  /// Valid only across solves of one model, grown by row appends or rebuilt
  /// with the same rows; the analysis is kept only when the rows are exactly
  /// the analyzed ones. Pass nullptr everywhere else.
  IpmContext* ipm_context = nullptr;
  /// SolveWithLazyRows: thread each round's iterate into the next round as
  /// a warm start (interior point only).
  bool warm_start_lazy_rounds = true;
};

/// Outcome of a solve.
struct LpSolution {
  Status status;             ///< Ok, Infeasible, Unbounded or NumericalFailure
  std::vector<double> x;     ///< primal point (valid when status is Ok)
  double objective = 0.0;    ///< c' x at the returned point
  int iterations = 0;        ///< engine iterations spent
  double seconds = 0.0;      ///< wall-clock solve time
  int regularizations = 0;   ///< Cholesky diagonal-regularization retries
  bool warm_started = false;     ///< engine consumed options.warm_start
  bool symbolic_reused = false;  ///< reused a cached symbolic factorization
  /// Interior point: ge-form duals at the returned point (CompiledLpModel
  /// row order), for warm-starting a follow-up solve. Empty for simplex.
  std::vector<double> ge_dual;

  bool ok() const { return status.ok(); }
};

/// Solve with the engine selected in `options`.
LpSolution SolveLp(const LpModel& model, const LpSolverOptions& options = {});

}  // namespace lubt

#endif  // LUBT_LP_MODEL_H_
