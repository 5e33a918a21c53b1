#include "lp/lazy_row_solver.h"

#include <utility>

#include "lp/interior_point.h"
#include "util/logging.h"
#include "util/timer.h"

namespace lubt {

LpSolution SolveWithLazyRows(LpModel& model, const RowOracle& oracle,
                             const LpSolverOptions& options, int max_rounds,
                             LazySolveStats* stats) {
  LazySolveStats local;
  LpSolution solution;
  bool converged = false;

  // Per-solve interior-point state threaded across rounds: the previous
  // round's iterate seeds the next round, and the sparse symbolic analysis
  // survives row appends (the model only grows). A caller-provided context
  // is reused; otherwise rounds share this stack-local one.
  const bool thread_rounds = options.engine == LpEngine::kInteriorPoint &&
                             options.warm_start_lazy_rounds;
  IpmContext local_context;
  LpWarmStart warm;
  LpSolverOptions round_options = options;
  if (thread_rounds && round_options.ipm_context == nullptr) {
    round_options.ipm_context = &local_context;
  }

  for (int round = 0; round < max_rounds; ++round) {
    // Round 0 starts from the caller's point; later rounds from the
    // previous round's iterate when the append gate below kept it.
    if (round > 0) {
      round_options.warm_start = warm.x.empty() ? nullptr : &warm;
    }
    Timer lp_timer;
    solution = SolveLp(model, round_options);
    ++local.rounds;
    local.lp_iterations += solution.iterations;
    if (!solution.ok() && round_options.warm_start != nullptr) {
      // A warm point carried across appended rows (or an edit) can, rarely,
      // start the iteration in a bad region; retry the round cold before
      // giving up.
      LUBT_LOG_DEBUG << "lazy round " << round
                     << ": warm solve failed (" << solution.status.message()
                     << "), retrying cold";
      ++local.cold_retries;
      round_options.warm_start = nullptr;
      solution = SolveLp(model, round_options);
      ++local.rounds;
      local.lp_iterations += solution.iterations;
    }
    local.lp_seconds += lp_timer.Seconds();
    if (solution.warm_started) ++local.warm_rounds;
    if (solution.symbolic_reused) ++local.symbolic_reuses;
    local.regularizations += solution.regularizations;
    if (!solution.ok()) break;

    Timer sep_timer;
    std::vector<SparseRow> violated = oracle(solution.x);
    local.separation_seconds += sep_timer.Seconds();
    LUBT_LOG_DEBUG << "lazy round " << round << ": obj=" << solution.objective
                   << " violated=" << violated.size();
    if (violated.empty()) {
      converged = true;
      break;
    }
    // Warm-start the next round only when the model grows modestly: after
    // a large append the previous iterate carries little information about
    // the new optimum and a cold start converges faster.
    if (thread_rounds &&
        violated.size() * 4 <=
            static_cast<std::size_t>(model.NumRows()) + violated.size()) {
      warm.x = solution.x;
      warm.ge_dual = solution.ge_dual;
    } else {
      warm.x.clear();
      warm.ge_dual.clear();
    }
    model.ReserveRows(model.Rows().size() + violated.size());
    for (SparseRow& row : violated) {
      model.AddRow(std::move(row));
      ++local.rows_added;
    }
  }
  if (!converged && solution.ok()) {
    // Out of rounds with rows still violated, or no round ran at all
    // (max_rounds <= 0): either way there is no optimal point to report.
    solution.status =
        Status::NumericalFailure("lazy row generation did not converge");
  }
  local.final_rows = model.NumRows();
  if (stats != nullptr) *stats = local;
  solution.iterations = local.lp_iterations;
  return solution;
}

}  // namespace lubt
