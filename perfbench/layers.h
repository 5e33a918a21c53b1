// The traced runs' layer suite. Every workload's traced run measures every
// layer on that workload's own inputs, timing calls into each module's
// public functions from here:
//
//   topo    NnMergeTopology
//   ebf     EbfFormulation::Build, FindViolatedSteinerRows (as the oracle
//           SolveWithLazyRows calls)
//   lp      SolveWithLazyRows minus its oracle time, LazySolveStats, and one
//           SparseNormalFactor Analyze / Factor / Solve on a final model
//   embed   EmbedTree, VerifyEmbedding
//   eco     EcoSession::Create / Apply replaying the served edit scripts
//   serve   EncodeCheckpoint / DecodeCheckpoint / EcoSession::Restore, the
//           stats op, and served minus in-process edit latency
//   search  TopoOptimizer::Optimize and EvaluateCandidateTopology

#ifndef LUBT_PERFBENCH_LAYERS_H_
#define LUBT_PERFBENCH_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "eco/eco_session.h"
#include "harness.h"
#include "lp/model.h"
#include "runtime/batch_solver.h"
#include "search/topo_optimizer.h"
#include "serve_eco.h"

namespace perfbench {

/// One net of a cold solve: instance, window (radius units) and whether it
/// must come back feasible.
struct ColdNet {
  std::string name;
  lubt::SinkSet set;
  double lower = 1.0;
  double upper = 1.2;
  bool feasible = true;
};

/// SolveBatch jobs (NN-merge topology, default solve options) for `nets`.
std::vector<lubt::BatchJob> ColdJobs(const std::vector<ColdNet>& nets);

/// Accumulated per-layer measurements of one traced run.
struct LayerStats {
  long long separate_calls = 0;
  long long rows_added = 0;
  long long rows_binding = 0;
  long long lp_rounds = 0;
  long long ipm_iterations = 0;
  long long symbolic_reuses = 0;
  long long regularizations = 0;
  /// The largest final compiled model seen, for the factor probe.
  lubt::CompiledLpModel probe_model;

  std::vector<double> create_ms, apply_ms;
  long long tier_noop = 0, tier_rhs_warm = 0, tier_structural = 0,
            tier_cold_rebuild = 0;
  long long eco_solves = 0, eco_symbolic_reused = 0, eco_cold_retries = 0;

  std::vector<double> encode_ms, decode_ms, restore_ms, checkpoint_bytes;
  long long evictions = 0, restores = 0, rejected = 0;
  std::vector<double> served_edit_ms;
  /// Served final costs and their ColdReferenceSolve costs, summed over
  /// the sessions ReplayServed checked.
  double served_cost = 0.0, reference_cost = 0.0;

  long long search_evaluated = 0, search_accepted = 0;
  double search_s = 0.0;
  std::vector<double> eval_ms;

  double traced_wall_s = 0.0;    ///< wall time of the traced cold solves
  double untraced_wall_s = 0.0;  ///< the same nets through SolveBatch
  double traced_layer_s = 0.0;   ///< span self time inside traced_wall_s
};

/// Replay a served run in process: EcoSession::Create on every session and
/// Apply of the same scripts, checking each final cost against the served
/// one and against ColdReferenceSolve; then a checkpoint encode / decode /
/// restore cycle of every final session. Returns the replayed sessions.
std::vector<std::unique_ptr<lubt::EcoSession>> ReplayServed(
    const ServeSpec& spec, const ServeRun& run, LayerStats* stats,
    Outcome* out);

/// Cold SolveEbf of `session`'s instance on `topo`; its cost must match
/// `cost` within kObjectiveRelTol.
void CheckAgainstColdSolve(const lubt::EcoSession& session,
                           const lubt::Topology& topo, double cost,
                           const std::string& what, Outcome* out);

/// One solved EcoSession per net on its NN-merge topology.
std::vector<std::unique_ptr<lubt::EcoSession>> CreateSessions(
    const std::vector<ColdNet>& nets, Outcome* out);

/// A workload's traced run: every layer on that workload's own inputs.
/// Traced cold solves of `nets` (coverage gated at 0.95), the served loop
/// `spec` and its in-process replay, and `search` on fresh sessions of
/// `search_nets`; then every per-layer metric into `out`.
void RunLayerSuite(const std::vector<ColdNet>& nets, const ServeSpec& spec,
                   const std::vector<ColdNet>& search_nets,
                   const lubt::TopoSearchOptions& search, Outcome* out);

}  // namespace perfbench

#endif  // LUBT_PERFBENCH_LAYERS_H_
