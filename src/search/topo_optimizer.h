// Dual-guided simulated annealing over routing-tree topologies.
//
// Everything below the topology is already fast — sparse warm-started LPs,
// output-sensitive separation, incremental ECO re-solves — but the paper
// (and the whole stack so far) treats the topology as *given*. TopoOptimizer
// closes the loop: it searches the discrete space of rooted binary
// topologies for the one whose optimal LUBT embedding is cheapest.
//
// The engine is a simulated annealer whose pieces map onto the stack:
//
//  * Moves (search/moves.h): sink/subtree re-attach, disjoint subtree swap,
//    Steiner split/collapse — each a local surgery producing a canonical
//    candidate topology.
//  * Proposal distribution: moves are aimed using the LP duals of the
//    current optimum (EcoSession::DualReport). A sink whose delay window or
//    Steiner rows carry large duals is where the LP is paying; with
//    probability 0.75 the proposal starts at a dual-weighted sink
//    (and an ancestor a few levels up), otherwise a uniform one — classic
//    exploitation/exploration mixing. The move's second endpoint comes from
//    the first sink's geometric nearest neighbors (a Manhattan kNN table
//    built once per search): pairing geometrically close subtrees is what
//    shortens wire, and unguided pairs on instances past a couple hundred
//    sinks essentially never improve. On large instances each candidate
//    chains several such moves (`moves_per_candidate`) so one LP
//    evaluation prices a whole batch of local rewires.
//  * Evaluation: every candidate is scored by a *warm* structural re-solve
//    (EcoSession::EvaluateCandidateTopology) that inherits the session's
//    accumulated Steiner pool and projects the incumbent edge lengths
//    through the move's node renaming as the IPM warm start.
//  * Determinism contract: each round proposes K candidates sequentially
//    from the seeded RNG, evaluates all K speculatively in parallel
//    (evaluations own every mutable and consume no randomness), then picks
//    sequentially: the steepest-descent candidate when any improves, else
//    the first uphill winner of a Metropolis scan in proposal order — and
//    commits at most one. Randomness is consumed only in the
//    sequential phases, on data that is itself worker-count invariant, so
//    a seeded run is bitwise identical at jobs=1 and jobs=N.
//  * Termination: round budget and plateau budget (rounds since the best
//    cost improved). Cooling is geometric; after each plateau the schedule
//    re-heats from the best-so-far topology, twice, within the same round
//    budget.
//  * Checkpointing: the best-so-far topology + edge lengths are snapshotted
//    on every improvement; after termination the session is restored onto
//    the best state if the walk ended somewhere worse, so callers always
//    observe the session solved on the best topology found.
//  * Oracle (search/exact_dp.h): with `exact_oracle` set and <= 12 sinks,
//    every *accepted* move's committed cost is cross-checked against the
//    independent full-row-simplex + DP scorer; disagreements beyond 1% are
//    counted in stats.oracle_mismatches (tests demand zero).

#ifndef LUBT_SEARCH_TOPO_OPTIMIZER_H_
#define LUBT_SEARCH_TOPO_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "eco/eco_session.h"
#include "search/moves.h"

namespace lubt {

/// Annealer knobs. Defaults suit mid-size instances (hundreds of sinks).
struct TopoSearchOptions {
  std::uint64_t seed = 1;       ///< RNG seed; fully determines the schedule
  int max_rounds = 200;         ///< SA rounds (<= one commit per round)
  int candidates_per_round = 4; ///< speculative evaluations per round
  /// Moves chained into each candidate before it is scored. Every
  /// evaluation is a full warm LP re-solve, so on large instances a single
  /// re-attach moves the cost by too little to be worth one; chaining lets
  /// one evaluation price a whole batch of local rewires. 0 (the default)
  /// auto-scales with the instance: max(1, min(2, sinks/128)).
  int moves_per_candidate = 0;
  int jobs = 1;                 ///< evaluation workers (0 = hardware)
  int plateau_rounds = 40;      ///< stop after this many best-less rounds
  /// Starting temperature as a fraction of the current cost. Deliberately
  /// cool: with speculative multi-candidate rounds the search already sees
  /// several escapes per round, and measured on random instances hot
  /// schedules (0.01+) spend most of their budget re-fixing self-inflicted
  /// uphill damage.
  double initial_temp = 0.001;
  double cooling = 0.97;        ///< geometric decay per round, in (0, 1]
  /// Cross-check every accepted move against the exact DP/simplex scorer
  /// (instances up to kExactOracleMaxSinks only; ignored above).
  bool exact_oracle = false;
  EcoOptions eco;               ///< evaluation/commit solve options
};

/// Search counters.
struct TopoSearchStats {
  int rounds = 0;
  int proposed = 0;          ///< proposal slots drawn (including invalid)
  int evaluated = 0;         ///< candidate LP evaluations run
  int accepted = 0;          ///< candidates committed
  int uphill_accepted = 0;   ///< commits with a cost increase (Metropolis)
  // Commits by the kind of the candidate's *first* move (a chained
  // candidate carries up to moves_per_candidate links).
  int accepted_reattach = 0;
  int accepted_swap = 0;
  int accepted_split = 0;
  int oracle_checks = 0;
  int oracle_mismatches = 0;  ///< exact-oracle disagreements > 1%
  bool restored_best = false; ///< final walk state was worse than best
  double seconds = 0.0;
};

/// Search outcome. `best_*` describe the best topology found; the driven
/// session is left solved on exactly that topology.
struct TopoSearchResult {
  Status status;
  double initial_cost = 0.0;
  double best_cost = 0.0;
  TreeStats best_stats;
  Topology best_topo;
  std::vector<double> best_edge_len;  ///< layout units, by best_topo node id
  TopoSearchStats stats;

  /// Fractional wirelength reduction vs the initial topology.
  double Improvement() const {
    return initial_cost > 0.0 ? (initial_cost - best_cost) / initial_cost
                              : 0.0;
  }
  bool ok() const { return status.ok(); }
};

class TopoOptimizer {
 public:
  /// Anneal over topologies starting from `session`'s current one. The
  /// session must hold a feasible solution; on return it is solved on the
  /// best topology found (best-so-far restore). The session is driven from
  /// the calling thread; evaluation workers only run the const evaluation
  /// path (see EcoSession::EvaluateCandidateTopology's contract).
  static Result<TopoSearchResult> Optimize(EcoSession& session,
                                           const TopoSearchOptions& options);

  /// Convenience: build a session over (set, bounds, initial) with
  /// options.eco and anneal. Fails when the initial instance is malformed
  /// or infeasible.
  static Result<TopoSearchResult> Optimize(SinkSet set,
                                           std::vector<DelayBounds> bounds,
                                           Topology initial,
                                           const TopoSearchOptions& options);
};

}  // namespace lubt

#endif  // LUBT_SEARCH_TOPO_OPTIMIZER_H_
