// Incremental ECO engine: warm-started re-solves of one LUBT instance under
// a stream of typed edits (eco/edit_script.h).
//
// An EcoSession owns a solved instance — sink set, delay windows, topology,
// the accumulated LP relaxation, and the interior-point context — and
// re-solves after each edit with maximal reuse (DESIGN.md section 13):
//
//  * the topology is kept and repaired locally: AddSink splices a new leaf
//    next to the nearest existing sink (NN re-attach via topo/nn_merge),
//    RemoveSink splices the leaf and its parent out; moves and bound edits
//    keep it untouched;
//  * every lazy Steiner row whose defining sink pair is untouched by the
//    edit is kept; rows touched by a move get their RHS refreshed in place
//    (exact — the row's support never changes while the topology stands);
//  * re-separation first targets the edit's dirty region — pairs with an
//    edited endpoint, screened through the octant oracle's dirty aggregates
//    (OctantSoa::CrossBoundDirty) — and then certifies optimality with full
//    output-sensitive separation passes, so convergence is never declared
//    from a partial view of the pair space;
//  * the interior point warm-starts from the previous primal/dual iterate
//    and reuses the sparse symbolic factorization (IpmContext) whenever the
//    compiled row pattern is unchanged, which is every RHS-only edit.
//
// Correctness contract: after every edit the session's solution matches a
// cold SolveEbf of the edited instance (on the session's repaired topology)
// within LP tolerance. RHS-only edits whose refreshed rows stay strictly
// slack — the active set provably unchanged — take the no-op tier and leave
// the stored solution bitwise untouched. tests/eco_test.cpp enforces both
// with a randomized edit-stream oracle.
//
// Scope: unit edge weights and no zero-length (degree-4 split) edges — the
// repair moves assume every leaf is an ordinary binary-tree sink.
//
// Threading: an EcoSession is thread-confined, not thread-safe. All mutable
// solved state — the primal/dual iterates (lp_x_, lp_dual_), the solved-
// state flag (lp_valid_), and the infeasible-window park flag
// (needs_rebuild_) — is read and written without locks on the assumption
// that exactly one thread drives the session between external
// synchronization points. BatchSolver honours this by giving each job (and
// thus each session) to a single worker for its whole lifetime; lubt_server
// honours it by routing every request for a session through that session's
// Strand (runtime/strand.h), which runs at most one job at a time and
// publishes state between consecutive jobs through the pool queue's mutex.

#ifndef LUBT_ECO_ECO_SESSION_H_
#define LUBT_ECO_ECO_SESSION_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "ebf/solver.h"
#include "eco/edit_script.h"
#include "io/sink_set.h"
#include "io/tree_io.h"
#include "lp/dual_report.h"
#include "lp/interior_point.h"

namespace lubt {

struct EcoCheckpoint;  // eco/checkpoint.h

/// Which reuse tier served one edit, cheapest first.
enum class EcoTier {
  kInitial,     ///< session-creation cold solve
  kNoOp,        ///< active set provably preserved; solution reused bitwise
  kRhsWarm,     ///< bounds refreshed in place + warm-started re-solve
  kStructural,  ///< local topology repair + row re-materialization
  kColdRebuild, ///< full rebuild (recovering from an infeasible-window state)
};

const char* EcoTierName(EcoTier tier);

/// The session's last solved point viewed through its duals, in instance
/// terms (lp/dual_report.h unscales the compiled ge-row duals): one entry
/// per sink delay window and one per live Steiner pool row. `valid` is
/// false when the session holds no solution for the current instance or the
/// stored duals no longer describe the model (e.g. right after a bound flip
/// that changed the compiled pattern); consumers must then fall back to
/// unguided behaviour.
struct EcoDualReport {
  struct SinkDual {
    double lo_dual = 0.0;  ///< d cost / d (delay lower bound), >= 0
    double hi_dual = 0.0;  ///< d cost / d (delay upper bound), <= 0
    bool binding = false;  ///< either side of the window is active
  };
  struct SteinerDual {
    std::array<std::int32_t, 2> pair{};  ///< defining sinks, min first
    double dual = 0.0;                   ///< d cost / d (pair distance), >= 0
    bool binding = false;
  };
  std::vector<SinkDual> sinks;      ///< by sink index
  std::vector<SteinerDual> steiner;  ///< by Steiner pool index
  bool valid = false;
};

/// Outcome of one speculative candidate-topology evaluation
/// (EcoSession::EvaluateCandidateTopology). Holds everything a caller needs
/// to either rank the candidate or commit it warm.
struct EcoTopoEval {
  Status status;                 ///< Ok, or Infeasible/solver failure
  double cost = 0.0;             ///< total wirelength, layout units
  TreeStats stats;               ///< delays of the candidate's solved tree
  std::vector<double> edge_len;  ///< layout units, by candidate node id
  int lp_rows = 0;
  int lp_iterations = 0;
  int lazy_rounds = 0;

  bool ok() const { return status.ok(); }
};

/// Outcome of one edit (or of session creation).
struct EcoSolveInfo {
  Status status;          ///< Ok, or Infeasible for empty feasible regions
  EcoTier tier = EcoTier::kInitial;
  double cost = 0.0;      ///< total wirelength, layout units
  double objective = 0.0; ///< == cost (unit weights)
  TreeStats stats;        ///< delays of the solved tree
  int lp_rows = 0;        ///< rows in the session model after the edit
  int lp_iterations = 0;
  int lazy_rounds = 0;    ///< LP solves spent on this edit
  int rows_added = 0;     ///< Steiner rows appended by separation
  int rows_refreshed = 0; ///< rows whose bounds/RHS were updated in place
  int cold_retries = 0;   ///< warm solves that failed and re-ran cold
  bool warm_started = false;
  bool symbolic_reused = false;
  double seconds = 0.0;

  bool ok() const { return status.ok(); }
};

/// Session knobs. The LP engine is always the interior point (simplex
/// cannot consume warm starts) and the row strategy is always lazy.
struct EcoOptions {
  EbfSolveOptions solve;  ///< strategy/engine fields are overridden
};

/// A solved instance that absorbs edits. Non-copyable and non-movable: the
/// internal formulation holds pointers into the session's own storage.
class EcoSession {
 public:
  /// Build a session over `set` (sinks + optional source), per-sink windows
  /// in layout units, and a topology whose leaves are `set`'s sinks, then
  /// run the initial cold solve. Fails only on malformed input; an
  /// infeasible initial instance yields a session whose Last().status is
  /// kInfeasible (later edits may restore feasibility).
  static Result<std::unique_ptr<EcoSession>> Create(SinkSet set,
                                                    std::vector<DelayBounds> bounds,
                                                    Topology topo,
                                                    EcoOptions options = {});

  EcoSession(const EcoSession&) = delete;
  EcoSession& operator=(const EcoSession&) = delete;

  /// Apply one edit (layout units) and re-solve. Fails without mutating the
  /// instance on malformed edits: bad sink index, NaN/negative windows,
  /// windows with lo > hi, or removing below the topology minimum (2 sinks
  /// free-source, 1 fixed-source). LP infeasibility is not an error — it is
  /// reported through the returned info's status, and the session keeps
  /// accepting edits.
  Result<EcoSolveInfo> Apply(const EcoEdit& edit);

  /// Apply a whole stream; stops at the first malformed edit.
  Result<std::vector<EcoSolveInfo>> ApplyAll(std::span<const EcoEdit> edits);

  const SinkSet& Set() const { return set_; }
  const Topology& Topo() const { return topo_; }
  std::span<const DelayBounds> Bounds() const { return problem_.bounds; }
  /// The current instance; spans and pointers borrow session storage.
  const EbfProblem& Problem() const { return problem_; }
  const EcoOptions& Options() const { return opt_; }
  int NumSinks() const { return static_cast<int>(set_.sinks.size()); }
  /// Radius of the instance the session was created over (the unit the
  /// CLI/batch drivers use for script windows).
  double InitialRadius() const { return initial_radius_; }

  /// Creation/last-edit outcome.
  const EcoSolveInfo& Last() const { return last_; }
  /// True when the stored solution corresponds to the current instance.
  bool Feasible() const { return lp_valid_; }
  /// Edge lengths by node id in layout units (last feasible solve; empty
  /// before one exists).
  std::span<const double> EdgeLengths() const { return edge_len_; }
  int NumLpRows() const;

  /// The solved tree (topology + lengths, no embedding) for persistence.
  TreeSolution Solution() const;

  /// Dual view of the last solved point (see EcoDualReport). Cheap: one
  /// pass over the model rows, no solve.
  EcoDualReport DualReport() const;

  /// Speculatively solve the current instance (same sinks, same windows) on
  /// a *candidate* topology without mutating the session — the evaluation
  /// tier of the topology search (search/topo_optimizer.h). Builds an
  /// evaluation-local formulation, re-materializes the session's accumulated
  /// Steiner pool against the candidate (the pool is a set of sink pairs,
  /// which is topology-independent knowledge), warm-starts from
  /// `warm_edge_len` when given (layout units, indexed by *candidate* node
  /// id — the move kernel maps the session's solved lengths through its
  /// node renaming), and runs the lazy loop to optimality. The candidate
  /// must be a valid topology over this session's sinks in this session's
  /// root mode.
  ///
  /// Thread-safety: const and safe to call concurrently from multiple
  /// workers on one session — it reads only settled solved state and owns
  /// every mutable it touches. The exception to the class's thread-confined
  /// contract is deliberate and narrow: no Apply*/Restore may run
  /// concurrently with evaluations (the topology search interleaves a
  /// parallel evaluation phase with a sequential commit phase).
  EcoTopoEval EvaluateCandidateTopology(
      const Topology& candidate,
      const std::vector<double>* warm_edge_len = nullptr) const;

  /// Commit a replacement topology over the unchanged sink set and windows:
  /// validates, adopts, and re-solves through the structural-repair tier
  /// (formulation rebuild with the Steiner pool carried over, warm-started
  /// from `warm_edge_len` — normally the edge lengths of the winning
  /// EvaluateCandidateTopology call). Fails without mutating the session on
  /// an invalid candidate (wrong sink count, wrong root mode, malformed
  /// tree).
  Result<EcoSolveInfo> ApplyTopologyReplace(
      Topology candidate, const std::vector<double>* warm_edge_len = nullptr);

  /// Snapshot the complete session state (eco/checkpoint.h). The snapshot
  /// is self-contained — copies, not views — so the session may keep
  /// absorbing edits (or be destroyed) afterwards.
  EcoCheckpoint Checkpoint() const;

  /// Rebuild a session from a snapshot, bit for bit: the solved state is
  /// adopted as captured and the LP model is reconstructed exactly (same
  /// rows, same bounds, same scale). The interior-point symbolic analysis
  /// is re-derived on the next solve rather than restored; results are
  /// still bitwise identical to the never-checkpointed session's (only the
  /// EcoSolveInfo::symbolic_reused flag of the first post-restore solve may
  /// differ). `options` must match the captured session's solve options for
  /// the bitwise contract to hold. Fails on malformed/corrupt snapshots
  /// without partial effects.
  static Result<std::unique_ptr<EcoSession>> Restore(EcoCheckpoint checkpoint,
                                                     EcoOptions options = {});

 private:
  EcoSession() = default;

  // One key per normalized sink pair, for pool dedup.
  static std::int64_t PairKey(std::int32_t i, std::int32_t j) {
    return (static_cast<std::int64_t>(i) << 32) | static_cast<std::int64_t>(j);
  }

  // Model row of sink s's delay row (the model has no zero-length rows, so
  // delay rows occupy [0, m) and Steiner row k sits at m + k).
  int DelayRow(std::int32_t s) const { return s; }
  int SteinerRow(std::size_t pool_index) const {
    return NumSinks() + static_cast<int>(pool_index);
  }

  // True when some sink's folded window is empty (lo > hi after the source
  // fold), i.e. the instance is geometrically infeasible. Computed in
  // layout units so it is scale-free.
  bool AnyEmptyFoldedWindow() const;

  // Write sink s's refreshed window into its delay row; tracks the ge-row
  // signature (hi-finiteness) and drops the stored duals + symbolic
  // analysis when the compiled pattern flips.
  void PushDelayWindow(std::int32_t s, EcoSolveInfo* info);

  // Tier-0 test: every row in `rows` (model indices) strictly slack at the
  // stored point under both its current and its pending bounds.
  bool RowsStrictlySlack(std::span<const int> rows,
                         std::span<const double> pending_lo,
                         std::span<const double> pending_hi) const;

  // Seed `seen` (and `pool`, when given) with `form`'s own Steiner-row
  // pairs, then append to `form`'s model a row for every `carried` pair not
  // yet seen whose RHS is still positive, registering each in `seen` and
  // `pool`. Returns the number of rows appended.
  int AddCarriedPairs(std::span<const std::array<std::int32_t, 2>> carried,
                      EbfFormulation* form,
                      std::unordered_set<std::int64_t>* seen,
                      std::vector<std::array<std::int32_t, 2>>* pool) const;

  // Drop from `rows` (in place, order kept) every row whose sink pair
  // `seen` already holds, repeats within `rows` included; `pairs[k]` defines
  // (*rows)[k]. Each kept pair is inserted into `seen` and, when `pool` is
  // given, appended to it.
  static void KeepUnseenPairs(
      std::span<const std::array<std::int32_t, 2>> pairs,
      std::unordered_set<std::int64_t>* seen,
      std::vector<std::array<std::int32_t, 2>>* pool,
      std::vector<SparseRow>* rows);

  // The session's lazy solve: SolveWithLazyRows warm-started from
  // `warm_x`/`warm_dual` (ignored unless sized to the model), with an oracle
  // that separates dirty-first when `dirty` is non-empty, always certifies
  // with full passes, and registers every appended row in pool_.
  Status RunLazyLoop(const std::vector<double>* warm_x,
                     const std::vector<double>* warm_dual,
                     std::span<const std::uint8_t> dirty, EcoSolveInfo* info);

  // Full rebuild of formulation + model from the current instance,
  // re-materializing the Steiner pool against the (possibly repaired)
  // topology, then a re-solve warm-started from `warm_x` (LP units of the
  // *new* scale; nullptr = cold).
  Status RebuildAndSolve(const std::vector<double>* warm_x,
                         EcoSolveInfo* info);

  // Topology repair for add/remove. Rebuilds the arena compactly (the
  // children-precede-parents id invariant does not survive in-place
  // surgery) and fills `warm_edge_len` — a warm edge-length guess in layout
  // units indexed by *new* node id (all zeros when no stored solution
  // exists to project from).
  void RepairTopologyAdd(NodeId attach_leaf, std::int32_t new_sink,
                         std::vector<double>* warm_edge_len);
  void RepairTopologyRemove(std::int32_t removed_sink,
                            std::vector<double>* warm_edge_len);

  Status ApplyRhsEdit(const EcoEdit& edit, EcoSolveInfo* info);
  Status ApplyStructuralEdit(const EcoEdit& edit, EcoSolveInfo* info);

  void FinishSolve(const LpSolution& sol, EcoSolveInfo* info);

  SinkSet set_;
  Topology topo_;
  EcoOptions opt_;
  double initial_radius_ = 1.0;
  EbfProblem problem_;  // sinks span -> set_.sinks; topo -> &topo_
  std::optional<EbfFormulation> form_;
  IpmContext ipm_;

  std::vector<double> lp_x_;     // last primal iterate, LP units
  std::vector<double> lp_dual_;  // last ge duals (compiled order)
  bool lp_valid_ = false;        // solution matches the current instance
  bool needs_rebuild_ = false;   // formulation unusable (empty-window state)
  std::vector<double> edge_len_; // layout units, by node id
  EcoSolveInfo last_;

  // Steiner row registry: pool_[k] is the defining sink pair of model row
  // SteinerRow(k); pair_seen_ dedupes appends.
  std::vector<std::array<std::int32_t, 2>> pool_;
  std::unordered_set<std::int64_t> pair_seen_;
  // Per sink: delay row compiled with a finite upper bound (ge signature).
  std::vector<std::uint8_t> ge_has_hi_;

  // Scratch reused across edits.
  std::vector<std::uint8_t> dirty_scratch_;
  std::vector<std::array<std::int32_t, 2>> pairs_scratch_;
};

/// Cold reference: a from-scratch SolveEbf of the session's current
/// instance on the session's (repaired) topology with the session's solve
/// options — what the oracle tests compare every incremental solve against.
EbfSolveResult ColdReferenceSolve(const EcoSession& session);

}  // namespace lubt

#endif  // LUBT_ECO_ECO_SESSION_H_
