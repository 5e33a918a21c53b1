// Edge-Based Formulation (Section 4).
//
// Variables are the tree's edge lengths, not Steiner-point coordinates —
// this removes every absolute-value term from the program and makes it a
// plain LP under the linear delay model:
//
//   min  sum_k w_k e_k
//   s.t. sum over path(s_i, s_j) of e_k >= dist(s_i, s_j)   (Steiner, 4.1)
//        l_i <= sum over path(s_0, s_i) of e_k <= u_i       (delay,   4.2)
//        e_k >= 0,  e_k = 0 for split degree-4 links
//
// Fixed-source instances fold the (source, sink) Steiner row into the delay
// row by raising its lower bound to max(l_i, dist(s_0, s_i)).
//
// The formulation is built in radius-normalized units for conditioning; the
// solution is scaled back before being returned (ebf/solver.h).

#ifndef LUBT_EBF_FORMULATION_H_
#define LUBT_EBF_FORMULATION_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geom/octant.h"
#include "geom/point.h"
#include "lp/model.h"
#include "topo/path_query.h"
#include "topo/topology.h"

namespace lubt {

/// Per-sink delay window in absolute (layout) units.
struct DelayBounds {
  double lo = 0.0;
  double hi = kLpInf;
};

/// A complete LUBT problem instance (Definition 2.1).
struct EbfProblem {
  const Topology* topo = nullptr;
  std::span<const Point> sinks;          ///< indexed by sink index
  std::optional<Point> source;           ///< must match topo's root mode
  std::vector<DelayBounds> bounds;       ///< per sink index
  /// Optional per-edge objective weights indexed by node id (Section 7,
  /// "different weights on edges"); empty means all 1.
  std::vector<double> edge_weight;
  /// Node ids whose parent edge must be zero length (degree-4 splits).
  std::vector<NodeId> zero_length_edges;
};

/// Validate an EbfProblem (shape, root-mode agreement, bound sanity per
/// Equations 3/4). Infeasible *bounds* are reported by the solver, not here;
/// this catches malformed input only.
Status ValidateEbfProblem(const EbfProblem& problem);

/// Maps LP columns to tree edges. Column k corresponds to the k-th non-root
/// node in node-id order.
class EdgeIndexer {
 public:
  explicit EdgeIndexer(const Topology& topo);

  int NumEdges() const { return static_cast<int>(node_of_col_.size()); }
  int ColOf(NodeId node) const;
  NodeId NodeOf(int col) const;

 private:
  std::vector<int> col_of_node_;  // -1 for the root
  std::vector<NodeId> node_of_col_;
};

/// How many Steiner rows the initial model carries.
enum class SteinerRowPolicy {
  kAll,      ///< every sink pair: Theta(m^2) rows (small instances only)
  kReduced,  ///< kAll minus rows provably implied by the delay lower bounds
  kSeed,     ///< one farthest cross pair per internal node (for lazy solving)
};

/// How FindViolatedSteinerRows searches for violated pairs. Both modes
/// return the exact same rows in the exact same order (the bench and the
/// randomized tests gate on bitwise agreement).
enum class SeparationMode {
  kOctantSoa,   ///< LCA-bucketed octant screen + branch-and-bound (default)
  kBruteForce,  ///< all-pairs scan; O(m^2) cross-check reference
};

const char* SeparationModeName(SeparationMode mode);

/// Knobs for one separation call.
struct SeparationOptions {
  SeparationMode mode = SeparationMode::kOctantSoa;
  /// Worker threads for bucket enumeration (kOctantSoa only). Results
  /// are bitwise identical at any worker count.
  int jobs = 1;
};

/// The built LP plus the machinery to separate missing Steiner rows.
class EbfFormulation {
 public:
  /// Build the LP for `problem`. The problem data must outlive the
  /// formulation. Fails only on malformed input.
  static Result<EbfFormulation> Build(const EbfProblem& problem,
                                      SteinerRowPolicy policy);

  /// Checkpoint-restore build: reconstruct a formulation with a *forced*
  /// scale (the live model's, which after RHS edits differs from what a
  /// fresh Build would derive from the current radius) and an explicit
  /// Steiner-row list — one row per sink pair in `pairs`, in order, emitted
  /// through SteinerRowForSinks. Because every live Steiner row's RHS is
  /// kept exact at the current coordinates (eco/eco_session.cpp refreshes
  /// rows in place on every move), the rebuilt model is bitwise identical
  /// to the model this state was captured from. Pairs must be normalized
  /// (i < j) and in range; `scale` must be positive and finite.
  static Result<EbfFormulation> BuildWithSteinerPairs(
      const EbfProblem& problem, double scale,
      std::span<const std::array<std::int32_t, 2>> pairs);

  LpModel& MutableModel() { return model_; }
  const LpModel& Model() const { return model_; }
  const EdgeIndexer& Indexer() const { return indexer_; }

  /// Scale factor between LP units and layout units (LP = layout / scale).
  double Scale() const { return scale_; }

  /// Number of Steiner rows present in the initial model.
  int NumSteinerRows() const { return num_steiner_rows_; }
  /// Number of Steiner rows a kAll build would contain.
  long long NumPotentialSteinerRows() const;

  int NumSinks() const { return static_cast<int>(sink_nodes_.size()); }
  /// Leaf node of sink `s`.
  NodeId SinkNode(std::int32_t s) const {
    return sink_nodes_[static_cast<std::size_t>(s)];
  }

  /// Sink-index pairs (normalized min first) of the initial Steiner rows,
  /// aligned with the model's Steiner-row order. Together with the
  /// `pairs_out` argument of the separation entry points this lets an
  /// incremental caller (eco/eco_session.cpp) keep a registry of which sink
  /// pair defines every Steiner row in the model.
  const std::vector<std::array<std::int32_t, 2>>& SteinerRowPairs() const {
    return steiner_pairs_;
  }

  /// The delay window of sink `s` in LP units exactly as Build writes it:
  /// source-distance fold into the lower bound, then near-equality
  /// regularization. May return lo > hi when the folded window is
  /// geometrically empty (Build then encodes two contradictory rows).
  struct LpWindow {
    double lo;
    double hi;
  };
  LpWindow DelayWindowLp(std::int32_t s) const;

  /// The Steiner row of sink pair (i, j) at the sinks' current coordinates
  /// (RHS = dist / Scale()), exactly as the separation oracle would emit it.
  SparseRow SteinerRowForSinks(std::int32_t i, std::int32_t j) const;
  double SteinerRhsLp(std::int32_t i, std::int32_t j) const;

  /// Separation oracle: Steiner rows of the full problem violated by `x`
  /// (LP units), strongest violations first (ties broken by node-id pair),
  /// at most `max_rows`. The default octant mode screens the m(m-1)/2 pair
  /// space in O(n) per round — one O(1) bound per LCA bucket — and pays for
  /// descent only where violations exist; kBruteForce is the all-pairs
  /// reference and returns the bitwise-identical row sequence. When
  /// `pairs_out` is given it receives the defining sink pair of each
  /// returned row (normalized min first, aligned with the return value).
  std::vector<SparseRow> FindViolatedSteinerRows(
      std::span<const double> x, double tol, int max_rows,
      const SeparationOptions& sep = {},
      std::vector<std::array<std::int32_t, 2>>* pairs_out = nullptr) const;

  /// Dirty-restricted separation: like FindViolatedSteinerRows but only over
  /// pairs with at least one endpoint in `dirty_sink` (one flag per sink
  /// index). The octant mode carries a second, dirty-only aggregate per
  /// subtree and screens buckets with OctantSoa::CrossBoundDirty, so clean
  /// regions of the tree are pruned in O(1) — the ECO engine's fast
  /// re-separation path after a localized edit. Both modes agree bitwise.
  std::vector<SparseRow> FindViolatedSteinerRowsDirty(
      std::span<const double> x, double tol, int max_rows,
      const SeparationOptions& sep, std::span<const std::uint8_t> dirty_sink,
      std::vector<std::array<std::int32_t, 2>>* pairs_out = nullptr) const;

  /// Convert an LP point to per-node edge lengths in layout units
  /// (root entry = 0).
  std::vector<double> EdgeLengths(std::span<const double> x) const;

 private:
  EbfFormulation(const EbfProblem& problem, double scale);

  // Shared Build prefix: objective, zero-length rows, sink-node lookup and
  // delay rows — everything before the policy-specific Steiner rows.
  // `steiner_reserve` sizes the model's row reservation.
  static Result<EbfFormulation> BuildBase(const EbfProblem& problem,
                                          double scale,
                                          std::size_t steiner_reserve);

  SparseRow MakeSteinerRow(NodeId a, NodeId b, double rhs_lp) const;

  struct Violation {
    NodeId a;
    NodeId b;
    double dist_lp;
    double amount;
  };

  static bool StrongerViolation(const Violation& x, const Violation& y);

  // The two separation search strategies; both append the identical
  // violated-pair set (node-id-normalized, unordered) to `found`. An empty
  // `dirty` span means every pair is in scope; otherwise only pairs with a
  // flagged endpoint are searched.
  void BruteForceViolations(std::span<const double> root_dist, double tol,
                            std::span<const std::uint8_t> dirty,
                            std::vector<Violation>* found) const;
  void OctantViolations(std::span<const double> root_dist, double tol,
                        int jobs, std::span<const std::uint8_t> dirty,
                        std::vector<Violation>* found) const;
  // Branch-and-bound descent under one LCA bucket, screening subtree node
  // pairs with the octant cross bound of `agg` (and, in dirty mode, the
  // dirty-only aggregates `dagg`).
  void EnumerateBucket(NodeId bucket, std::span<const double> root_dist,
                       double tol, std::span<const std::uint8_t> dirty,
                       const OctantSoa& agg, const OctantSoa& dagg,
                       std::vector<Violation>* out) const;
  std::vector<SparseRow> SeparateImpl(
      std::span<const double> x, double tol, int max_rows,
      const SeparationOptions& sep, std::span<const std::uint8_t> dirty,
      std::vector<std::array<std::int32_t, 2>>* pairs_out) const;

  const EbfProblem* problem_;
  EdgeIndexer indexer_;
  PathQuery paths_;
  LpModel model_;
  double scale_;
  int num_steiner_rows_ = 0;
  std::vector<NodeId> sink_nodes_;  // by sink index
  std::vector<NodeId> post_order_;  // cached topo.PostOrder()
  // Flat topology arrays aligned with post_order_ (octant oracle): children
  // node ids (kInvalidNode when absent) and sink index (-1 for internal
  // nodes), prefetched once at Build — a formulation's topology is fixed,
  // so the aggregate sweep and bucket screen stream these contiguously
  // instead of chasing TopoNode structs.
  std::vector<NodeId> flat_left_;
  std::vector<NodeId> flat_right_;
  std::vector<std::int32_t> flat_sink_;
  // Defining sink pair of each initial Steiner row, in model row order.
  std::vector<std::array<std::int32_t, 2>> steiner_pairs_;

  // Scratch reused across FindViolatedSteinerRows calls (once per lazy
  // round). Mutable-under-const is safe for the same reason as
  // LpModel::Compiled(): concurrent solves each own their formulation
  // (runtime contract, DESIGN.md section 10). Parallel bucket enumeration
  // writes only to per-bucket outputs, never to these members.
  mutable std::vector<double> edge_len_scratch_;
  mutable std::vector<double> root_dist_scratch_;
  mutable std::vector<Violation> violation_scratch_;
  mutable OctantSoa octant_soa_scratch_;        // lane-major, per node id
  mutable OctantSoa octant_soa_dirty_scratch_;  // dirty sinks only
  mutable std::vector<NodeId> bucket_scratch_;          // screened LCAs
  mutable std::vector<std::vector<Violation>> bucket_out_scratch_;
  mutable std::vector<NodeId> path_edges_scratch_;      // row building
};

}  // namespace lubt

#endif  // LUBT_EBF_FORMULATION_H_
