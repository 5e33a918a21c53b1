#include "search/topo_optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "runtime/thread_pool.h"
#include "search/exact_dp.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace lubt {
namespace {

// Re-heats after the schedule plateaus: each restarts from the best-so-far
// topology at the initial temperature. All restarts share max_rounds, and
// randomness continues on the same seeded stream, so restarts preserve the
// determinism contract.
constexpr int kRestarts = 2;
// P(a proposal endpoint is drawn from the dual weights, not uniformly).
constexpr double kDualBias = 0.75;

int ResolveJobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Dual-guided sink sampler. The weight of sink s is the total dual mass its
// rows carry at the current optimum: its delay-window duals plus half the
// dual of every Steiner pool row it defines — exactly the rate at which the
// LP objective moves when the constraints anchored at s are relaxed. Draws
// are by inverse-CDF over the prefix sums, falling back to uniform when the
// report is invalid or the mass is all zero.
class SinkSampler {
 public:
  void Rebuild(const EcoDualReport& report, int num_sinks) {
    num_sinks_ = num_sinks;
    weight_.assign(static_cast<std::size_t>(num_sinks), 0.0);
    prefix_.assign(static_cast<std::size_t>(num_sinks), 0.0);
    total_ = 0.0;
    if (!report.valid ||
        report.sinks.size() != static_cast<std::size_t>(num_sinks)) {
      return;
    }
    for (int s = 0; s < num_sinks; ++s) {
      const auto& d = report.sinks[static_cast<std::size_t>(s)];
      weight_[static_cast<std::size_t>(s)] = d.lo_dual - d.hi_dual;
    }
    for (const auto& row : report.steiner) {
      weight_[static_cast<std::size_t>(row.pair[0])] += 0.5 * row.dual;
      weight_[static_cast<std::size_t>(row.pair[1])] += 0.5 * row.dual;
    }
    for (int s = 0; s < num_sinks; ++s) {
      total_ += std::max(weight_[static_cast<std::size_t>(s)], 0.0);
      prefix_[static_cast<std::size_t>(s)] = total_;
    }
  }

  /// One sink index. Consumes exactly one or two RNG draws, independent of
  /// the report's content, on a deterministic schedule.
  int Draw(Rng& rng) const {
    const bool guided = rng.Uniform() < kDualBias && total_ > 0.0;
    if (!guided) {
      return static_cast<int>(
          rng.UniformInt(static_cast<std::uint64_t>(num_sinks_)));
    }
    const double u = rng.Uniform() * total_;
    const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), u);
    const int s = static_cast<int>(it - prefix_.begin());
    return std::min(s, num_sinks_ - 1);
  }

 private:
  int num_sinks_ = 0;
  double total_ = 0.0;
  std::vector<double> weight_;
  std::vector<double> prefix_;
};

// Per-sink geometric neighbor table: the k nearest other sinks by Manhattan
// distance. Built once per Optimize (sink positions never change during the
// search) in O(m^2 + m k log m). Re-attach and swap targets drawn from a
// sink's neighborhood are overwhelmingly more likely to shorten wire than
// independent draws — at a few hundred sinks an unrelated pair is almost
// always far apart, so unguided proposals waste the whole evaluation budget.
std::vector<std::vector<int>> BuildNeighborTable(
    const std::vector<Point>& sinks, int k) {
  const int m = static_cast<int>(sinks.size());
  std::vector<std::vector<int>> knn(static_cast<std::size_t>(m));
  if (m < 2) return knn;
  const int kept = std::min(k, m - 1);
  std::vector<int> order(static_cast<std::size_t>(m - 1));
  for (int s = 0; s < m; ++s) {
    int w = 0;
    for (int t = 0; t < m; ++t) {
      if (t != s) order[static_cast<std::size_t>(w++)] = t;
    }
    std::partial_sort(order.begin(), order.begin() + kept, order.end(),
                      [&](int a, int b) {
                        const double da = ManhattanDist(
                            sinks[static_cast<std::size_t>(s)],
                            sinks[static_cast<std::size_t>(a)]);
                        const double db = ManhattanDist(
                            sinks[static_cast<std::size_t>(s)],
                            sinks[static_cast<std::size_t>(b)]);
                        if (da != db) return da < db;
                        return a < b;  // distance ties break by index
                      });
    knn[static_cast<std::size_t>(s)].assign(order.begin(),
                                            order.begin() + kept);
  }
  return knn;
}

// Walk up to `levels` ancestors, stopping below the root (nodes at or above
// the root are never legal move endpoints).
NodeId Climb(const Topology& topo, NodeId v, int levels) {
  for (int i = 0; i < levels; ++i) {
    const NodeId p = topo.Node(v).parent;
    if (p == kInvalidNode || p == topo.Root()) break;
    v = p;
  }
  return v;
}

// The sink paired with `s` in a two-endpoint move: usually one of s's
// geometric nearest neighbors (those are the pairings that can shorten
// wire), occasionally an independent dual/uniform draw for ergodicity.
int DrawPartnerSink(int s, const std::vector<std::vector<int>>& knn,
                    const SinkSampler& sampler, Rng& rng) {
  const auto& nb = knn[static_cast<std::size_t>(s)];
  const bool local = rng.Uniform() < 0.85 && !nb.empty();
  if (local) {
    return nb[rng.UniformInt(static_cast<std::uint64_t>(nb.size()))];
  }
  return sampler.Draw(rng);
}

// Draw one move. Kind mix: 60% re-attaches (the workhorse), 20% swaps, 20%
// split/collapses. The first endpoint starts at a dual-sampled sink; the
// second at one of its geometric nearest neighbors; both climb 0-2 levels so
// whole clusters move, not just leaves. Validity is *not* checked here —
// RewireMove is the single authority; invalid draws cost one rejected
// kernel call.
TopoMove ProposeMove(const Topology& topo, const std::vector<NodeId>& leaf_of,
                     const std::vector<std::vector<int>>& knn,
                     const SinkSampler& sampler, Rng& rng) {
  TopoMove move;
  const double roll = rng.Uniform();
  if (roll < 0.8) {
    move.kind = roll < 0.6 ? MoveKind::kReattach : MoveKind::kSwap;
    const int s = sampler.Draw(rng);
    const int t = DrawPartnerSink(s, knn, sampler, rng);
    move.a = Climb(topo, leaf_of[static_cast<std::size_t>(s)],
                   rng.UniformInt(0, 2));
    move.b = Climb(topo, leaf_of[static_cast<std::size_t>(t)],
                   rng.UniformInt(0, 2));
  } else {
    move.kind = MoveKind::kSplitCollapse;
    const NodeId leaf =
        leaf_of[static_cast<std::size_t>(sampler.Draw(rng))];
    NodeId b = leaf;
    NodeId a = topo.Node(leaf).parent;
    if (rng.Bernoulli(0.5) && a != kInvalidNode) {
      const NodeId g = topo.Node(a).parent;
      if (g != kInvalidNode && g != topo.Root()) {
        b = a;
        a = g;
      }
    }
    move.a = a;
    move.b = b;
  }
  return move;
}

// One speculative candidate slot.
struct Candidate {
  TopoMove move;
  Topology topo;
  std::vector<double> warm;
  bool valid = false;
  EcoTopoEval eval;
};

}  // namespace

Result<TopoSearchResult> TopoOptimizer::Optimize(
    EcoSession& session, const TopoSearchOptions& options) {
  if (options.max_rounds < 0 || options.candidates_per_round < 1 ||
      options.moves_per_candidate < 0 || options.jobs < 0 ||
      options.plateau_rounds < 1 ||
      !(options.cooling > 0.0 && options.cooling <= 1.0) ||
      !(options.initial_temp >= 0.0)) {
    return Status::InvalidArgument("topo-search: malformed options");
  }
  if (!session.Feasible() || !session.Last().ok()) {
    return Status::Infeasible(
        "topo-search: session holds no feasible solution to start from");
  }

  Timer timer;
  TopoSearchResult out;
  out.initial_cost = session.Last().cost;
  out.best_cost = out.initial_cost;
  out.best_stats = session.Last().stats;
  out.best_topo = session.Topo();
  out.best_edge_len.assign(session.EdgeLengths().begin(),
                           session.EdgeLengths().end());

  const int m = session.NumSinks();
  if (m < 3) {
    // Two sinks (or one, fixed-source) admit a single topology shape up to
    // canonical renaming — there is nothing to search.
    out.stats.seconds = timer.Seconds();
    return out;
  }

  const int jobs = ResolveJobs(options.jobs);
  const int slots = options.candidates_per_round;
  // Auto chain length: one move per candidate up to ~128 sinks, two above.
  // Longer chains amortize the evaluation but compound the risk that one
  // bad link sinks the whole candidate — measured on random instances at
  // 256 and 1024 sinks, two links beat both one (half the per-move eval
  // cost) and four+ (acceptance collapses).
  const int chain = options.moves_per_candidate > 0
                        ? options.moves_per_candidate
                        : std::max(1, std::min(2, m / 128));
  const bool oracle = options.exact_oracle && m <= kExactOracleMaxSinks;
  Rng rng(options.seed);
  SinkSampler sampler;
  const std::vector<std::vector<int>> knn =
      BuildNeighborTable(session.Set().sinks, 8);
  MoveScratch scratch;
  std::vector<NodeId> leaf_of(static_cast<std::size_t>(m), kInvalidNode);
  std::vector<NodeId> leaf_of_c(static_cast<std::size_t>(m), kInvalidNode);
  std::vector<double> base_len;
  std::vector<Candidate> cands(static_cast<std::size_t>(slots));
  Topology next_topo;
  std::vector<double> next_warm;

  double current = out.initial_cost;
  double temp = options.initial_temp * std::max(current, 1e-12);
  int plateau = 0;
  int round = 0;

  for (int restart = 0; restart <= kRestarts; ++restart) {
  if (restart > 0) {
    // Re-heat: climb back onto the best-so-far state and restart the
    // schedule there. The RNG stream continues, so the whole multi-restart
    // run stays a function of (seed, jobs-invariant data) alone.
    if (current > out.best_cost + 1e-12 * std::max(1.0, out.best_cost)) {
      Topology best_copy = out.best_topo;
      auto commit = session.ApplyTopologyReplace(std::move(best_copy),
                                                 &out.best_edge_len);
      if (!commit.ok()) return commit.status();
      if (!commit->ok() || !session.Feasible()) {
        return Status::Internal(
            "topo-search: re-heat restore of the best topology failed: " +
            commit->status.ToString());
      }
      current = commit->cost;
    }
    temp = options.initial_temp * std::max(out.best_cost, 1e-12);
    plateau = 0;
  }
  for (; round < options.max_rounds; ++round) {
    ++out.stats.rounds;

    const Topology& topo = session.Topo();
    const NodeId n = topo.NumNodes();
    scratch.Prepare(n + chain);  // each chained split can add one node
    std::fill(leaf_of.begin(), leaf_of.end(), kInvalidNode);
    for (NodeId v = 0; v < n; ++v) {
      const std::int32_t s = topo.Node(v).sink;
      if (s >= 0) leaf_of[static_cast<std::size_t>(s)] = v;
    }
    sampler.Rebuild(session.DualReport(), m);
    base_len.assign(session.EdgeLengths().begin(), session.EdgeLengths().end());

    // Phase 1 (sequential): draw up to 8 proposals per slot until one
    // rewires cleanly, materialize it with warm lengths mapped through the
    // renaming, then extend it with up to `chain - 1` further moves so one
    // evaluation prices a whole batch of rewires. All randomness for the
    // round's candidates is consumed here, on worker-count-invariant state.
    for (int k = 0; k < slots; ++k) {
      Candidate& cand = cands[static_cast<std::size_t>(k)];
      cand.valid = false;
      for (int attempt = 0; attempt < 8 && !cand.valid; ++attempt) {
        ++out.stats.proposed;
        cand.move = ProposeMove(topo, leaf_of, knn, sampler, rng);
        cand.valid = ApplyMove(topo, cand.move, &scratch, &cand.topo,
                               &base_len, &cand.warm);
      }
      for (int step = 1; cand.valid && step < chain; ++step) {
        // Later links rewire the candidate itself, so its leaf map (the
        // materializer renames every node) is rebuilt per link.
        const NodeId nc = cand.topo.NumNodes();
        std::fill(leaf_of_c.begin(), leaf_of_c.end(), kInvalidNode);
        for (NodeId v = 0; v < nc; ++v) {
          const std::int32_t s = cand.topo.Node(v).sink;
          if (s >= 0) leaf_of_c[static_cast<std::size_t>(s)] = v;
        }
        bool extended = false;
        for (int attempt = 0; attempt < 8 && !extended; ++attempt) {
          ++out.stats.proposed;
          const TopoMove link =
              ProposeMove(cand.topo, leaf_of_c, knn, sampler, rng);
          extended = ApplyMove(cand.topo, link, &scratch, &next_topo,
                               &cand.warm, &next_warm);
        }
        if (extended) {
          cand.topo = std::move(next_topo);
          cand.warm = std::move(next_warm);
        }
      }
      if (cand.valid) ++out.stats.evaluated;
    }

    // Phase 2 (parallel, speculative): score every candidate by a warm
    // structural re-solve. Evaluations are const on the session and consume
    // no randomness.
    ParallelFor(slots, jobs, [&](int k) {
      Candidate& cand = cands[static_cast<std::size_t>(k)];
      if (cand.valid) {
        cand.eval = session.EvaluateCandidateTopology(cand.topo, &cand.warm);
      }
    });

    // Phase 3 (sequential): steepest descent when any candidate improves
    // (or ties); otherwise a Metropolis scan over the uphill candidates in
    // proposal order, first acceptance wins. Acceptance draws are consumed
    // only on the all-uphill path, on deltas that are themselves
    // jobs-invariant, so the RNG stream stays identical across worker
    // counts.
    int chosen = -1;
    double chosen_delta = 0.0;
    for (int k = 0; k < slots; ++k) {
      const Candidate& cand = cands[static_cast<std::size_t>(k)];
      if (!cand.valid || !cand.eval.ok()) continue;
      const double delta = cand.eval.cost - current;
      if (delta <= 0.0 && (chosen < 0 || delta < chosen_delta)) {
        chosen = k;
        chosen_delta = delta;
      }
    }
    if (chosen < 0 && temp > 0.0) {
      for (int k = 0; k < slots; ++k) {
        const Candidate& cand = cands[static_cast<std::size_t>(k)];
        if (!cand.valid || !cand.eval.ok()) continue;
        const double delta = cand.eval.cost - current;
        if (rng.Uniform() < std::exp(-delta / temp)) {
          chosen = k;
          chosen_delta = delta;
          break;
        }
      }
    }

    if (chosen >= 0) {
      Candidate& cand = cands[static_cast<std::size_t>(chosen)];
      auto commit = session.ApplyTopologyReplace(std::move(cand.topo),
                                                 &cand.eval.edge_len);
      if (!commit.ok()) return commit.status();
      if (!commit->ok() || !session.Feasible()) {
        // The evaluation proved this candidate feasible; a failed commit is
        // an invariant violation, not a search outcome.
        return Status::Internal(
            "topo-search: commit of an evaluated-feasible candidate failed: " +
            commit->status.ToString());
      }
      current = commit->cost;
      ++out.stats.accepted;
      if (chosen_delta > 0.0) ++out.stats.uphill_accepted;
      switch (cand.move.kind) {
        case MoveKind::kReattach:
          ++out.stats.accepted_reattach;
          break;
        case MoveKind::kSwap:
          ++out.stats.accepted_swap;
          break;
        case MoveKind::kSplitCollapse:
          ++out.stats.accepted_split;
          break;
      }
      if (oracle) {
        ++out.stats.oracle_checks;
        const ExactScore score =
            ExactTopologyScore(session.Topo(), session.Set().sinks,
                               session.Set().source, session.Bounds());
        const bool agree =
            score.ok() && score.dp_certified &&
            std::abs(current - score.cost) <=
                0.01 * std::max(score.cost, 1e-12);
        if (!agree) {
          ++out.stats.oracle_mismatches;
          LUBT_LOG_INFO << "topo-search: oracle mismatch at round " << round
                        << ": committed " << current << " vs exact "
                        << score.cost << " (" << score.status << ")";
        }
      }
      const double tol = 1e-12 * std::max(1.0, out.best_cost);
      if (current < out.best_cost - tol) {
        out.best_cost = current;
        out.best_stats = commit->stats;
        out.best_topo = session.Topo();
        out.best_edge_len.assign(session.EdgeLengths().begin(),
                                 session.EdgeLengths().end());
        plateau = 0;
      } else {
        ++plateau;
      }
    } else {
      ++plateau;
    }

    if (plateau >= options.plateau_rounds) {
      ++round;
      break;
    }
    temp *= options.cooling;
  }
  if (round >= options.max_rounds) break;
  }

  // Best-so-far restore: leave the session solved on the best topology when
  // the walk ended uphill of it.
  if (current > out.best_cost + 1e-12 * std::max(1.0, out.best_cost)) {
    Topology best_copy = out.best_topo;
    auto commit =
        session.ApplyTopologyReplace(std::move(best_copy), &out.best_edge_len);
    if (!commit.ok()) return commit.status();
    if (!commit->ok() || !session.Feasible()) {
      return Status::Internal(
          "topo-search: restore of the best-so-far topology failed: " +
          commit->status.ToString());
    }
    out.best_cost = commit->cost;
    out.best_stats = commit->stats;
    out.stats.restored_best = true;
  }

  out.stats.seconds = timer.Seconds();
  LUBT_LOG_DEBUG << "topo-search: " << out.stats.rounds << " rounds, "
                 << out.stats.accepted << "/" << out.stats.evaluated
                 << " accepted (" << out.stats.uphill_accepted
                 << " uphill), cost " << out.initial_cost << " -> "
                 << out.best_cost;
  return out;
}

Result<TopoSearchResult> TopoOptimizer::Optimize(
    SinkSet set, std::vector<DelayBounds> bounds, Topology initial,
    const TopoSearchOptions& options) {
  auto created = EcoSession::Create(std::move(set), std::move(bounds),
                                    std::move(initial), options.eco);
  if (!created.ok()) return created.status();
  EcoSession& session = **created;
  if (!session.Last().ok()) return session.Last().status;
  return Optimize(session, options);
}

}  // namespace lubt
