#include "layers.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <utility>

#include "cts/metrics.h"
#include "ebf/solver.h"
#include "eco/checkpoint.h"
#include "eco/edit_script.h"
#include "embed/placer.h"
#include "embed/verifier.h"
#include "lp/lazy_row_solver.h"
#include "lp/sparse_chol.h"
#include "serve/checkpoint_codec.h"
#include "topo/nn_merge.h"
#include "topo/validate.h"

namespace perfbench {

using namespace lubt;

namespace {

double MsSince(double t0) { return (NowSeconds() - t0) * 1e3; }

// An added lazy row binds when its activity sits on its lower bound to the
// interior point's accuracy.
bool Binding(const SparseRow& row, std::span<const double> x) {
  return row.Activity(x) - row.lo <= 1e-6 * std::max(1.0, std::abs(row.lo));
}

// SolveOneJob's plain path, one public call per span: NN-merge topology,
// EBF build, the lazy solve with a timed separation oracle, edge lengths,
// embedding and verification. Returns the tree cost (0 when infeasible).
double DecomposedSolve(const ColdNet& net, Tracer* tracer, LayerStats* st,
                       Outcome* out) {
  const EbfSolveOptions opt;
  const int num_sinks = static_cast<int>(net.set.sinks.size());
  Topology topo;
  {
    Tracer::Scope span(tracer, "topo.build");
    topo = NnMergeTopology(net.set.sinks, net.set.source);
    out->Check(ValidateTopology(topo, num_sinks).ok(),
               net.name + ": invalid NN-merge topology");
  }
  EbfProblem problem;
  problem.topo = &topo;
  problem.sinks = net.set.sinks;
  problem.source = net.set.source;
  problem.bounds = WindowBounds(net.set, net.lower, net.upper);

  std::optional<Result<EbfFormulation>> built;
  {
    Tracer::Scope span(tracer, "ebf.formulate");
    built.emplace(EbfFormulation::Build(problem, SteinerRowPolicy::kSeed));
  }
  if (!built->ok()) {
    out->Check(false, net.name + ": " + built->status().ToString());
    return 0.0;
  }
  EbfFormulation& form = built->value();
  const int initial_rows = form.Model().NumRows();

  const SeparationOptions sep{opt.separation, opt.separation_jobs};
  const RowOracle oracle = [&](std::span<const double> x) {
    Tracer::Scope span(tracer, "ebf.separate");
    ++st->separate_calls;
    return form.FindViolatedSteinerRows(x, opt.separation_tol,
                                        opt.max_rows_per_round, sep);
  };
  LazySolveStats lazy;
  LpSolution lp;
  {
    Tracer::Scope span(tracer, "lp.solve");
    lp = SolveWithLazyRows(form.MutableModel(), oracle, opt.lp,
                           opt.max_lazy_rounds, &lazy);
  }
  st->lp_rounds += lazy.rounds;
  st->ipm_iterations += lazy.lp_iterations;
  st->symbolic_reuses += lazy.symbolic_reuses;
  st->regularizations += lazy.regularizations;
  st->rows_added += lazy.rows_added;

  if (!net.feasible) {
    out->Check(lp.status.code() == StatusCode::kInfeasible,
               net.name + ": expected Infeasible, got " +
                   lp.status.ToString());
    return 0.0;
  }
  if (!lp.ok()) {
    out->Check(false, net.name + ": " + lp.status.ToString());
    return 0.0;
  }
  for (int r = initial_rows; r < form.Model().NumRows(); ++r) {
    if (Binding(form.Model().Row(r), lp.x)) ++st->rows_binding;
  }
  const CompiledLpModel& compiled = form.Model().Compiled();
  if (compiled.col.size() > st->probe_model.col.size()) {
    st->probe_model = compiled;
  }

  std::vector<double> edge_len;
  TreeStats tree;
  {
    Tracer::Scope span(tracer, "ebf.extract");
    edge_len = form.EdgeLengths(lp.x);
    tree = ComputeTreeStats(topo, edge_len);
  }
  std::optional<Result<Embedding>> embedding;
  {
    Tracer::Scope span(tracer, "embed.place");
    embedding.emplace(EmbedTree(topo, net.set.sinks, net.set.source,
                                edge_len, PlacementRule::kClosestToParent));
  }
  if (!embedding->ok()) {
    out->Check(false, net.name + ": embed " + embedding->status().ToString());
    return tree.cost;
  }
  {
    Tracer::Scope span(tracer, "embed.verify");
    const VerificationReport report =
        VerifyEmbedding(topo, net.set.sinks, net.set.source, edge_len,
                        embedding->value().location, problem.bounds);
    out->Check(report.ok(),
               net.name + ": traced embedding " + report.status.ToString());
  }
  return tree.cost;
}

}  // namespace

std::vector<BatchJob> ColdJobs(const std::vector<ColdNet>& nets) {
  std::vector<BatchJob> jobs;
  for (const ColdNet& net : nets) {
    BatchJob job;
    job.name = net.name;
    job.set = net.set;
    job.lower = net.lower;
    job.upper = net.upper;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<std::unique_ptr<EcoSession>> ReplayServed(const ServeSpec& spec,
                                                      const ServeRun& run,
                                                      LayerStats* st,
                                                      Outcome* out) {
  std::vector<std::unique_ptr<EcoSession>> sessions;
  for (std::size_t i = 0; i < spec.sessions.size(); ++i) {
    const SinkSet& set = spec.sessions[i];
    const std::string name = "session " + std::to_string(i);
    Topology topo = NnMergeTopology(set.sinks, set.source);
    double t0 = NowSeconds();
    Result<std::unique_ptr<EcoSession>> created = EcoSession::Create(
        set, WindowBounds(set, spec.lower, spec.upper), std::move(topo));
    st->create_ms.push_back(MsSince(t0));
    if (!created.ok() || !(*created)->Last().ok()) {
      out->Check(false, name + ": in-process create failed");
      continue;
    }
    EcoSession& session = **created;
    bool applied_all = true;
    for (const std::string& script : run.scripts[i]) {
      Result<std::vector<EcoEdit>> edits = ParseEditScript(script);
      if (!edits.ok()) {
        applied_all = false;
        break;
      }
      for (EcoEdit& edit : *edits) {
        edit = ScaleEditWindows(edit, session.InitialRadius());
      }
      t0 = NowSeconds();
      Result<std::vector<EcoSolveInfo>> infos = session.ApplyAll(*edits);
      st->apply_ms.push_back(MsSince(t0));
      if (!infos.ok() || !infos->back().ok()) {
        applied_all = false;
        break;
      }
      for (const EcoSolveInfo& info : *infos) {
        switch (info.tier) {
          case EcoTier::kNoOp:
            ++st->tier_noop;
            break;
          case EcoTier::kRhsWarm:
            ++st->tier_rhs_warm;
            break;
          case EcoTier::kStructural:
            ++st->tier_structural;
            break;
          case EcoTier::kColdRebuild:
            ++st->tier_cold_rebuild;
            break;
          case EcoTier::kInitial:
            break;
        }
        if (info.tier != EcoTier::kNoOp) {
          ++st->eco_solves;
          if (info.symbolic_reused) ++st->eco_symbolic_reused;
        }
        st->eco_cold_retries += info.cold_retries;
      }
    }
    out->Check(applied_all, name + ": in-process replay failed");
    const double cost = session.Last().cost;
    if (!run.scripts[i].empty()) {
      out->Check(RelDiff(cost, run.final_cost[i]) <= 1e-9,
                 name + ": served cost " + std::to_string(run.final_cost[i]) +
                     " != in-process replay " + std::to_string(cost));
    }
    const EbfSolveResult cold = ColdReferenceSolve(session);
    const double served = run.scripts[i].empty() ? cost : run.final_cost[i];
    st->served_cost += served;
    st->reference_cost += cold.cost;
    out->Check(cold.ok() && RelDiff(served, cold.cost) <= kObjectiveRelTol,
               name + ": served cost " + std::to_string(served) +
                   " != ColdReferenceSolve " + std::to_string(cold.cost));

    const EcoCheckpoint checkpoint = session.Checkpoint();
    t0 = NowSeconds();
    const std::string text = EncodeCheckpoint(checkpoint);
    st->encode_ms.push_back(MsSince(t0));
    st->checkpoint_bytes.push_back(static_cast<double>(text.size()));
    t0 = NowSeconds();
    Result<EcoCheckpoint> decoded = DecodeCheckpoint(text);
    st->decode_ms.push_back(MsSince(t0));
    if (!decoded.ok()) {
      out->Check(false, name + ": " + decoded.status().ToString());
    } else {
      t0 = NowSeconds();
      Result<std::unique_ptr<EcoSession>> restored =
          EcoSession::Restore(std::move(*decoded));
      st->restore_ms.push_back(MsSince(t0));
      out->Check(restored.ok() && (*restored)->Last().cost == cost,
                 name + ": checkpoint round trip changed the session");
    }
    sessions.push_back(std::move(*created));
  }
  return sessions;
}

void CheckAgainstColdSolve(const EcoSession& session, const Topology& topo,
                           double cost, const std::string& what,
                           Outcome* out) {
  EbfProblem problem = session.Problem();
  problem.topo = &topo;
  const EbfSolveResult cold = SolveEbf(problem, session.Options().solve);
  out->Check(cold.ok() && RelDiff(cost, cold.cost) <= kObjectiveRelTol,
             what + ": search cost " + std::to_string(cost) +
                 " != cold solve on its topology " + std::to_string(cold.cost));
}

std::vector<std::unique_ptr<EcoSession>> CreateSessions(
    const std::vector<ColdNet>& nets, Outcome* out) {
  std::vector<std::unique_ptr<EcoSession>> sessions;
  for (const ColdNet& net : nets) {
    Result<std::unique_ptr<EcoSession>> created = EcoSession::Create(
        net.set, WindowBounds(net.set, net.lower, net.upper),
        NnMergeTopology(net.set.sinks, net.set.source));
    const bool ok = created.ok() && (*created)->Last().ok();
    out->Check(ok, net.name + ": initial solve failed");
    if (ok) sessions.push_back(std::move(*created));
  }
  return sessions;
}

namespace {

// Solve `nets` twice: untraced through SolveBatch (one worker) and as the
// traced decomposition. Checks feasibility classification, embedding
// verification, and that the decomposition reproduces SolveBatch's cost.
void TraceColdSolves(const std::vector<ColdNet>& nets, Tracer* tracer,
                     LayerStats* st, Outcome* out) {
  const std::vector<BatchJob> jobs = ColdJobs(nets);
  // Untraced SolveBatch and the traced decomposition alternate which runs
  // first per net, so neither side alone pays a size's first-solve cost.
  for (std::size_t i = 0; i < nets.size(); ++i) {
    BatchJobResult untraced;
    double traced_cost = 0.0;
    for (int side = 0; side < 2; ++side) {
      const double t0 = NowSeconds();
      if ((side == 0) == (i % 2 == 0)) {
        untraced = SolveBatch(std::span<const BatchJob>(&jobs[i], 1)).results[0];
        st->untraced_wall_s += NowSeconds() - t0;
      } else {
        const double self_before = tracer->TotalSelfSeconds();
        traced_cost = DecomposedSolve(nets[i], tracer, st, out);
        st->traced_wall_s += NowSeconds() - t0;
        st->traced_layer_s += tracer->TotalSelfSeconds() - self_before;
      }
    }
    if (!nets[i].feasible) {
      out->Check(untraced.outcome == JobOutcome::kInfeasible,
                 nets[i].name + ": SolveBatch did not report infeasible");
      continue;
    }
    out->Check(untraced.ok() && RelDiff(traced_cost, untraced.cost) <= 1e-12,
               nets[i].name + ": traced cost " + std::to_string(traced_cost) +
                   " != SolveBatch cost " + std::to_string(untraced.cost));
  }
}

// Anneal `session` and check the best cost against a cold SolveEbf on the
// best topology; then time one EvaluateCandidateTopology on that topology.
void ProbeSearch(EcoSession& session, const TopoSearchOptions& options,
                 LayerStats* st, Outcome* out) {
  const double t0 = NowSeconds();
  Result<TopoSearchResult> searched = TopoOptimizer::Optimize(session, options);
  st->search_s += NowSeconds() - t0;
  if (!searched.ok()) {
    out->Check(false, "search: " + searched.status().ToString());
    return;
  }
  st->search_evaluated += searched->stats.evaluated;
  st->search_accepted += searched->stats.accepted;
  CheckAgainstColdSolve(session, searched->best_topo, searched->best_cost,
                        "search", out);
  const double e0 = NowSeconds();
  const EcoTopoEval eval = session.EvaluateCandidateTopology(searched->best_topo);
  st->eval_ms.push_back(MsSince(e0));
  out->Check(eval.ok() && RelDiff(eval.cost, searched->best_cost) <= kObjectiveRelTol,
             "search: evaluation of the best topology disagrees");
}

// One Analyze, Factor and Solve on the probe model, then every per-layer
// metric; layer times are the spans' self times. Writes the spans to
// trace.json in the working directory.
void EmitLayerMetrics(const LayerStats& st, const Tracer& tracer,
                      Outcome* out) {
  // Factor probe: one call of each phase on the largest final model, timed
  // outside every span. Unit row weights and diagonal keep it well posed.
  SparseNormalFactor factor;
  const CompiledLpModel& model = st.probe_model;
  double t0 = NowSeconds();
  factor.Analyze(model);
  const double analyze_ms = MsSince(t0);
  const std::vector<double> row_weight(static_cast<std::size_t>(model.num_rows), 1.0);
  const std::vector<double> diag(static_cast<std::size_t>(model.num_cols), 1.0);
  t0 = NowSeconds();
  out->Check(factor.Factor(model, row_weight, diag), "factor probe failed");
  const double factor_ms = MsSince(t0);
  std::vector<double> rhs(static_cast<std::size_t>(model.num_cols), 1.0);
  t0 = NowSeconds();
  factor.Solve(rhs);
  const double trisolve_ms = MsSince(t0);
  out->Check(std::all_of(rhs.begin(), rhs.end(),
                         [](double v) { return std::isfinite(v); }),
             "factor probe solve is not finite");

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto count = [](long long n) { return static_cast<double>(n); };
  out->Metric("topo.build_s", tracer.SelfSeconds("topo.build"), "s");
  out->Metric("ebf.formulate_s", tracer.SelfSeconds("ebf.formulate"), "s");
  out->Metric("ebf.separate_s", tracer.SelfSeconds("ebf.separate"), "s");
  out->Metric("ebf.separate_calls", count(st.separate_calls), "count");
  out->Metric("ebf.rows_added", count(st.rows_added), "count");
  out->Metric("ebf.rows_binding_ratio",
              ratio(count(st.rows_binding), count(st.rows_added)), "ratio");
  out->Metric("lp.solve_s", tracer.SelfSeconds("lp.solve"), "s");
  out->Metric("lp.rounds", count(st.lp_rounds), "count");
  out->Metric("lp.ipm_iterations", count(st.ipm_iterations), "count");
  out->Metric("lp.analyses", count(st.lp_rounds - st.symbolic_reuses), "count");
  out->Metric("lp.symbolic_reuse_ratio",
              ratio(count(st.symbolic_reuses), count(st.lp_rounds)), "ratio");
  out->Metric("lp.regularizations", count(st.regularizations), "count");
  out->Metric("lp.nnz", static_cast<double>(model.col.size()), "count");
  out->Metric("lp.pattern_nnz", static_cast<double>(factor.PatternNnz()), "count");
  out->Metric("lp.fill_nnz", static_cast<double>(factor.FillNnz()), "count");
  out->Metric("lp.analyze_ms", analyze_ms, "ms");
  out->Metric("lp.factor_ms", factor_ms, "ms");
  out->Metric("lp.trisolve_ms", trisolve_ms, "ms");
  out->Metric("embed.place_s", tracer.SelfSeconds("embed.place"), "s");
  out->Metric("embed.verify_s", tracer.SelfSeconds("embed.verify"), "s");

  const double apply_p50 = Median(st.apply_ms);
  out->Metric("eco.create_p50_ms", Median(st.create_ms), "ms");
  out->Metric("eco.apply_p50_ms", apply_p50, "ms");
  out->Metric("eco.noop", count(st.tier_noop), "count");
  out->Metric("eco.rhs_warm", count(st.tier_rhs_warm), "count");
  out->Metric("eco.structural", count(st.tier_structural), "count");
  out->Metric("eco.cold_rebuild", count(st.tier_cold_rebuild), "count");
  out->Metric("eco.symbolic_reuse_ratio",
              ratio(count(st.eco_symbolic_reused), count(st.eco_solves)),
              "ratio");
  out->Metric("eco.cold_retries", count(st.eco_cold_retries), "count");

  out->Metric("serve.encode_ms", Median(st.encode_ms), "ms");
  out->Metric("serve.decode_ms", Median(st.decode_ms), "ms");
  out->Metric("serve.restore_ms", Median(st.restore_ms), "ms");
  out->Metric("serve.checkpoint_bytes", Median(st.checkpoint_bytes), "bytes");
  out->Metric("serve.evictions", count(st.evictions), "count");
  out->Metric("serve.restores", count(st.restores), "count");
  out->Metric("serve.rejected", count(st.rejected), "count");
  out->Metric("serve.transport_ms", Median(st.served_edit_ms) - apply_p50, "ms");

  out->Metric("search.evaluated", count(st.search_evaluated), "count");
  out->Metric("search.accepted", count(st.search_accepted), "count");
  out->Metric("search.accept_ratio",
              ratio(count(st.search_accepted), count(st.search_evaluated)),
              "ratio");
  out->Metric("search.s_per_eval",
              ratio(st.search_s, count(st.search_evaluated)), "s");
  out->Metric("search.eval_ms", Median(st.eval_ms), "ms");

  out->Metric("trace_coverage", ratio(st.traced_layer_s, st.traced_wall_s),
              "ratio");
  out->Metric("trace_overhead_s", st.traced_wall_s - st.untraced_wall_s, "s");

  // The spans themselves, for chrome://tracing or Perfetto; run.py keeps
  // them under .bench_build/traces/.
  std::ofstream("trace.json") << tracer.ChromeTraceJson();
}

}  // namespace

void RunLayerSuite(const std::vector<ColdNet>& nets, const ServeSpec& spec,
                   const std::vector<ColdNet>& search_nets,
                   const TopoSearchOptions& search, Outcome* out) {
  Tracer tracer;
  LayerStats stats;
  TraceColdSolves(nets, &tracer, &stats, out);
  out->Check(stats.traced_layer_s >= 0.95 * stats.traced_wall_s,
             "trace coverage below 0.95");
  const ServeRun run = RunServeLoop(spec, out);
  stats.served_edit_ms = run.edit_ms;
  stats.evictions = run.evictions;
  stats.restores = run.restores;
  stats.rejected = run.rejected;
  ReplayServed(spec, run, &stats, out);
  for (const std::unique_ptr<EcoSession>& session :
       CreateSessions(search_nets, out)) {
    ProbeSearch(*session, search, &stats, out);
  }
  EmitLayerMetrics(stats, tracer, out);
}

}  // namespace perfbench
