// LP solver tests: simplex and interior-point engines, cross-checked
// against each other and against hand-solved problems; lazy rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "lp/interior_point.h"
#include "lp/lazy_row_solver.h"
#include "lp/model.h"
#include "lp/sparse_chol.h"
#include "util/rng.h"

namespace lubt {
namespace {

LpSolverOptions Simplex() {
  LpSolverOptions o;
  o.engine = LpEngine::kSimplex;
  return o;
}

LpSolverOptions Ipm() {
  LpSolverOptions o;
  o.engine = LpEngine::kInteriorPoint;
  return o;
}

void AddGe(LpModel& m, std::vector<std::int32_t> idx, std::vector<double> val,
           double rhs) {
  m.AddRow(idx, val, rhs, kLpInf);
}

// min x+y st x+y >= 2, x >= 0.5 -> objective 2.
LpModel TinyModel() {
  LpModel m(2);
  m.SetObjective(0, 1.0);
  m.SetObjective(1, 1.0);
  AddGe(m, {0, 1}, {1.0, 1.0}, 2.0);
  AddGe(m, {0}, {1.0}, 0.5);
  return m;
}

class LpEngineTest : public ::testing::TestWithParam<LpEngine> {
 protected:
  LpSolverOptions Options() const {
    LpSolverOptions o;
    o.engine = GetParam();
    return o;
  }
};

TEST_P(LpEngineTest, TinyProblem) {
  LpModel m = TinyModel();
  const LpSolution s = SolveLp(m, Options());
  ASSERT_TRUE(s.ok()) << s.status;
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
  EXPECT_LE(m.MaxInfeasibility(s.x), 1e-6);
}

TEST_P(LpEngineTest, ClassicTextbookMax) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  (min of negative).
  // Optimum: x=2, y=6, obj=36.
  LpModel m(2);
  m.SetObjective(0, -3.0);
  m.SetObjective(1, -5.0);
  m.AddRow(std::vector<std::int32_t>{0}, std::vector<double>{1.0}, -kLpInf,
           4.0);
  m.AddRow(std::vector<std::int32_t>{1}, std::vector<double>{2.0}, -kLpInf,
           12.0);
  m.AddRow(std::vector<std::int32_t>{0, 1}, std::vector<double>{3.0, 2.0},
           -kLpInf, 18.0);
  const LpSolution s = SolveLp(m, Options());
  ASSERT_TRUE(s.ok()) << s.status;
  EXPECT_NEAR(s.objective, -36.0, 1e-6);
  EXPECT_NEAR(s.x[0], 2.0, 1e-5);
  EXPECT_NEAR(s.x[1], 6.0, 1e-5);
}

TEST_P(LpEngineTest, RangedRow) {
  // min x st 3 <= x + y <= 5, y <= 1 (as -y >= -1 via range).
  LpModel m(2);
  m.SetObjective(0, 1.0);
  m.AddRow(std::vector<std::int32_t>{0, 1}, std::vector<double>{1.0, 1.0}, 3.0,
           5.0);
  m.AddRow(std::vector<std::int32_t>{1}, std::vector<double>{1.0}, -kLpInf,
           1.0);
  const LpSolution s = SolveLp(m, Options());
  ASSERT_TRUE(s.ok()) << s.status;
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
}

TEST_P(LpEngineTest, EqualityRow) {
  // min x + 2y st x + y = 4, x - y <= 0 -> x = y = 2, obj 6.
  LpModel m(2);
  m.SetObjective(0, 1.0);
  m.SetObjective(1, 2.0);
  m.AddRow(std::vector<std::int32_t>{0, 1}, std::vector<double>{1.0, 1.0}, 4.0,
           4.0);
  m.AddRow(std::vector<std::int32_t>{0, 1}, std::vector<double>{1.0, -1.0},
           -kLpInf, 0.0);
  const LpSolution s = SolveLp(m, Options());
  ASSERT_TRUE(s.ok()) << s.status;
  EXPECT_NEAR(s.objective, 6.0, 1e-5);
}

TEST_P(LpEngineTest, InfeasibleDetected) {
  // x >= 3 and x <= 1.
  LpModel m(1);
  m.SetObjective(0, 1.0);
  m.AddRow(std::vector<std::int32_t>{0}, std::vector<double>{1.0}, 3.0,
           kLpInf);
  m.AddRow(std::vector<std::int32_t>{0}, std::vector<double>{1.0}, -kLpInf,
           1.0);
  const LpSolution s = SolveLp(m, Options());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status.code(), StatusCode::kInfeasible) << s.status;
}

TEST_P(LpEngineTest, UnboundedDetected) {
  // min -x st x >= 1 : unbounded below.
  LpModel m(1);
  m.SetObjective(0, -1.0);
  m.AddRow(std::vector<std::int32_t>{0}, std::vector<double>{1.0}, 1.0,
           kLpInf);
  const LpSolution s = SolveLp(m, Options());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status.code(), StatusCode::kUnbounded) << s.status;
}

TEST_P(LpEngineTest, DegenerateProblem) {
  // Multiple redundant constraints through the optimum.
  LpModel m(2);
  m.SetObjective(0, 1.0);
  m.SetObjective(1, 1.0);
  AddGe(m, {0, 1}, {1.0, 1.0}, 2.0);
  AddGe(m, {0, 1}, {2.0, 2.0}, 4.0);
  AddGe(m, {0, 1}, {1.0, 1.0}, 1.0);
  AddGe(m, {0}, {1.0}, 1.0);
  AddGe(m, {1}, {1.0}, 1.0);
  const LpSolution s = SolveLp(m, Options());
  ASSERT_TRUE(s.ok()) << s.status;
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
}

TEST_P(LpEngineTest, ZeroObjectiveFeasibility) {
  // Pure feasibility question.
  LpModel m(2);
  AddGe(m, {0, 1}, {1.0, 2.0}, 3.0);
  const LpSolution s = SolveLp(m, Options());
  ASSERT_TRUE(s.ok()) << s.status;
  EXPECT_LE(m.MaxInfeasibility(s.x), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Engines, LpEngineTest,
                         ::testing::Values(LpEngine::kSimplex,
                                           LpEngine::kInteriorPoint),
                         [](const auto& info) {
                           return std::string(LpEngineName(info.param)) ==
                                          "simplex"
                                      ? "Simplex"
                                      : "InteriorPoint";
                         });

// ---- Cross-validation on random feasible problems ------------------------

class LpCrossCheckTest : public ::testing::TestWithParam<int> {};

TEST_P(LpCrossCheckTest, SimplexAndIpmAgree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  const int n = 3 + static_cast<int>(rng.UniformInt(6));
  const int rows = 4 + static_cast<int>(rng.UniformInt(8));
  LpModel m(n);
  for (int c = 0; c < n; ++c) m.SetObjective(c, rng.Uniform(0.2, 3.0));
  // Feasible by construction: rows a'x >= a'x0 * f with f <= 1, x0 > 0.
  std::vector<double> x0(static_cast<std::size_t>(n));
  for (double& v : x0) v = rng.Uniform(0.5, 2.0);
  for (int r = 0; r < rows; ++r) {
    std::vector<std::int32_t> idx;
    std::vector<double> val;
    double act = 0.0;
    for (int c = 0; c < n; ++c) {
      if (rng.Bernoulli(0.6)) {
        idx.push_back(c);
        const double a = rng.Uniform(0.1, 2.0);
        val.push_back(a);
        act += a * x0[static_cast<std::size_t>(c)];
      }
    }
    if (idx.empty()) continue;
    m.AddRow(idx, val, act * rng.Uniform(0.3, 1.0), kLpInf);
  }
  const LpSolution a = SolveLp(m, Simplex());
  const LpSolution b = SolveLp(m, Ipm());
  ASSERT_TRUE(a.ok()) << a.status;
  ASSERT_TRUE(b.ok()) << b.status;
  EXPECT_NEAR(a.objective, b.objective,
              1e-5 * (1.0 + std::abs(a.objective)));
  EXPECT_LE(m.MaxInfeasibility(a.x), 1e-6);
  EXPECT_LE(m.MaxInfeasibility(b.x), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpCrossCheckTest, ::testing::Range(1, 26));

// ---- Lazy row generation ----------------------------------------------------

TEST(LazyRowTest, ConvergesToFullModelOptimum) {
  // Full problem: x_i + x_j >= d_ij for all pairs of 4 variables; start with
  // no Steiner-like rows and let the oracle add them.
  const double d[4][4] = {{0, 3, 4, 5}, {3, 0, 2, 6}, {4, 2, 0, 1},
                          {5, 6, 1, 0}};
  LpModel full(4);
  LpModel lazy(4);
  for (int c = 0; c < 4; ++c) {
    full.SetObjective(c, 1.0);
    lazy.SetObjective(c, 1.0);
  }
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      full.AddRow(std::vector<std::int32_t>{i, j},
                  std::vector<double>{1.0, 1.0}, d[i][j], kLpInf);
    }
  }
  const LpSolution ref = SolveLp(full, Simplex());
  ASSERT_TRUE(ref.ok());

  const RowOracle oracle = [&](std::span<const double> x) {
    std::vector<SparseRow> out;
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        if (x[static_cast<std::size_t>(i)] + x[static_cast<std::size_t>(j)] <
            d[i][j] - 1e-9) {
          SparseRow row;
          row.index = {i, j};
          row.value = {1.0, 1.0};
          row.lo = d[i][j];
          out.push_back(std::move(row));
        }
      }
    }
    return out;
  };
  LazySolveStats stats;
  const LpSolution s = SolveWithLazyRows(lazy, oracle, Simplex(), 20, &stats);
  ASSERT_TRUE(s.ok()) << s.status;
  EXPECT_NEAR(s.objective, ref.objective, 1e-7);
  EXPECT_GE(stats.rounds, 2);
  EXPECT_LE(full.MaxInfeasibility(s.x), 1e-7);
}

TEST(LazyRowTest, EmptyOracleIsOneShot) {
  LpModel m = TinyModel();
  const RowOracle oracle = [](std::span<const double>) {
    return std::vector<SparseRow>{};
  };
  LazySolveStats stats;
  const LpSolution s = SolveWithLazyRows(m, oracle, Simplex(), 20, &stats);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(stats.rounds, 1);
  EXPECT_EQ(stats.rows_added, 0);
}

// ---- Sparse normal equations & warm starts ---------------------------------

// Sparse feasible model: every row touches a short contiguous column window
// (band structure, like EBF path rows), feasible around x0 > 0.
LpModel RandomBandedModel(Rng& rng, int n, int rows) {
  LpModel m(n);
  for (int c = 0; c < n; ++c) m.SetObjective(c, rng.Uniform(0.2, 2.0));
  std::vector<double> x0(static_cast<std::size_t>(n));
  for (double& v : x0) v = rng.Uniform(0.5, 2.0);
  for (int r = 0; r < rows; ++r) {
    const int width = 2 + static_cast<int>(rng.UniformInt(5));
    const int start = static_cast<int>(rng.UniformInt(
        static_cast<std::uint64_t>(n - width)));
    std::vector<std::int32_t> idx;
    std::vector<double> val;
    double act = 0.0;
    for (int c = start; c < start + width; ++c) {
      idx.push_back(c);
      const double a = rng.Uniform(0.2, 1.5);
      val.push_back(a);
      act += a * x0[static_cast<std::size_t>(c)];
    }
    m.AddRow(idx, val, act * rng.Uniform(0.3, 0.95), kLpInf);
  }
  return m;
}

// The interior point factors its normal equations sparse on every model;
// the dense-tableau simplex is the independent oracle it must match.
class SparseNormalTest : public ::testing::TestWithParam<int> {};

void ExpectIpmMatchesSimplex(const LpModel& m) {
  const LpSolution ipm = SolveLp(m, Ipm());
  const LpSolution simplex = SolveLp(m, Simplex());
  ASSERT_TRUE(ipm.ok()) << ipm.status;
  ASSERT_TRUE(simplex.ok()) << simplex.status;
  EXPECT_NEAR(ipm.objective, simplex.objective,
              1e-6 * (1.0 + std::abs(simplex.objective)));
  EXPECT_LE(m.MaxInfeasibility(ipm.x), 1e-6);
  EXPECT_LE(m.MaxInfeasibility(simplex.x), 1e-6);
}

TEST_P(SparseNormalTest, SparseMatchesDenseOnBandedModels) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  const int n = 64 + static_cast<int>(rng.UniformInt(64));
  ExpectIpmMatchesSimplex(RandomBandedModel(rng, n, 3 * n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseNormalTest, ::testing::Range(1, 9));

TEST(SparseNormalTest, TinyModelsMatchSimplex) {
  // The smallest shapes the sparse factor sees: 2 columns, and 1 column
  // with a ranged row.
  ExpectIpmMatchesSimplex(TinyModel());
  LpModel one(1);
  one.SetObjective(0, 2.0);
  one.AddRow(std::vector<std::int32_t>{0}, std::vector<double>{1.0}, 1.5,
             4.0);
  ExpectIpmMatchesSimplex(one);
  EXPECT_NEAR(SolveLp(one, Ipm()).objective, 3.0, 1e-6);
}

TEST(WarmStartTest, WarmResolveMatchesColdAndSavesIterations) {
  Rng rng(23);
  LpModel m = RandomBandedModel(rng, 96, 300);
  const LpSolution cold = SolveLp(m, Ipm());
  ASSERT_TRUE(cold.ok()) << cold.status;
  ASSERT_EQ(cold.ge_dual.size(), m.Compiled().rhs.size());

  LpWarmStart warm;
  warm.x = cold.x;
  warm.ge_dual = cold.ge_dual;
  LpSolverOptions o = Ipm();
  o.warm_start = &warm;
  const LpSolution hot = SolveLp(m, o);
  ASSERT_TRUE(hot.ok()) << hot.status;
  EXPECT_TRUE(hot.warm_started);
  EXPECT_NEAR(hot.objective, cold.objective,
              1e-6 * (1.0 + std::abs(cold.objective)));
  EXPECT_LT(hot.iterations, cold.iterations);
}

TEST(WarmStartTest, SizeMismatchedWarmStartIsIgnored) {
  LpModel m = TinyModel();
  LpWarmStart warm;
  warm.x = {1.0};  // wrong size: model has 2 columns
  LpSolverOptions o = Ipm();
  o.warm_start = &warm;
  const LpSolution s = SolveLp(m, o);
  ASSERT_TRUE(s.ok()) << s.status;
  EXPECT_FALSE(s.warm_started);
  EXPECT_NEAR(s.objective, 2.0, 1e-6);
}

TEST(SymbolicReuseTest, SameRowsReuseTheAnalysisAppendsReanalyze) {
  Rng rng(31);
  LpModel m = RandomBandedModel(rng, 80, 240);
  IpmContext ctx;
  LpSolverOptions o = Ipm();
  o.ipm_context = &ctx;
  const LpSolution first = SolveLp(m, o);
  ASSERT_TRUE(first.ok()) << first.status;
  EXPECT_FALSE(first.symbolic_reused);
  EXPECT_EQ(ctx.analyses, 1);

  // New bounds on the same rows: the symbolic analysis must survive.
  const SparseRow& row0 = m.Row(0);
  m.SetRowBounds(0, 0.5 * row0.lo, row0.hi);
  const LpSolution second = SolveLp(m, o);
  ASSERT_TRUE(second.ok()) << second.status;
  EXPECT_TRUE(second.symbolic_reused);
  EXPECT_EQ(ctx.analyses, 1);
  EXPECT_EQ(ctx.symbolic_reuses, 1);

  // Any appended row, even a redundant copy inside the pattern, changes the
  // rows: the engine re-analyzes and reaches the same optimum.
  SparseRow dup = m.Row(3);
  dup.lo *= 0.5;
  m.AddRow(std::move(dup));
  const LpSolution third = SolveLp(m, o);
  ASSERT_TRUE(third.ok()) << third.status;
  EXPECT_FALSE(third.symbolic_reused);
  EXPECT_EQ(ctx.analyses, 2);
  EXPECT_NEAR(third.objective, second.objective,
              1e-6 * (1.0 + std::abs(second.objective)));
}

// ---- Supernodal numeric kernel ---------------------------------------------
//
// Both numeric kernels (IpmFactorMode) run on one shared symbolic analysis.
// These tests pin the contract the interior-point engine relies on: the
// supernodal kernel solves the same normal equations as the simplicial
// oracle on random instances, stays equivalent across repeated
// refactorizations with changed scalings (the warm Newton loop) and across
// pattern-preserving row appends, and reuses its factor scratch without
// carrying state from one refactorization into the next.

void RandomScalings(Rng& rng, const CompiledLpModel& a, std::vector<double>* w,
                    std::vector<double>* d) {
  w->resize(static_cast<std::size_t>(a.num_rows));
  for (double& v : *w) v = rng.Uniform(0.1, 2.0);
  d->resize(static_cast<std::size_t>(a.num_cols));
  for (double& v : *d) v = rng.Uniform(1e-4, 1.0);
}

std::vector<double> FactorAndSolve(SparseNormalFactor& f,
                                   const CompiledLpModel& a,
                                   const std::vector<double>& w,
                                   const std::vector<double>& d) {
  EXPECT_TRUE(f.Factor(a, w, d));
  std::vector<double> x(static_cast<std::size_t>(a.num_cols));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + static_cast<double>(i % 3);
  }
  f.Solve(x);
  return x;
}

void ExpectClose(const std::vector<double>& a, const std::vector<double>& b,
                 double tol = 1e-8) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol * (1.0 + std::abs(a[i]))) << "component " << i;
  }
}

class SupernodalFactorTest : public ::testing::TestWithParam<int> {};

TEST_P(SupernodalFactorTest, MatchesSimplicialOnRandomInstances) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 11);
  const int n = 48 + static_cast<int>(rng.UniformInt(160));
  LpModel m = RandomBandedModel(rng, n, 3 * n);
  const CompiledLpModel& a = m.Compiled();

  SparseNormalFactor simp;
  simp.Analyze(a);
  simp.SetMode(IpmFactorMode::kSimplicial);
  SparseNormalFactor sup;
  sup.Analyze(a);
  sup.SetMode(IpmFactorMode::kSupernodal);
  ASSERT_GT(sup.NumSupernodes(), 0);
  ASSERT_GE(sup.PanelNnz(), sup.FillNnz());

  std::vector<double> w;
  std::vector<double> d;
  RandomScalings(rng, a, &w, &d);
  ExpectClose(FactorAndSolve(simp, a, w, d), FactorAndSolve(sup, a, w, d));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SupernodalFactorTest, ::testing::Range(1, 9));

TEST(SupernodalFactorTest, RepeatedRefactorsOnOneAnalysisStayEquivalent) {
  // The Newton loop refactors with new scalings on a fixed analysis; a mode
  // switch between Factor calls must also be safe (both kernels share the
  // cached symbolic structures).
  Rng rng(57);
  LpModel m = RandomBandedModel(rng, 100, 300);
  const CompiledLpModel& a = m.Compiled();

  SparseNormalFactor simp;
  simp.Analyze(a);
  simp.SetMode(IpmFactorMode::kSimplicial);
  SparseNormalFactor sup;
  sup.Analyze(a);
  sup.SetMode(IpmFactorMode::kSupernodal);
  SparseNormalFactor flip;  // alternates kernels across rounds
  flip.Analyze(a);

  for (int round = 0; round < 4; ++round) {
    std::vector<double> w;
    std::vector<double> d;
    RandomScalings(rng, a, &w, &d);
    const std::vector<double> ref = FactorAndSolve(simp, a, w, d);
    ExpectClose(ref, FactorAndSolve(sup, a, w, d));
    flip.SetMode(round % 2 == 0 ? IpmFactorMode::kSupernodal
                                : IpmFactorMode::kSimplicial);
    ExpectClose(ref, FactorAndSolve(flip, a, w, d));
  }
}

TEST(SupernodalFactorTest, ReusedScratchIsBitwiseStable) {
  // The supernodal factor keeps one relmap/cbuf scratch across supernodes
  // and across Factor calls; a refactor must not depend on what an earlier
  // one left behind.
  Rng rng(73);
  LpModel m = RandomBandedModel(rng, 160, 480);
  const CompiledLpModel& a = m.Compiled();
  std::vector<double> w1;
  std::vector<double> d1;
  std::vector<double> w2;
  std::vector<double> d2;
  RandomScalings(rng, a, &w1, &d1);
  RandomScalings(rng, a, &w2, &d2);

  SparseNormalFactor reused;
  reused.Analyze(a);
  const std::vector<double> first = FactorAndSolve(reused, a, w1, d1);
  FactorAndSolve(reused, a, w2, d2);
  const std::vector<double> again = FactorAndSolve(reused, a, w1, d1);
  SparseNormalFactor fresh;
  fresh.Analyze(a);
  const std::vector<double> ref = FactorAndSolve(fresh, a, w1, d1);
  ASSERT_EQ(first.size(), ref.size());
  ASSERT_EQ(again.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(first[i], ref[i]) << "component " << i;  // bitwise
    EXPECT_EQ(again[i], ref[i]) << "component " << i;
  }
}

TEST(SupernodalFactorTest, PatternPreservingAppendKeepsModesEquivalent) {
  // Both kernels must agree on a model grown by a row inside the pattern
  // and by one outside it, each analyzed afresh.
  Rng rng(63);
  LpModel m = RandomBandedModel(rng, 80, 240);
  SparseNormalFactor simp;
  simp.SetMode(IpmFactorMode::kSimplicial);
  SparseNormalFactor sup;
  sup.SetMode(IpmFactorMode::kSupernodal);

  SparseRow dup = m.Row(3);  // same support => same pattern
  dup.lo *= 0.5;
  m.AddRow(std::move(dup));
  const CompiledLpModel& a1 = m.Compiled();
  simp.Analyze(a1);
  sup.Analyze(a1);

  std::vector<double> w;
  std::vector<double> d;
  RandomScalings(rng, a1, &w, &d);
  ExpectClose(FactorAndSolve(simp, a1, w, d), FactorAndSolve(sup, a1, w, d));

  // A row pairing the extreme columns falls outside the banded pattern.
  std::vector<std::int32_t> idx{0, 79};
  std::vector<double> val{1.0, 1.0};
  m.AddRow(idx, val, 0.1, kLpInf);
  const CompiledLpModel& a2 = m.Compiled();
  EXPECT_FALSE(simp.Reusable(a2));
  EXPECT_FALSE(sup.Reusable(a2));
  SparseNormalFactor fresh;
  fresh.Analyze(a2);
  fresh.SetMode(IpmFactorMode::kSupernodal);
  SparseNormalFactor fresh_simp;
  fresh_simp.Analyze(a2);
  fresh_simp.SetMode(IpmFactorMode::kSimplicial);
  RandomScalings(rng, a2, &w, &d);
  ExpectClose(FactorAndSolve(fresh_simp, a2, w, d),
              FactorAndSolve(fresh, a2, w, d));
}

// Symbolic-analysis oracle: random supports with length-1 rows, columns in
// no row and one near-dense row. The pattern size is checked against pairs
// counted in a std::set, and the solve against M assembled densely from the
// rows, which is independent of the scatter map both kernels share.
LpModel RandomSupportModel(Rng& rng, int n, int rows) {
  LpModel m(n);
  const int used = n - 3;  // columns [used, n) appear in no row
  auto add = [&](std::vector<std::int32_t> idx) {
    std::vector<double> val;
    for (std::size_t k = 0; k < idx.size(); ++k) {
      val.push_back(rng.Uniform(0.2, 1.5));
    }
    // A ranged row folds into two ge rows with the same support.
    const double hi = rng.Uniform() < 0.3 ? 4.0 : kLpInf;
    m.AddRow(idx, val, 0.5, hi);
  };
  for (int r = 0; r < rows; ++r) {
    const int len = r % 5 == 0 ? 1 : 2 + static_cast<int>(rng.UniformInt(6));
    std::set<std::int32_t> cols;
    while (static_cast<int>(cols.size()) < len) {
      cols.insert(static_cast<std::int32_t>(
          rng.UniformInt(static_cast<std::uint64_t>(used))));
    }
    add({cols.begin(), cols.end()});
  }
  std::vector<std::int32_t> dense;
  for (int c = 0; c < used; ++c) {
    if (rng.Uniform() < 0.8) dense.push_back(c);
  }
  add(dense);
  return m;
}

std::int64_t CountPatternPairs(const CompiledLpModel& a) {
  std::set<std::pair<std::int32_t, std::int32_t>> pairs;
  for (int i = 0; i < a.num_rows; ++i) {
    for (std::int64_t p = a.row_ptr[static_cast<std::size_t>(i)];
         p < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++p) {
      for (std::int64_t q = a.row_ptr[static_cast<std::size_t>(i)]; q < p;
           ++q) {
        const std::int32_t x = a.col[static_cast<std::size_t>(p)];
        const std::int32_t y = a.col[static_cast<std::size_t>(q)];
        pairs.insert({std::min(x, y), std::max(x, y)});
      }
    }
  }
  return static_cast<std::int64_t>(pairs.size()) + a.num_cols;  // + diagonal
}

// max_i |(M x - b)_i| / (1 + |b_i|) with M = A' diag(w) A + diag(d) dense.
double NormalResidual(const CompiledLpModel& a, const std::vector<double>& w,
                      const std::vector<double>& d,
                      const std::vector<double>& x,
                      const std::vector<double>& b) {
  std::vector<double> mx(x.size(), 0.0);
  for (std::size_t j = 0; j < x.size(); ++j) mx[j] = d[j] * x[j];
  for (int i = 0; i < a.num_rows; ++i) {
    double ax = 0.0;
    const std::size_t begin =
        static_cast<std::size_t>(a.row_ptr[static_cast<std::size_t>(i)]);
    const std::size_t end =
        static_cast<std::size_t>(a.row_ptr[static_cast<std::size_t>(i) + 1]);
    for (std::size_t p = begin; p < end; ++p) {
      ax += a.val[p] * x[static_cast<std::size_t>(a.col[p])];
    }
    for (std::size_t p = begin; p < end; ++p) {
      mx[static_cast<std::size_t>(a.col[p])] +=
          w[static_cast<std::size_t>(i)] * a.val[p] * ax;
    }
  }
  double worst = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    worst = std::max(worst, std::abs(mx[j] - b[j]) / (1.0 + std::abs(b[j])));
  }
  return worst;
}

class AnalyzeOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(AnalyzeOracleTest, PatternScatterAndExtendMatchOracles) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 5);
  const int n = 24 + static_cast<int>(rng.UniformInt(100));
  LpModel m = RandomSupportModel(rng, n, 2 * n);
  const CompiledLpModel& a = m.Compiled();

  SparseNormalFactor sup;
  sup.Analyze(a);
  EXPECT_EQ(sup.PatternNnz(), CountPatternPairs(a));
  SparseNormalFactor simp;
  simp.Analyze(a);
  simp.SetMode(IpmFactorMode::kSimplicial);

  std::vector<double> w;
  std::vector<double> d;
  RandomScalings(rng, a, &w, &d);
  const std::vector<double> x = FactorAndSolve(sup, a, w, d);
  ExpectClose(FactorAndSolve(simp, a, w, d), x, 1e-10);
  std::vector<double> b(x.size());
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + static_cast<double>(i % 3);  // FactorAndSolve's rhs
  }
  EXPECT_LT(NormalResidual(a, w, d, x, b), 1e-10);

  // A row on a subset of the near-dense row's support stays inside the
  // pattern: the grown model's fresh analysis adds no pattern entries.
  const SparseRow& dense = m.Row(m.NumRows() - 1);
  std::vector<std::int32_t> idx(dense.index.begin(),
                                dense.index.begin() + dense.index.size() / 2);
  std::vector<double> val(idx.size(), 0.75);
  m.AddRow(idx, val, 0.25, kLpInf);
  const CompiledLpModel& grown = m.Compiled();
  SparseNormalFactor fresh;
  fresh.Analyze(grown);
  EXPECT_EQ(fresh.PatternNnz(), sup.PatternNnz());
  EXPECT_EQ(fresh.PatternNnz(), CountPatternPairs(grown));
  RandomScalings(rng, grown, &w, &d);
  simp.Analyze(grown);
  ExpectClose(FactorAndSolve(simp, grown, w, d),
              FactorAndSolve(fresh, grown, w, d), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzeOracleTest, ::testing::Range(1, 7));

TEST(SupernodalFactorTest, EngineObjectiveMatchesAcrossModes) {
  // End to end through the interior-point engine: overriding the factor
  // mode must not move the optimum.
  Rng rng(91);
  LpModel m = RandomBandedModel(rng, 120, 360);
  LpSolverOptions simp = Ipm();
  simp.factor_mode = IpmFactorMode::kSimplicial;
  LpSolverOptions sup = Ipm();
  sup.factor_mode = IpmFactorMode::kSupernodal;
  const LpSolution a = SolveLp(m, simp);
  const LpSolution b = SolveLp(m, sup);
  ASSERT_TRUE(a.ok()) << a.status;
  ASSERT_TRUE(b.ok()) << b.status;
  EXPECT_NEAR(a.objective, b.objective, 1e-6 * (1.0 + std::abs(a.objective)));
}

TEST(LazyRowTest, WarmLazyRoundsMatchColdOnInteriorPoint) {
  // Full problem: banded rows; the lazy model starts with a prefix and the
  // oracle separates the rest. Run once warm (default) and once cold.
  Rng rng(41);
  const int n = 96;
  LpModel full = RandomBandedModel(rng, n, 4 * n);
  const int seed_rows = full.NumRows() / 8;

  const RowOracle oracle = [&](std::span<const double> x) {
    std::vector<SparseRow> out;
    for (const SparseRow& row : full.Rows()) {
      if (row.Activity(x) < row.lo - 1e-9) out.push_back(row);
    }
    return out;
  };

  LpSolution sol[2];
  LazySolveStats stats[2];
  for (const bool warm : {false, true}) {
    LpModel lazy(n);
    for (int c = 0; c < n; ++c) {
      lazy.SetObjective(c, full.Objective()[static_cast<std::size_t>(c)]);
    }
    for (int r = 0; r < seed_rows; ++r) lazy.AddRow(full.Row(r));
    LpSolverOptions o = Ipm();
    o.warm_start_lazy_rounds = warm;
    sol[warm ? 1 : 0] =
        SolveWithLazyRows(lazy, oracle, o, 50, &stats[warm ? 1 : 0]);
    ASSERT_TRUE(sol[warm ? 1 : 0].ok()) << sol[warm ? 1 : 0].status;
  }
  EXPECT_EQ(stats[0].warm_rounds, 0);
  EXPECT_NEAR(sol[0].objective, sol[1].objective,
              1e-6 * (1.0 + std::abs(sol[0].objective)));
  if (stats[1].rounds > 1) {
    EXPECT_GT(stats[1].warm_rounds, 0);
    // Warm rounds start next to the previous optimum: the total iteration
    // count across rounds must not regress versus cold starts.
    EXPECT_LE(stats[1].lp_iterations, stats[0].lp_iterations);
  }
  EXPECT_LE(full.MaxInfeasibility(sol[1].x), 1e-6);
}

// Lazy fixture shared by the driver-protocol tests below: a banded model
// whose first eighth of rows seeds the relaxation and whose oracle separates
// the rest, counting its calls (one per successful round).
struct BandedLazyFixture {
  static constexpr int kCols = 96;
  LpModel full{kCols};
  int oracle_calls = 0;
  RowOracle oracle;

  // The oracle captures `this`: the fixture stays where it was built.
  BandedLazyFixture(const BandedLazyFixture&) = delete;
  BandedLazyFixture& operator=(const BandedLazyFixture&) = delete;

  explicit BandedLazyFixture(std::uint64_t seed) {
    Rng rng(seed);
    full = RandomBandedModel(rng, kCols, 4 * kCols);
    oracle = [this](std::span<const double> x) {
      ++oracle_calls;
      std::vector<SparseRow> out;
      for (const SparseRow& row : full.Rows()) {
        if (row.Activity(x) < row.lo - 1e-9) out.push_back(row);
      }
      return out;
    };
  }

  LpModel Seed() const {
    LpModel lazy(kCols);
    for (int c = 0; c < kCols; ++c) {
      lazy.SetObjective(c, full.Objective()[static_cast<std::size_t>(c)]);
    }
    for (int r = 0; r < full.NumRows() / 8; ++r) lazy.AddRow(full.Row(r));
    return lazy;
  }
};

TEST(LazyRowTest, CallerWarmStartSeedsRoundZero) {
  // With lazy-round threading off, only round 0 can start warm — and it
  // must, from the caller's point.
  BandedLazyFixture fx(43);
  LpSolverOptions o = Ipm();
  o.warm_start_lazy_rounds = false;
  LpModel cold_model = fx.Seed();
  LazySolveStats cold_stats;
  const LpSolution cold =
      SolveWithLazyRows(cold_model, fx.oracle, o, 50, &cold_stats);
  ASSERT_TRUE(cold.ok()) << cold.status;
  EXPECT_EQ(cold_stats.warm_rounds, 0);
  EXPECT_EQ(cold_stats.rounds, fx.oracle_calls);

  const LpWarmStart warm{cold.x, {}};
  o.warm_start = &warm;
  fx.oracle_calls = 0;
  LpModel warm_model = fx.Seed();
  LazySolveStats stats;
  const LpSolution sol =
      SolveWithLazyRows(warm_model, fx.oracle, o, 50, &stats);
  ASSERT_TRUE(sol.ok()) << sol.status;
  EXPECT_EQ(stats.warm_rounds, 1);
  EXPECT_EQ(stats.cold_retries, 0);
  EXPECT_EQ(stats.rounds, fx.oracle_calls);
  EXPECT_NEAR(sol.objective, cold.objective,
              1e-6 * (1.0 + std::abs(cold.objective)));
}

TEST(LazyRowTest, RoundsCountEverySolveIncludingColdRetries) {
  // A caller warm start far from the optimum exhausts the iteration budget;
  // the driver retries that round cold and counts both solves. Every
  // successful solve is followed by exactly one oracle call, so the LP
  // solves are the oracle calls plus the failed warm attempt.
  const double kFar = 1e12;
  const LpWarmStart far{std::vector<double>(BandedLazyFixture::kCols, kFar),
                        std::vector<double>(40, kFar)};
  {
    BandedLazyFixture fx(43);
    LpSolverOptions o = Ipm();
    o.warm_start_lazy_rounds = false;
    o.max_iterations = 30;
    o.warm_start = &far;
    LpModel model = fx.Seed();
    LazySolveStats stats;
    const LpSolution sol = SolveWithLazyRows(model, fx.oracle, o, 50, &stats);
    ASSERT_TRUE(sol.ok()) << sol.status;
    EXPECT_EQ(stats.cold_retries, 1);
    EXPECT_EQ(stats.warm_rounds, 0);
    EXPECT_EQ(stats.rounds, fx.oracle_calls + 1);
  }
  {
    // One iteration is never enough: the warm attempt and its cold retry
    // both fail, no oracle call happens, and both solves still count.
    BandedLazyFixture fx(43);
    LpSolverOptions o = Ipm();
    o.max_iterations = 1;
    o.warm_start = &far;
    LpModel model = fx.Seed();
    LazySolveStats stats;
    const LpSolution sol = SolveWithLazyRows(model, fx.oracle, o, 50, &stats);
    EXPECT_FALSE(sol.ok());
    EXPECT_EQ(stats.rounds, 2);
    EXPECT_EQ(stats.cold_retries, 1);
    EXPECT_EQ(fx.oracle_calls, 0);
  }
}

// ---- Model sanity ------------------------------------------------------------

TEST(LpModelTest, ActivityAndInfeasibility) {
  LpModel m = TinyModel();
  const std::vector<double> x{1.0, 0.5};
  EXPECT_DOUBLE_EQ(m.Row(0).Activity(x), 1.5);
  EXPECT_DOUBLE_EQ(m.MaxInfeasibility(x), 0.5);  // row 0 short by 0.5
  EXPECT_DOUBLE_EQ(m.ObjectiveValue(x), 1.5);
}

TEST(LpModelTest, SetRowBounds) {
  LpModel m = TinyModel();
  m.SetRowBounds(0, 4.0, kLpInf);
  const LpSolution s = SolveLp(m, Simplex());
  ASSERT_TRUE(s.ok());
  EXPECT_NEAR(s.objective, 4.0, 1e-8);
}

}  // namespace
}  // namespace lubt
