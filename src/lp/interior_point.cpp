#include "lp/interior_point.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "check/dcheck.h"
#include "lp/sparse_chol.h"
#include "util/logging.h"

namespace lubt {
namespace {

double InfNorm(std::span<const double> v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

class MehrotraSolver {
 public:
  MehrotraSolver(const CompiledLpModel& a, std::span<const double> cost,
                 const LpSolverOptions& options, SparseNormalFactor& factor,
                 bool symbolic_reused)
      : a_(a),
        c_(cost.begin(), cost.end()),
        n_(a.num_cols),
        m_(a.num_rows),
        tol_(options.tolerance),
        max_iter_(options.max_iterations > 0 ? options.max_iterations : 200),
        factor_(factor),
        symbolic_reused_(symbolic_reused) {
    b_ = a_.rhs;
    bnorm_ = 1.0 + InfNorm(b_);
    cnorm_ = 1.0 + InfNorm(c_);
    warm_ = options.warm_start;
  }

  LpSolution Run() {
    LpSolution out;
    out.symbolic_reused = symbolic_reused_;
    InitPoint();
    out.warm_started = warm_started_;

    row_weight_.assign(static_cast<std::size_t>(m_), 0.0);
    col_diag_.assign(static_cast<std::size_t>(n_), 0.0);

    // Best (most converged) iterate seen; returned if full tolerance is out
    // of floating-point reach for a large degenerate model.
    double best_metric = kBigMetric;
    std::vector<double> best_x;
    std::vector<double> best_y;
    // A point this converged is accepted when the iteration breaks down.
    const double acceptable = std::max(2e-6, tol_ * 10.0);

    for (int iter = 0; iter < max_iter_; ++iter) {
      out.iterations = iter + 1;
      ComputeResiduals();
      const double mu = Mu();
      const double rel_p = InfNorm(rp_) / bnorm_;
      const double rel_d = InfNorm(rd_) / cnorm_;
      const double pobj = Dot(c_, x_);
      const double dobj = Dot(b_, y_);
      const double rel_gap = std::abs(pobj - dobj) / (1.0 + std::abs(pobj));
      LUBT_LOG_DEBUG << "ipm iter=" << iter << " mu=" << mu
                     << " rp=" << rel_p << " rd=" << rel_d
                     << " gap=" << rel_gap;
      // The complementarity measure and residual norms must stay finite;
      // a NaN here means the Newton system silently blew up last iteration
      // and every later test of `metric` would be vacuously false.
      LUBT_DCHECK_FINITE(mu);
      LUBT_DCHECK_FINITE(rel_p);
      LUBT_DCHECK_FINITE(rel_d);
      if (rel_p < tol_ && rel_d < tol_ && rel_gap < tol_) {
        out.status = Status::Ok();
        out.x = x_;
        out.ge_dual = y_;
        return out;
      }
      const double metric = std::max({rel_p, rel_d, rel_gap});
      if (metric < best_metric) {
        best_metric = metric;
        best_x = x_;
        best_y = y_;
      } else if (metric > 100.0 * best_metric && best_metric < acceptable) {
        // Numerical breakdown after effective convergence (common for very
        // degenerate vertices): return the best point.
        out.status = Status::Ok();
        out.x = std::move(best_x);
        out.ge_dual = std::move(best_y);
        return out;
      }
      // Divergence heuristics for infeasible / unbounded problems.
      if (InfNorm(y_) > 1e11 * cnorm_ && rel_p > tol_) {
        out.status = Status::Infeasible("dual iterates diverge");
        return out;
      }
      if (InfNorm(x_) > 1e11 * bnorm_ && rel_gap > tol_) {
        out.status = Status::Unbounded("primal iterates diverge");
        return out;
      }

      // Assemble and factor the normal matrix
      //   M = A' diag(y/w) A + diag(z/x).
      for (int i = 0; i < m_; ++i) {
        row_weight_[static_cast<std::size_t>(i)] =
            Clamp(y_[static_cast<std::size_t>(i)] /
                  w_[static_cast<std::size_t>(i)]);
      }
      for (int j = 0; j < n_; ++j) {
        col_diag_[static_cast<std::size_t>(j)] =
            Clamp(z_[static_cast<std::size_t>(j)] /
                  x_[static_cast<std::size_t>(j)]);
      }
      const bool factored = factor_.Factor(a_, row_weight_, col_diag_);
      out.regularizations += factor_.attempts();
      if (!factored) {
        out.status = Status::NumericalFailure("Cholesky factorization failed");
        return out;
      }

      // Predictor (affine) direction: sigma = 0.
      SolveNewton(/*sigma_mu=*/0.0, /*corrector=*/false);
      const double ap_aff = std::min(1.0, StepLength(x_, dx_, w_, dw_));
      const double ad_aff = std::min(1.0, StepLength(z_, dz_, y_, dy_));
      double mu_aff = 0.0;
      for (int j = 0; j < n_; ++j) {
        mu_aff += (x_[j] + ap_aff * dx_[j]) * (z_[j] + ad_aff * dz_[j]);
      }
      for (int i = 0; i < m_; ++i) {
        mu_aff += (w_[i] + ap_aff * dw_[i]) * (y_[i] + ad_aff * dy_[i]);
      }
      mu_aff /= (n_ + m_);
      const double ratio = mu_aff / std::max(mu, 1e-300);
      const double sigma = std::min(1.0, ratio * ratio * ratio);

      // Corrector direction reuses the factorization.
      dx_aff_ = dx_; dw_aff_ = dw_; dy_aff_ = dy_; dz_aff_ = dz_;
      SolveNewton(sigma * mu, /*corrector=*/true);

      const double tau = std::min(0.99995, std::max(0.995, 1.0 - 0.1 * mu));
      const double ap = std::min(1.0, tau * StepLength(x_, dx_, w_, dw_));
      const double ad = std::min(1.0, tau * StepLength(z_, dz_, y_, dy_));
      // Step lengths are damped to keep (x, w, z, y) strictly positive —
      // the invariant every formula above divides by.
      LUBT_DCHECK(ap >= 0.0 && ap <= 1.0);
      LUBT_DCHECK(ad >= 0.0 && ad <= 1.0);
      for (int j = 0; j < n_; ++j) {
        x_[j] += ap * dx_[j];
        z_[j] += ad * dz_[j];
      }
      for (int i = 0; i < m_; ++i) {
        w_[i] += ap * dw_[i];
        y_[i] += ad * dy_[i];
      }
    }

    // Iteration cap: accept the best iterate if it effectively converged.
    if (best_metric < acceptable) {
      out.status = Status::Ok();
      out.x = std::move(best_x);
      out.ge_dual = std::move(best_y);
      return out;
    }
    ComputeResiduals();
    const double rel_p = InfNorm(rp_) / bnorm_;
    if (rel_p > acceptable && InfNorm(y_) > 1e6 * cnorm_) {
      out.status = Status::Infeasible("residuals stalled, duals large");
      return out;
    }
    out.status = Status::NumericalFailure("iteration limit reached");
    return out;
  }

  static constexpr double kBigMetric = 1e300;

 private:
  static double Dot(const std::vector<double>& a, const std::vector<double>& b) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
  }

  void InitPoint() {
    const double scale = std::max(1.0, InfNorm(b_));
    x_.assign(static_cast<std::size_t>(n_), scale);
    z_.assign(static_cast<std::size_t>(n_), 0.0);
    for (int j = 0; j < n_; ++j) {
      z_[static_cast<std::size_t>(j)] =
          std::max(1.0, std::abs(c_[static_cast<std::size_t>(j)]));
    }
    y_.assign(static_cast<std::size_t>(m_), 1.0);
    w_.assign(static_cast<std::size_t>(m_), 0.0);
    dx_.assign(static_cast<std::size_t>(n_), 0.0);
    dz_.assign(static_cast<std::size_t>(n_), 0.0);
    dy_.assign(static_cast<std::size_t>(m_), 0.0);
    dw_.assign(static_cast<std::size_t>(m_), 0.0);
    rp_.assign(static_cast<std::size_t>(m_), 0.0);
    rd_.assign(static_cast<std::size_t>(n_), 0.0);
    g1_.assign(static_cast<std::size_t>(n_), 0.0);
    g2_.assign(static_cast<std::size_t>(m_), 0.0);
    rhs_.assign(static_cast<std::size_t>(n_), 0.0);
    rxz_buf_.assign(static_cast<std::size_t>(n_), 0.0);
    rwy_buf_.assign(static_cast<std::size_t>(m_), 0.0);

    if (warm_ != nullptr &&
        warm_->x.size() == static_cast<std::size_t>(n_) &&
        warm_->ge_dual.size() <= static_cast<std::size_t>(m_)) {
      warm_started_ = true;
      // Interpolate between the cold start and the supplied (possibly
      // boundary) point. A hard clamp to a small epsilon leaves the iterate
      // with complementarity products orders of magnitude below the
      // residuals of freshly appended rows; the boundary then caps every
      // step length and the iteration crawls. Blending keeps the iterate
      // near the previous optimum while retaining enough centrality for
      // full-length Newton steps.
      const double lam = 0.98;
      for (int j = 0; j < n_; ++j) {
        x_[static_cast<std::size_t>(j)] =
            lam * std::max(warm_->x[static_cast<std::size_t>(j)], 0.0) +
            (1.0 - lam) * scale;
      }
      // Dual prefix from the previous solve; rows beyond it (appended since)
      // keep the cold value.
      for (std::size_t i = 0; i < warm_->ge_dual.size(); ++i) {
        y_[i] = lam * std::max(warm_->ge_dual[i], 0.0) + (1.0 - lam) * 1.0;
      }
      // g1_ used as scratch for A'y here; InitPoint zeroed it above and the
      // Newton solve overwrites it anyway.
      for (int i = 0; i < m_; ++i) {
        const double yi = y_[static_cast<std::size_t>(i)];
        const std::int64_t end = a_.row_ptr[static_cast<std::size_t>(i) + 1];
        for (std::int64_t p = a_.row_ptr[static_cast<std::size_t>(i)];
             p < end; ++p) {
          g1_[static_cast<std::size_t>(
              a_.col[static_cast<std::size_t>(p)])] +=
              yi * a_.val[static_cast<std::size_t>(p)];
        }
      }
      for (int j = 0; j < n_; ++j) {
        const double cj = c_[static_cast<std::size_t>(j)];
        z_[static_cast<std::size_t>(j)] =
            lam * std::max(cj - g1_[static_cast<std::size_t>(j)], 0.0) +
            (1.0 - lam) * std::max(1.0, std::abs(cj));
      }
      for (int i = 0; i < m_; ++i) {
        const double act = a_.RowActivity(i, x_);
        const double gap = act - b_[static_cast<std::size_t>(i)];
        // Violated rows (typically the ones appended since the previous
        // solve) get slack comparable to their violation, so the first
        // steps toward them are not pinned by the w > 0 boundary.
        w_[static_cast<std::size_t>(i)] =
            std::max({gap, (1.0 - lam) * 0.1 * scale, -gap});
      }
      return;
    }
    for (int i = 0; i < m_; ++i) {
      const double act = a_.RowActivity(i, x_);
      w_[static_cast<std::size_t>(i)] =
          std::max(act - b_[static_cast<std::size_t>(i)], 0.1 * scale);
    }
  }

  double Mu() const {
    double s = Dot(x_, z_) + Dot(w_, y_);
    return s / (n_ + m_);
  }

  void ComputeResiduals() {
    // rd = c - A'y - z.
    for (int j = 0; j < n_; ++j) {
      rd_[static_cast<std::size_t>(j)] =
          c_[static_cast<std::size_t>(j)] - z_[static_cast<std::size_t>(j)];
    }
    for (int i = 0; i < m_; ++i) {
      const double yi = y_[static_cast<std::size_t>(i)];
      const std::int64_t end = a_.row_ptr[static_cast<std::size_t>(i) + 1];
      for (std::int64_t p = a_.row_ptr[static_cast<std::size_t>(i)]; p < end;
           ++p) {
        rd_[static_cast<std::size_t>(a_.col[static_cast<std::size_t>(p)])] -=
            yi * a_.val[static_cast<std::size_t>(p)];
      }
    }
    // rp = b - Ax + w.
    for (int i = 0; i < m_; ++i) {
      rp_[static_cast<std::size_t>(i)] = b_[static_cast<std::size_t>(i)] -
                                         a_.RowActivity(i, x_) +
                                         w_[static_cast<std::size_t>(i)];
    }
  }

  static double Clamp(double v) {
    return std::min(std::max(v, 1e-12), 1e12);
  }

  // Solve one Newton system. For the predictor (corrector=false):
  //   r_xz = -XZe, r_wy = -WYe.
  // For the corrector: r_xz = sigma_mu e - XZe - dXaff dZaff e, etc.
  void SolveNewton(double sigma_mu, bool corrector) {
    // g1 = rd - X^-1 r_xz ;  g2 = rp + Y^-1 r_wy.
    for (int j = 0; j < n_; ++j) {
      double rxz = -x_[static_cast<std::size_t>(j)] *
                   z_[static_cast<std::size_t>(j)];
      if (corrector) {
        rxz += sigma_mu - dx_aff_[static_cast<std::size_t>(j)] *
                              dz_aff_[static_cast<std::size_t>(j)];
      }
      g1_[static_cast<std::size_t>(j)] =
          rd_[static_cast<std::size_t>(j)] -
          rxz / x_[static_cast<std::size_t>(j)];
      // Stash per-column rxz for the dz recovery below.
      rxz_buf_[static_cast<std::size_t>(j)] = rxz;
    }
    for (int i = 0; i < m_; ++i) {
      double rwy = -w_[static_cast<std::size_t>(i)] *
                   y_[static_cast<std::size_t>(i)];
      if (corrector) {
        rwy += sigma_mu - dw_aff_[static_cast<std::size_t>(i)] *
                              dy_aff_[static_cast<std::size_t>(i)];
      }
      rwy_buf_[static_cast<std::size_t>(i)] = rwy;
      g2_[static_cast<std::size_t>(i)] =
          rp_[static_cast<std::size_t>(i)] +
          rwy / y_[static_cast<std::size_t>(i)];
    }

    // rhs = A' Dw^-1 g2 - g1, with Dw^-1 = diag(y/w).
    for (int j = 0; j < n_; ++j) {
      rhs_[static_cast<std::size_t>(j)] = -g1_[static_cast<std::size_t>(j)];
    }
    for (int i = 0; i < m_; ++i) {
      const double s = row_weight_[static_cast<std::size_t>(i)] *
                       g2_[static_cast<std::size_t>(i)];
      const std::int64_t end = a_.row_ptr[static_cast<std::size_t>(i) + 1];
      for (std::int64_t p = a_.row_ptr[static_cast<std::size_t>(i)]; p < end;
           ++p) {
        rhs_[static_cast<std::size_t>(a_.col[static_cast<std::size_t>(p)])] +=
            s * a_.val[static_cast<std::size_t>(p)];
      }
    }

    factor_.Solve(rhs_);
    dx_ = rhs_;

    // dy = Dw^-1 (g2 - A dx);  dw = Y^-1 (rwy - W dy);  dz = X^-1 (rxz - Z dx).
    for (int i = 0; i < m_; ++i) {
      const double adx = a_.RowActivity(i, dx_);
      const double s = row_weight_[static_cast<std::size_t>(i)];
      dy_[static_cast<std::size_t>(i)] =
          s * (g2_[static_cast<std::size_t>(i)] - adx);
      dw_[static_cast<std::size_t>(i)] =
          (rwy_buf_[static_cast<std::size_t>(i)] -
           w_[static_cast<std::size_t>(i)] * dy_[static_cast<std::size_t>(i)]) /
          y_[static_cast<std::size_t>(i)];
    }
    for (int j = 0; j < n_; ++j) {
      dz_[static_cast<std::size_t>(j)] =
          (rxz_buf_[static_cast<std::size_t>(j)] -
           z_[static_cast<std::size_t>(j)] * dx_[static_cast<std::size_t>(j)]) /
          x_[static_cast<std::size_t>(j)];
    }
  }

  // Longest step in [0, 1e30] keeping both vectors positive.
  static double StepLength(const std::vector<double>& a,
                           const std::vector<double>& da,
                           const std::vector<double>& b,
                           const std::vector<double>& db) {
    double alpha = 1e30;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (da[i] < 0.0) alpha = std::min(alpha, -a[i] / da[i]);
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (db[i] < 0.0) alpha = std::min(alpha, -b[i] / db[i]);
    }
    return alpha;
  }

  const CompiledLpModel& a_;
  std::vector<double> c_;
  int n_;
  int m_;
  double tol_;
  int max_iter_;
  double bnorm_ = 1.0;
  double cnorm_ = 1.0;
  SparseNormalFactor& factor_;
  bool symbolic_reused_ = false;
  const LpWarmStart* warm_ = nullptr;
  bool warm_started_ = false;

  std::vector<double> b_;
  std::vector<double> x_, z_, y_, w_;
  std::vector<double> dx_, dz_, dy_, dw_;
  std::vector<double> dx_aff_, dz_aff_, dy_aff_, dw_aff_;
  std::vector<double> rp_, rd_;
  std::vector<double> g1_, g2_, rhs_;
  std::vector<double> rxz_buf_, rwy_buf_;
  std::vector<double> row_weight_, col_diag_;
};

}  // namespace

LpSolution SolveWithInteriorPoint(const LpModel& model,
                                  const LpSolverOptions& options) {
  const CompiledLpModel& a = model.Compiled();
  if (a.num_rows == 0) {
    LpSolution out;
    for (int c = 0; c < model.NumCols(); ++c) {
      if (model.Objective()[static_cast<std::size_t>(c)] < 0.0) {
        out.status = Status::Unbounded("negative cost, no constraints");
        return out;
      }
    }
    out.x.assign(static_cast<std::size_t>(model.NumCols()), 0.0);
    out.status = Status::Ok();
    return out;
  }

  // The symbolic analysis is reused when the context last analyzed exactly
  // these rows; otherwise it is rebuilt. Every Newton step then factors
  // sparse on that analysis.
  SparseNormalFactor local_factor;
  SparseNormalFactor& factor = options.ipm_context != nullptr
                                   ? options.ipm_context->normal
                                   : local_factor;
  factor.SetMode(options.factor_mode);
  const bool symbolic_reused = factor.Reusable(a);
  if (symbolic_reused) {
    if (options.ipm_context != nullptr) ++options.ipm_context->symbolic_reuses;
  } else {
    factor.Analyze(a);
    if (options.ipm_context != nullptr) ++options.ipm_context->analyses;
  }
  LUBT_LOG_DEBUG << "ipm normal equations: n=" << a.num_cols
                 << " pattern=" << factor.PatternNnz()
                 << " fill=" << factor.FillNnz()
                 << (symbolic_reused ? " (symbolic reused)" : "");
  MehrotraSolver solver(a, model.Objective(), options, factor,
                        symbolic_reused);
  return solver.Run();
}

}  // namespace lubt
