// Sparse Cholesky for the interior-point normal equations.
//
// Every Newton step of the interior-point engine factors
//
//     M = A' diag(s) A + diag(d)
//
// where A is the compiled ge-form constraint matrix and only s, d change
// across iterations. M's sparsity pattern is therefore fixed for a given A:
// the graph of A'A is exactly the union of the row-support cliques (two
// columns are adjacent iff some row touches both — for EBF, iff two tree
// edges share a constraint path). That structure is exploited three ways:
//
//  1. the fill-reducing ordering runs a minimum-degree heuristic directly
//     on the clique cover (no explicit pairwise graph needed), which on
//     EBF's tree-path cliques behaves like nested dissection on the tree.
//     Heap keys are refreshed lazily, so it is not exact minimum degree
//     (see MinDegreeOrder);
//  2. the symbolic factorization (ordering, elimination tree, nnz(L)) is
//     computed once and reused by every numeric refactorization. Its set-up
//     neither sorts globally nor searches: the pattern of M comes from one
//     sweep over the permuted columns of A's cached CSC (mark, then sort
//     each short column list), and the scatter positions from a second
//     sweep that loads a dense row-to-position map per pattern column;
//  3. assembly scatters each row's coefficient products through precomputed
//     value positions, so a Newton iteration costs O(sum_i nnz(row_i)^2 +
//     flops(L)) instead of O(n^2 + n^3/6).
//
// A caller that re-solves the same rows (an IpmContext across ECO edits that
// keep every row) keeps the symbolic analysis; any other model, a lazy
// round's grown one included, is analyzed again (EXPERIMENTS.md, "Symbolic
// analysis").
//
// Two numeric kernels share the one symbolic analysis (IpmFactorMode):
//
//  - kSimplicial: the original column-at-a-time left-looking kernel, kept
//    as the scalar oracle;
//  - kSupernodal (default): columns with chained elimination-tree structure
//    are amalgamated into supernodes and factored as dense column-major
//    panels. Descendant contributions are pulled through a static per-target
//    update schedule whose source/row slices are contiguous panel ranges, so
//    the rank-k inner loops vectorize. The factor is serial: supernodes run
//    in ascending order (children before parents) and each target applies
//    its updates in the fixed schedule order (DESIGN.md section 16).

#ifndef LUBT_LP_SPARSE_CHOL_H_
#define LUBT_LP_SPARSE_CHOL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "lp/model.h"

namespace lubt {

/// Fill-reducing elimination order by a minimum-degree heuristic on the
/// clique cover given by the ge-row column supports. Returns `order` with
/// order[k] = column eliminated k-th. Deterministic (ties break on the
/// smallest column index). Not exact minimum degree: a vertex's heap key is
/// refreshed only when that vertex is popped, so a neighbour whose degree
/// fell keeps its older, higher key and can be eliminated after a vertex of
/// higher degree.
std::vector<std::int32_t> MinDegreeOrder(const CompiledLpModel& a);

/// The sparse normal-equations factor. Lifecycle:
///
///   SparseNormalFactor f;
///   if (!f.Reusable(a)) f.Analyze(a);
///   while (newton) {
///     f.Factor(a, row_weight, diag);  // assemble + refactor numerically
///     f.Solve(rhs);
///   }
class SparseNormalFactor {
 public:
  /// One-time symbolic analysis for `a`: ordering, pattern of M, scatter
  /// positions, elimination tree and L's column structure.
  void Analyze(const CompiledLpModel& a);

  /// True when the cached analysis was built for exactly `a`'s rows: same
  /// column count, row count and nnz. Otherwise the caller must Analyze().
  bool Reusable(const CompiledLpModel& a) const;

  /// Assemble M = A' diag(row_weight) A + diag(diag) and factor it, retrying
  /// with escalating diagonal regularization. Returns false if the matrix
  /// could not be factored even with regularization.
  bool Factor(const CompiledLpModel& a, std::span<const double> row_weight,
              std::span<const double> diag);

  /// Select the numeric kernel. Does not invalidate the symbolic analysis;
  /// both kernels run on the same cached structures, so a mode switch
  /// between Factor calls is free.
  void SetMode(IpmFactorMode mode);
  IpmFactorMode mode() const { return mode_; }

  /// Diagonal-regularization retries spent by the last Factor call.
  int attempts() const { return attempts_; }

  /// Solve M x = b in place using the last successful Factor.
  void Solve(std::span<double> b) const;

  bool analyzed() const { return n_ > 0; }
  /// nnz of the lower triangle of M (diagonal included).
  std::int64_t PatternNnz() const {
    return analyzed() ? static_cast<std::int64_t>(up_row_.size()) : 0;
  }
  /// nnz of the Cholesky factor L (diagonal included).
  std::int64_t FillNnz() const {
    return analyzed() && !l_ptr_.empty() ? l_ptr_.back() : 0;
  }
  /// Supernode count of the cached partition (0 before Analyze).
  int NumSupernodes() const {
    return sn_start_.empty() ? 0 : static_cast<int>(sn_start_.size()) - 1;
  }
  /// Stored panel entries (supernodal layout), padding included.
  std::int64_t PanelNnz() const {
    return sn_panel_ptr_.empty() ? 0 : sn_panel_ptr_.back();
  }

 private:
  // Scatter positions of every row of `a` into the just-built pattern, by
  // one sweep over the permuted columns (no pattern search).
  void ScatterAll(const CompiledLpModel& a);
  // Upper-triangular pattern of P M P' for the current perm_/inv_perm_.
  void BuildPattern(const CompiledLpModel& a);
  // The same pattern after composing the etree postorder `post` (post[k] =
  // old position labelled k) onto perm_, without another sweep over `a`.
  void RelabelPattern(const std::vector<std::int32_t>& post);
  void ComputeEtree();
  // Deterministic postorder of etree_ (children ascending).
  std::vector<std::int32_t> EtreePostOrder() const;
  void BuildSymbolic();
  bool FactorAttempt(double reg);
  // Pattern of row k of L into stack_[return .. n); uses stamp_ marks.
  int Ereach(int k);

  // Supernodal machinery (all structures built once per Analyze and cached;
  // see the header comment and DESIGN.md section 16).
  void BuildSupernodes(const std::vector<std::int64_t>& count);
  void BuildSchedule();
  bool FactorAttemptSupernodal(double reg);
  // Pull scheduled updates into supernode s's panel and factor it.
  bool ProcessSupernode(int s);
  void SolveSimplicial(std::span<double> b) const;
  void SolveSupernodal(std::span<double> b) const;

  int n_ = 0;
  int analyzed_rows_ = 0;
  std::int64_t analyzed_nnz_ = 0;

  std::vector<std::int32_t> perm_;      // perm_[k] = original column at k
  std::vector<std::int32_t> inv_perm_;  // inv_perm_[orig] = position

  // Pattern of permuted M, upper-triangular CSC (entry rows <= column,
  // sorted ascending; the diagonal is always present and last per column).
  std::vector<std::int64_t> up_ptr_;
  std::vector<std::int32_t> up_row_;
  std::vector<double> up_val_;          // assembled values
  std::vector<std::int64_t> diag_pos_;  // per ORIGINAL column

  // Scatter positions into up_val_, per ge row, aligned with the pair
  // enumeration (a, b) for a = 0..len-1, b = 0..a over the row's entries.
  // The largest per-model structure (one entry per row pair), so positions
  // are 32-bit; ScatterAll asserts the pattern fits.
  std::vector<std::int64_t> scatter_ptr_;
  std::vector<std::int32_t> scatter_pos_;

  // Symbolic L (CSC, first entry of each column is its diagonal).
  std::vector<std::int32_t> etree_;
  std::vector<std::int64_t> l_ptr_;
  std::vector<std::int32_t> l_row_;
  std::vector<double> l_val_;

  // Workspaces for ereach / numeric factorization / solves.
  std::vector<std::int32_t> stamp_;
  std::vector<std::int32_t> stack_;
  std::vector<std::int64_t> cursor_;
  std::vector<double> work_;
  mutable std::vector<double> solve_buf_;

  // --- supernodal structures (fixed per symbolic analysis) ---
  // Partition: supernode s covers columns [sn_start_[s], sn_start_[s+1]).
  std::vector<std::int32_t> sn_start_;
  std::vector<std::int32_t> sn_of_col_;
  // Panel row index R_s: member columns, then the below rows shared by the
  // whole supernode (ascending). sn_rows_[sn_rows_ptr_[s] .. ptr[s+1]).
  std::vector<std::int64_t> sn_rows_ptr_;
  std::vector<std::int32_t> sn_rows_;
  // Dense |R_s| x width column-major panels, concatenated in sn_val_.
  std::vector<std::int64_t> sn_panel_ptr_;
  std::vector<double> sn_val_;
  // Assembly: sn_val_[asm_dst[i]] = up_val_[asm_src[i]] seeds the panels.
  std::vector<std::int64_t> sn_asm_src_;
  std::vector<std::int64_t> sn_asm_dst_;
  // Static per-target update schedule: target t pulls, in order, entries
  // e in [sn_upd_ptr_[t], sn_upd_ptr_[t+1]): a rank-width update from
  // source sn_upd_src_[e] whose pivot rows are the contiguous panel-row
  // slice [sn_upd_begin_[e], sn_upd_begin_[e] + sn_upd_len_[e]) of the
  // source (and whose update rows are the suffix from the same start).
  std::vector<std::int64_t> sn_upd_ptr_;
  std::vector<std::int32_t> sn_upd_src_;
  std::vector<std::int32_t> sn_upd_begin_;
  std::vector<std::int32_t> sn_upd_len_;
  // 1 when the update rows map to consecutive target panel rows, which
  // turns the scatter into a straight vector subtract (dense top-of-tree
  // supernodes hit this constantly). sn_upd_base_ is the target panel row
  // of the first update row, so contiguous updates never touch the relmap
  // (which is then only filled for targets with scattered updates).
  std::vector<char> sn_upd_contig_;
  std::vector<std::int32_t> sn_upd_base_;
  // Factor scratch, sized at analysis time so the numeric factor never
  // allocates: relmap_ (size n_) maps a target's rows to panel offsets,
  // cbuf_ (max |R_s|) stages one update column.
  std::vector<std::int32_t> relmap_;
  std::vector<double> cbuf_;
  mutable std::vector<double> solve_tmp_;  // max |R_s| gather buffer

  IpmFactorMode mode_ = IpmFactorMode::kSupernodal;
  bool factored_supernodal_ = false;  // which kernel produced the last factor

  int attempts_ = 0;
};

}  // namespace lubt

#endif  // LUBT_LP_SPARSE_CHOL_H_
