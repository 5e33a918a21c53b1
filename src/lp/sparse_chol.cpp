#include "lp/sparse_chol.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "check/dcheck.h"

namespace lubt {

namespace {

// Relaxed-amalgamation caps, graduated by panel width: narrow merges may
// pad generously (the per-panel overhead they remove dominates), wide ones
// only sparingly. Padded entries stay exactly 0.0 through the factorization
// (see DESIGN.md section 16), so the trade is pure storage/flops-vs-
// locality. Thresholds follow the usual supernodal practice (CHOLMOD-style
// relaxed amalgamation).
constexpr int kAmalgWidth0 = 4;    // always-merge width ...
constexpr double kAmalgZero0 = 0.5;  // ... while padding stays below this
constexpr int kAmalgWidth1 = 16;
constexpr double kAmalgZero1 = 0.25;
constexpr int kAmalgWidth2 = 48;
constexpr double kAmalgZero2 = 0.1;

}  // namespace

std::vector<std::int32_t> MinDegreeOrder(const CompiledLpModel& a) {
  const int n = a.num_cols;
  // Quotient-graph minimum degree on the clique cover: the initial cliques
  // are the row supports, eliminating a vertex merges its cliques into one.
  std::vector<std::vector<std::int32_t>> cliques;
  cliques.reserve(static_cast<std::size_t>(a.num_rows));
  std::vector<std::vector<std::int32_t>> member(static_cast<std::size_t>(n));
  for (int i = 0; i < a.num_rows; ++i) {
    const std::int64_t begin = a.row_ptr[static_cast<std::size_t>(i)];
    const std::int64_t end = a.row_ptr[static_cast<std::size_t>(i) + 1];
    if (end - begin < 2) continue;  // singleton rows add no adjacency
    const std::int32_t id = static_cast<std::int32_t>(cliques.size());
    cliques.emplace_back(a.col.begin() + begin, a.col.begin() + end);
    for (std::int64_t p = begin; p < end; ++p) {
      member[static_cast<std::size_t>(a.col[static_cast<std::size_t>(p)])]
          .push_back(id);
    }
  }
  std::vector<char> clique_alive(cliques.size(), 1);
  std::vector<char> eliminated(static_cast<std::size_t>(n), 0);
  std::vector<std::int32_t> mark(static_cast<std::size_t>(n), -1);
  std::int32_t mark_gen = 0;

  // Current degree of v; optionally collects the (live) neighbourhood.
  auto degree = [&](std::int32_t v, std::vector<std::int32_t>* out) {
    ++mark_gen;
    mark[static_cast<std::size_t>(v)] = mark_gen;
    int deg = 0;
    std::vector<std::int32_t>& ids = member[static_cast<std::size_t>(v)];
    std::size_t keep = 0;
    for (const std::int32_t id : ids) {
      if (!clique_alive[static_cast<std::size_t>(id)]) continue;
      ids[keep++] = id;  // prune dead cliques in place
      for (const std::int32_t u : cliques[static_cast<std::size_t>(id)]) {
        if (eliminated[static_cast<std::size_t>(u)] ||
            mark[static_cast<std::size_t>(u)] == mark_gen) {
          continue;
        }
        mark[static_cast<std::size_t>(u)] = mark_gen;
        ++deg;
        if (out != nullptr) out->push_back(u);
      }
    }
    ids.resize(keep);
    return deg;
  };

  using Key = std::pair<std::int32_t, std::int32_t>;  // (degree, vertex)
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> heap;
  for (std::int32_t v = 0; v < n; ++v) heap.push({degree(v, nullptr), v});

  std::vector<std::int32_t> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<std::int32_t> hood;
  while (!heap.empty()) {
    const auto [deg, v] = heap.top();
    heap.pop();
    if (eliminated[static_cast<std::size_t>(v)]) continue;
    hood.clear();
    const std::int32_t now = degree(v, &hood);
    if (now != deg) {  // stale key: reinsert with the current degree
      heap.push({now, v});
      continue;
    }
    eliminated[static_cast<std::size_t>(v)] = 1;
    order.push_back(v);
    for (const std::int32_t id : member[static_cast<std::size_t>(v)]) {
      clique_alive[static_cast<std::size_t>(id)] = 0;
    }
    if (hood.size() >= 2) {
      const std::int32_t id = static_cast<std::int32_t>(cliques.size());
      cliques.push_back(hood);
      clique_alive.push_back(1);
      for (const std::int32_t u : hood) {
        member[static_cast<std::size_t>(u)].push_back(id);
      }
    }
    // Neighbourhood keys are not refreshed here: a key that is now too low
    // self-corrects on pop, one that is too high does not (so the order is
    // not exact minimum degree; the bitwise goldens pin it as it is).
  }
  LUBT_ASSERT(static_cast<int>(order.size()) == n);
  return order;
}

void SparseNormalFactor::Analyze(const CompiledLpModel& a) {
  n_ = a.num_cols;
  attempts_ = 0;
  perm_ = MinDegreeOrder(a);
  inv_perm_.assign(static_cast<std::size_t>(n_), 0);
  for (int k = 0; k < n_; ++k) {
    inv_perm_[static_cast<std::size_t>(perm_[static_cast<std::size_t>(k)])] =
        k;
  }
  BuildPattern(a);

  // Compose an elimination-tree postorder onto the fill order. A postorder
  // is fill-equivalent (it only relabels within subtrees) but makes every
  // etree chain occupy adjacent columns, which is what lets the supernode
  // partition find wide panels. The pattern is then relabelled into the
  // composed order; a postorder of the reordered tree is the identity, so
  // the result is stable.
  ComputeEtree();
  std::vector<std::int32_t> post = EtreePostOrder();
  bool identity = true;
  for (int k = 0; k < n_ && identity; ++k) {
    identity = post[static_cast<std::size_t>(k)] == k;
  }
  if (!identity) {
    std::vector<std::int32_t> composed(static_cast<std::size_t>(n_), 0);
    for (int k = 0; k < n_; ++k) {
      composed[static_cast<std::size_t>(k)] =
          perm_[static_cast<std::size_t>(post[static_cast<std::size_t>(k)])];
    }
    perm_ = std::move(composed);
    for (int k = 0; k < n_; ++k) {
      inv_perm_[static_cast<std::size_t>(
          perm_[static_cast<std::size_t>(k)])] = k;
    }
    RelabelPattern(post);
  }
  up_val_.assign(up_row_.size(), 0.0);
  diag_pos_.assign(static_cast<std::size_t>(n_), 0);
  for (int j = 0; j < n_; ++j) {
    const std::size_t pj =
        static_cast<std::size_t>(inv_perm_[static_cast<std::size_t>(j)]);
    const std::int64_t pos = up_ptr_[pj + 1] - 1;
    LUBT_ASSERT(up_row_[static_cast<std::size_t>(pos)] ==
                static_cast<std::int32_t>(pj));
    diag_pos_[static_cast<std::size_t>(j)] = pos;
  }

  ScatterAll(a);
  BuildSymbolic();
}

void SparseNormalFactor::BuildPattern(const CompiledLpModel& a) {
  // Column sweep over A's cached CSC: column c of the permuted upper
  // pattern holds every position inv_perm[k] < c of a column k that shares
  // a row with perm[c]. A mark per position keeps each one once, one short
  // sort per column makes the rows ascend, and the diagonal (always
  // present, because every Newton system adds diag(z/x) > 0) goes last.
  // Only up_ptr_/up_row_ are built; Analyze sizes values and diagonals once
  // the pattern is final.
  up_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  up_row_.clear();
  std::vector<std::int32_t> mark(static_cast<std::size_t>(n_), -1);
  for (std::int32_t c = 0; c < n_; ++c) {
    const std::size_t first = up_row_.size();
    const std::size_t j =
        static_cast<std::size_t>(perm_[static_cast<std::size_t>(c)]);
    for (std::int64_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      const std::size_t i =
          static_cast<std::size_t>(a.row[static_cast<std::size_t>(p)]);
      for (std::int64_t q = a.row_ptr[i]; q < a.row_ptr[i + 1]; ++q) {
        const std::int32_t r = inv_perm_[static_cast<std::size_t>(
            a.col[static_cast<std::size_t>(q)])];
        if (r < c && mark[static_cast<std::size_t>(r)] != c) {
          mark[static_cast<std::size_t>(r)] = c;
          up_row_.push_back(r);
        }
      }
    }
    std::sort(up_row_.begin() + static_cast<std::ptrdiff_t>(first),
              up_row_.end());
    up_row_.push_back(c);
    up_ptr_[static_cast<std::size_t>(c) + 1] =
        static_cast<std::int64_t>(up_row_.size());
  }
}

void SparseNormalFactor::RelabelPattern(const std::vector<std::int32_t>& post) {
  // Column k takes old column post[k] with every row relabelled. An entry
  // (r, c), r < c, makes r an elimination-tree descendant of c, and a
  // postorder numbers descendants first, so the relabelled rows stay above
  // the diagonal; one short sort per column restores ascending order.
  std::vector<std::int32_t> relabel(static_cast<std::size_t>(n_), 0);
  for (int k = 0; k < n_; ++k) {
    relabel[static_cast<std::size_t>(post[static_cast<std::size_t>(k)])] = k;
  }
  std::vector<std::int64_t> ptr(static_cast<std::size_t>(n_) + 1, 0);
  std::vector<std::int32_t> rows;
  rows.reserve(up_row_.size());
  for (int k = 0; k < n_; ++k) {
    const std::size_t old =
        static_cast<std::size_t>(post[static_cast<std::size_t>(k)]);
    for (std::int64_t p = up_ptr_[old]; p < up_ptr_[old + 1]; ++p) {
      rows.push_back(relabel[static_cast<std::size_t>(
          up_row_[static_cast<std::size_t>(p)])]);
    }
    std::sort(rows.begin() + ptr[static_cast<std::size_t>(k)], rows.end());
    ptr[static_cast<std::size_t>(k) + 1] =
        static_cast<std::int64_t>(rows.size());
  }
  // Copy back rather than move, so the members keep their storage.
  up_ptr_ = ptr;
  up_row_.assign(rows.begin(), rows.end());
}

void SparseNormalFactor::ComputeEtree() {
  // Liu's algorithm with path compression on the permuted upper pattern.
  etree_.assign(static_cast<std::size_t>(n_), -1);
  std::vector<std::int32_t> ancestor(static_cast<std::size_t>(n_), -1);
  for (int k = 0; k < n_; ++k) {
    for (std::int64_t p = up_ptr_[static_cast<std::size_t>(k)];
         p < up_ptr_[static_cast<std::size_t>(k) + 1]; ++p) {
      std::int32_t i = up_row_[static_cast<std::size_t>(p)];
      while (i != -1 && i < k) {
        const std::int32_t next = ancestor[static_cast<std::size_t>(i)];
        ancestor[static_cast<std::size_t>(i)] = k;
        if (next == -1) etree_[static_cast<std::size_t>(i)] = k;
        i = next;
      }
    }
  }
}

std::vector<std::int32_t> SparseNormalFactor::EtreePostOrder() const {
  // Deterministic iterative postorder: children and roots are visited in
  // ascending column order. post[k] = old position labelled k-th.
  std::vector<std::int32_t> child_ptr(static_cast<std::size_t>(n_) + 1, 0);
  for (int j = 0; j < n_; ++j) {
    const std::int32_t p = etree_[static_cast<std::size_t>(j)];
    if (p >= 0) ++child_ptr[static_cast<std::size_t>(p) + 1];
  }
  for (int j = 0; j < n_; ++j) {
    child_ptr[static_cast<std::size_t>(j) + 1] +=
        child_ptr[static_cast<std::size_t>(j)];
  }
  std::vector<std::int32_t> child(static_cast<std::size_t>(n_), 0);
  std::vector<std::int32_t> fill(child_ptr.begin(), child_ptr.end() - 1);
  for (int j = 0; j < n_; ++j) {
    const std::int32_t p = etree_[static_cast<std::size_t>(j)];
    if (p >= 0) {
      child[static_cast<std::size_t>(fill[static_cast<std::size_t>(p)]++)] = j;
    }
  }
  std::vector<std::int32_t> post;
  post.reserve(static_cast<std::size_t>(n_));
  std::vector<std::int32_t> node_stack;
  std::vector<std::int32_t> cursor_stack;
  for (int r = 0; r < n_; ++r) {
    if (etree_[static_cast<std::size_t>(r)] >= 0) continue;  // roots only
    node_stack.push_back(r);
    cursor_stack.push_back(child_ptr[static_cast<std::size_t>(r)]);
    while (!node_stack.empty()) {
      const std::int32_t v = node_stack.back();
      std::int32_t& cur = cursor_stack.back();
      if (cur < child_ptr[static_cast<std::size_t>(v) + 1]) {
        const std::int32_t c = child[static_cast<std::size_t>(cur)];
        ++cur;
        node_stack.push_back(c);
        cursor_stack.push_back(child_ptr[static_cast<std::size_t>(c)]);
      } else {
        post.push_back(v);
        node_stack.pop_back();
        cursor_stack.pop_back();
      }
    }
  }
  LUBT_ASSERT(static_cast<int>(post.size()) == n_);
  return post;
}

void SparseNormalFactor::ScatterAll(const CompiledLpModel& a) {
  // Row i's pair (ia, ib), ib <= ia, lives at scatter_ptr_[i] +
  // ia (ia + 1) / 2 + ib. Each pair belongs to the later of its two
  // permuted columns, so one sweep over the columns c, with a dense map from
  // row to position in column c's pattern, writes every slot exactly once.
  const std::size_t rows = static_cast<std::size_t>(a.num_rows);
  scatter_ptr_.assign(rows + 1, 0);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::int64_t len = a.row_ptr[i + 1] - a.row_ptr[i];
    scatter_ptr_[i + 1] = scatter_ptr_[i] + len * (len + 1) / 2;
  }
  constexpr std::int32_t kMaxPos = std::numeric_limits<std::int32_t>::max();
  LUBT_ASSERT(up_row_.size() <= static_cast<std::size_t>(kMaxPos));
  scatter_pos_.assign(static_cast<std::size_t>(scatter_ptr_.back()), -1);

  // Local index within its row of every CSC entry: replaying the CSC's
  // counting sort visits each column's rows in the same ascending order.
  std::vector<std::int32_t> local(a.row.size(), 0);
  std::vector<std::int64_t> cursor(a.col_ptr.begin(), a.col_ptr.end() - 1);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::int64_t q = a.row_ptr[i]; q < a.row_ptr[i + 1]; ++q) {
      const std::size_t j =
          static_cast<std::size_t>(a.col[static_cast<std::size_t>(q)]);
      local[static_cast<std::size_t>(cursor[j]++)] =
          static_cast<std::int32_t>(q - a.row_ptr[i]);
    }
  }

  std::vector<std::int32_t> where(static_cast<std::size_t>(n_), -1);
  for (std::int32_t c = 0; c < n_; ++c) {
    for (std::int64_t p = up_ptr_[static_cast<std::size_t>(c)];
         p < up_ptr_[static_cast<std::size_t>(c) + 1]; ++p) {
      where[static_cast<std::size_t>(up_row_[static_cast<std::size_t>(p)])] =
          static_cast<std::int32_t>(p);
    }
    const std::size_t j =
        static_cast<std::size_t>(perm_[static_cast<std::size_t>(c)]);
    for (std::int64_t p = a.col_ptr[j]; p < a.col_ptr[j + 1]; ++p) {
      const std::size_t i =
          static_cast<std::size_t>(a.row[static_cast<std::size_t>(p)]);
      const std::int64_t ia = local[static_cast<std::size_t>(p)];
      const std::int64_t begin = a.row_ptr[i];
      LUBT_DCHECK(a.col[static_cast<std::size_t>(begin + ia)] ==
                  static_cast<std::int32_t>(j));
      for (std::int64_t ib = 0; ib < a.row_ptr[i + 1] - begin; ++ib) {
        const std::int32_t r = inv_perm_[static_cast<std::size_t>(
            a.col[static_cast<std::size_t>(begin + ib)])];
        if (r > c) continue;  // the pair belongs to r's column
        const std::int64_t hi = std::max(ia, ib);
        const std::int64_t lo = std::min(ia, ib);
        scatter_pos_[static_cast<std::size_t>(scatter_ptr_[i] +
                                              hi * (hi + 1) / 2 + lo)] =
            where[static_cast<std::size_t>(r)];
      }
    }
  }
  LUBT_DCHECK(std::find(scatter_pos_.begin(), scatter_pos_.end(), -1) ==
              scatter_pos_.end());
  analyzed_rows_ = a.num_rows;
  analyzed_nnz_ = a.row_ptr[rows];
}

std::int64_t SparseNormalFactor::FindEntry(std::int32_t r,
                                           std::int32_t c) const {
  const auto begin = up_row_.begin() + up_ptr_[static_cast<std::size_t>(c)];
  const auto end = up_row_.begin() + up_ptr_[static_cast<std::size_t>(c) + 1];
  const auto it = std::lower_bound(begin, end, r);
  if (it == end || *it != r) return -1;
  return it - up_row_.begin();
}

bool SparseNormalFactor::AppendScatter(const CompiledLpModel& a,
                                       int first_row) {
  // The new rows' positions are staged apart, so a refused extension (the
  // usual outcome) leaves scatter_pos_, which ScatterAll sizes exactly,
  // without a speculative reallocation.
  std::vector<std::int32_t> added;
  for (int i = first_row; i < a.num_rows; ++i) {
    const std::int64_t begin = a.row_ptr[static_cast<std::size_t>(i)];
    const std::int64_t end = a.row_ptr[static_cast<std::size_t>(i) + 1];
    for (std::int64_t pa = begin; pa < end; ++pa) {
      const std::int32_t ca =
          inv_perm_[static_cast<std::size_t>(a.col[static_cast<std::size_t>(pa)])];
      for (std::int64_t pb = begin; pb <= pa; ++pb) {
        const std::int32_t cb = inv_perm_[static_cast<std::size_t>(
            a.col[static_cast<std::size_t>(pb)])];
        const std::int64_t pos =
            FindEntry(std::min(ca, cb), std::max(ca, cb));
        if (pos < 0) return false;  // outside the analyzed pattern
        added.push_back(static_cast<std::int32_t>(pos));
      }
    }
  }
  for (int i = first_row; i < a.num_rows; ++i) {
    const std::int64_t len = a.row_ptr[static_cast<std::size_t>(i) + 1] -
                             a.row_ptr[static_cast<std::size_t>(i)];
    scatter_ptr_.push_back(scatter_ptr_.back() + len * (len + 1) / 2);
  }
  scatter_pos_.insert(scatter_pos_.end(), added.begin(), added.end());
  analyzed_rows_ = a.num_rows;
  analyzed_nnz_ = a.row_ptr[static_cast<std::size_t>(a.num_rows)];
  return true;
}

bool SparseNormalFactor::TryExtend(const CompiledLpModel& a) {
  if (!analyzed() || a.num_cols != n_) return false;
  if (a.num_rows < analyzed_rows_) return false;
  // The analyzed prefix must be unchanged; nnz agreement is the cheap
  // proxy (the append-only contract is the caller's responsibility).
  if (a.row_ptr[static_cast<std::size_t>(analyzed_rows_)] != analyzed_nnz_) {
    return false;
  }
  if (a.num_rows == analyzed_rows_) return true;
  return AppendScatter(a, analyzed_rows_);
}

void SparseNormalFactor::BuildSymbolic() {
  ComputeEtree();

  stamp_.assign(static_cast<std::size_t>(n_), -1);
  stack_.assign(static_cast<std::size_t>(n_), 0);
  // Column counts of L via ereach: entry (k, i) lands in column i.
  std::vector<std::int64_t> count(static_cast<std::size_t>(n_), 1);  // diag
  for (int k = 0; k < n_; ++k) {
    const int top = Ereach(k);
    for (int t = top; t < n_; ++t) {
      ++count[static_cast<std::size_t>(stack_[static_cast<std::size_t>(t)])];
    }
  }
  l_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  for (int j = 0; j < n_; ++j) {
    l_ptr_[static_cast<std::size_t>(j) + 1] =
        l_ptr_[static_cast<std::size_t>(j)] +
        count[static_cast<std::size_t>(j)];
  }
  l_row_.assign(static_cast<std::size_t>(l_ptr_.back()), 0);
  l_val_.assign(static_cast<std::size_t>(l_ptr_.back()), 0.0);
  cursor_.assign(static_cast<std::size_t>(n_), 0);
  work_.assign(static_cast<std::size_t>(n_), 0.0);
  solve_buf_.assign(static_cast<std::size_t>(n_), 0.0);

  // Static symbolic fill of l_row_: replay the numeric kernel's append
  // order (per column: diagonal at iteration k, then row entries from the
  // later iterations in ascending k), so the simplicial kernel writes the
  // same rows numerically and the supernodal kernel can read L's pattern
  // up front.
  std::fill(stamp_.begin(), stamp_.end(), -1);
  std::copy(l_ptr_.begin(), l_ptr_.end() - 1, cursor_.begin());
  for (int k = 0; k < n_; ++k) {
    l_row_[static_cast<std::size_t>(cursor_[static_cast<std::size_t>(k)]++)] =
        k;
    const int top = Ereach(k);
    for (int t = top; t < n_; ++t) {
      const std::int32_t i = stack_[static_cast<std::size_t>(t)];
      l_row_[static_cast<std::size_t>(
          cursor_[static_cast<std::size_t>(i)]++)] = k;
    }
  }

  BuildSupernodes(count);
  BuildSchedule();
  factored_supernodal_ = false;
}

void SparseNormalFactor::SetMode(IpmFactorMode mode) { mode_ = mode; }

void SparseNormalFactor::BuildSupernodes(
    const std::vector<std::int64_t>& count) {
  // Fundamental supernodes: column j+1 extends j's chain when it is j's
  // elimination-tree parent and their L patterns nest exactly (equal counts
  // plus the containment theorem give pattern(j) \ {j} == pattern(j+1)).
  std::vector<std::int32_t> fund;
  fund.push_back(0);
  for (int j = 1; j < n_; ++j) {
    const bool chain =
        etree_[static_cast<std::size_t>(j) - 1] == j &&
        count[static_cast<std::size_t>(j) - 1] ==
            count[static_cast<std::size_t>(j)] + 1;
    if (!chain) fund.push_back(j);
  }
  fund.push_back(n_);

  // Relaxed amalgamation: greedily merge an adjacent chained pair when the
  // merged panel stays within the width/padding caps. csum makes the exact
  // padded-zero count of a candidate merge O(1).
  std::vector<std::int64_t> csum(static_cast<std::size_t>(n_) + 1, 0);
  for (int j = 0; j < n_; ++j) {
    csum[static_cast<std::size_t>(j) + 1] =
        csum[static_cast<std::size_t>(j)] + count[static_cast<std::size_t>(j)];
  }
  sn_start_.clear();
  if (n_ > 0) {
    std::int32_t first = fund[0];
    for (std::size_t g = 1; g + 1 < fund.size(); ++g) {
      const std::int32_t mid = fund[g];       // candidate join column
      const std::int32_t last = fund[g + 1] - 1;
      const std::int64_t width = last - first + 1;
      const std::int64_t below = count[static_cast<std::size_t>(last)] - 1;
      const std::int64_t entries =
          width * (width + 1) / 2 + width * below;
      const std::int64_t true_nnz = csum[static_cast<std::size_t>(last) + 1] -
                                    csum[static_cast<std::size_t>(first)];
      const double zero_frac =
          static_cast<double>(entries - true_nnz) /
          static_cast<double>(entries);
      const bool merge =
          etree_[static_cast<std::size_t>(mid) - 1] == mid &&
          ((width <= kAmalgWidth0 && zero_frac <= kAmalgZero0) ||
           (width <= kAmalgWidth1 && zero_frac <= kAmalgZero1) ||
           (width <= kAmalgWidth2 && zero_frac <= kAmalgZero2));
      if (!merge) {
        sn_start_.push_back(first);
        first = mid;
      }
    }
    sn_start_.push_back(first);
  }
  sn_start_.push_back(n_);

  const int nsup = NumSupernodes();
  sn_of_col_.assign(static_cast<std::size_t>(n_), 0);
  for (int s = 0; s < nsup; ++s) {
    for (std::int32_t j = sn_start_[static_cast<std::size_t>(s)];
         j < sn_start_[static_cast<std::size_t>(s) + 1]; ++j) {
      sn_of_col_[static_cast<std::size_t>(j)] = s;
    }
  }

  // Panel rows R_s (member columns, then the last member's below pattern —
  // which contains every member's below pattern by chain containment) and
  // the column-major panel extents.
  sn_rows_ptr_.assign(static_cast<std::size_t>(nsup) + 1, 0);
  sn_panel_ptr_.assign(static_cast<std::size_t>(nsup) + 1, 0);
  std::int64_t max_rows = 0;
  for (int s = 0; s < nsup; ++s) {
    const std::int32_t first = sn_start_[static_cast<std::size_t>(s)];
    const std::int32_t last = sn_start_[static_cast<std::size_t>(s) + 1] - 1;
    const std::int64_t width = last - first + 1;
    const std::int64_t rows =
        width + (l_ptr_[static_cast<std::size_t>(last) + 1] -
                 l_ptr_[static_cast<std::size_t>(last)] - 1);
    max_rows = std::max(max_rows, rows);
    sn_rows_ptr_[static_cast<std::size_t>(s) + 1] =
        sn_rows_ptr_[static_cast<std::size_t>(s)] + rows;
    sn_panel_ptr_[static_cast<std::size_t>(s) + 1] =
        sn_panel_ptr_[static_cast<std::size_t>(s)] + rows * width;
  }
  sn_rows_.assign(static_cast<std::size_t>(sn_rows_ptr_.back()), 0);
  for (int s = 0; s < nsup; ++s) {
    const std::int32_t first = sn_start_[static_cast<std::size_t>(s)];
    const std::int32_t last = sn_start_[static_cast<std::size_t>(s) + 1] - 1;
    std::int64_t q = sn_rows_ptr_[static_cast<std::size_t>(s)];
    for (std::int32_t j = first; j <= last; ++j) {
      sn_rows_[static_cast<std::size_t>(q++)] = j;
    }
    for (std::int64_t p = l_ptr_[static_cast<std::size_t>(last)] + 1;
         p < l_ptr_[static_cast<std::size_t>(last) + 1]; ++p) {
      sn_rows_[static_cast<std::size_t>(q++)] =
          l_row_[static_cast<std::size_t>(p)];
    }
  }
  sn_val_.assign(static_cast<std::size_t>(sn_panel_ptr_.back()), 0.0);
  solve_tmp_.assign(static_cast<std::size_t>(std::max<std::int64_t>(
                        max_rows, 1)),
                    0.0);

  // Assembly map: every upper-pattern entry (r, k) of M is the lower-
  // triangle entry (k, r), which lives in column r's supernode at panel
  // row index-of-k. The index is the member offset when k is a member,
  // else a binary search in the (sorted) below part.
  sn_asm_src_.clear();
  sn_asm_dst_.clear();
  sn_asm_src_.reserve(up_row_.size());
  sn_asm_dst_.reserve(up_row_.size());
  for (int k = 0; k < n_; ++k) {
    for (std::int64_t p = up_ptr_[static_cast<std::size_t>(k)];
         p < up_ptr_[static_cast<std::size_t>(k) + 1]; ++p) {
      const std::int32_t r = up_row_[static_cast<std::size_t>(p)];
      const int s = sn_of_col_[static_cast<std::size_t>(r)];
      const std::int32_t first = sn_start_[static_cast<std::size_t>(s)];
      const std::int32_t width =
          sn_start_[static_cast<std::size_t>(s) + 1] - first;
      const std::int64_t rbeg = sn_rows_ptr_[static_cast<std::size_t>(s)];
      const std::int64_t rlen =
          sn_rows_ptr_[static_cast<std::size_t>(s) + 1] - rbeg;
      std::int64_t idx;
      if (k < first + width) {
        idx = k - first;
      } else {
        const auto begin = sn_rows_.begin() + rbeg + width;
        const auto end = sn_rows_.begin() + rbeg + rlen;
        const auto it = std::lower_bound(begin, end, k);
        LUBT_ASSERT(it != end && *it == k);
        idx = (it - sn_rows_.begin()) - rbeg;
      }
      sn_asm_src_.push_back(p);
      sn_asm_dst_.push_back(sn_panel_ptr_[static_cast<std::size_t>(s)] +
                            static_cast<std::int64_t>(r - first) * rlen + idx);
    }
  }
}

void SparseNormalFactor::BuildSchedule() {
  const int nsup = NumSupernodes();
  // Pass 1: count update entries per target (a target run is a maximal
  // below-row slice of one source landing in one supernode's columns).
  std::vector<std::int64_t> tcount(static_cast<std::size_t>(nsup) + 1, 0);
  for (int s = 0; s < nsup; ++s) {
    const std::int32_t width = sn_start_[static_cast<std::size_t>(s) + 1] -
                               sn_start_[static_cast<std::size_t>(s)];
    const std::int64_t rbeg = sn_rows_ptr_[static_cast<std::size_t>(s)];
    const std::int64_t rend = sn_rows_ptr_[static_cast<std::size_t>(s) + 1];
    int prev = -1;
    for (std::int64_t i = rbeg + width; i < rend; ++i) {
      const int t = sn_of_col_[static_cast<std::size_t>(
          sn_rows_[static_cast<std::size_t>(i)])];
      if (t != prev) {
        ++tcount[static_cast<std::size_t>(t) + 1];
        prev = t;
      }
    }
  }
  sn_upd_ptr_.assign(static_cast<std::size_t>(nsup) + 1, 0);
  for (int t = 0; t < nsup; ++t) {
    sn_upd_ptr_[static_cast<std::size_t>(t) + 1] =
        sn_upd_ptr_[static_cast<std::size_t>(t)] +
        tcount[static_cast<std::size_t>(t) + 1];
  }
  const std::size_t nupd = static_cast<std::size_t>(sn_upd_ptr_.back());
  sn_upd_src_.assign(nupd, 0);
  sn_upd_begin_.assign(nupd, 0);
  sn_upd_len_.assign(nupd, 0);
  std::vector<std::int64_t> fill(sn_upd_ptr_.begin(), sn_upd_ptr_.end() - 1);
  for (int s = 0; s < nsup; ++s) {
    const std::int32_t width = sn_start_[static_cast<std::size_t>(s) + 1] -
                               sn_start_[static_cast<std::size_t>(s)];
    const std::int64_t rbeg = sn_rows_ptr_[static_cast<std::size_t>(s)];
    const std::int64_t rend = sn_rows_ptr_[static_cast<std::size_t>(s) + 1];
    std::int64_t i = rbeg + width;
    while (i < rend) {
      const int t = sn_of_col_[static_cast<std::size_t>(
          sn_rows_[static_cast<std::size_t>(i)])];
      std::int64_t j = i + 1;
      while (j < rend &&
             sn_of_col_[static_cast<std::size_t>(
                 sn_rows_[static_cast<std::size_t>(j)])] == t) {
        ++j;
      }
      const std::int64_t e = fill[static_cast<std::size_t>(t)]++;
      sn_upd_src_[static_cast<std::size_t>(e)] = s;
      sn_upd_begin_[static_cast<std::size_t>(e)] =
          static_cast<std::int32_t>(i - rbeg);
      sn_upd_len_[static_cast<std::size_t>(e)] =
          static_cast<std::int32_t>(j - i);
      i = j;
    }
  }

  // Factor scratch, sized here so the numeric factor never allocates.
  relmap_.assign(static_cast<std::size_t>(n_), 0);
  cbuf_.assign(solve_tmp_.size(), 0.0);

  // Contiguity flags: an update whose rows sit consecutively in the target
  // panel (checked once here against relmap_) skips the gather/scatter path
  // in ProcessSupernode.
  sn_upd_contig_.assign(nupd, 0);
  sn_upd_base_.assign(nupd, 0);
  for (int t = 0; t < nsup; ++t) {
    const std::int64_t tbeg = sn_rows_ptr_[static_cast<std::size_t>(t)];
    const std::int64_t tlen =
        sn_rows_ptr_[static_cast<std::size_t>(t) + 1] - tbeg;
    for (std::int64_t i = 0; i < tlen; ++i) {
      relmap_[static_cast<std::size_t>(
          sn_rows_[static_cast<std::size_t>(tbeg + i)])] =
          static_cast<std::int32_t>(i);
    }
    for (std::int64_t e = sn_upd_ptr_[static_cast<std::size_t>(t)];
         e < sn_upd_ptr_[static_cast<std::size_t>(t) + 1]; ++e) {
      const std::int32_t src = sn_upd_src_[static_cast<std::size_t>(e)];
      const std::int64_t u0 = sn_upd_begin_[static_cast<std::size_t>(e)];
      const std::int64_t srbeg = sn_rows_ptr_[static_cast<std::size_t>(src)];
      const std::int64_t srlen =
          sn_rows_ptr_[static_cast<std::size_t>(src) + 1] - srbeg;
      const std::int32_t* srows = sn_rows_.data() + srbeg;
      const std::int32_t base = relmap_[static_cast<std::size_t>(srows[u0])];
      bool contig = true;
      for (std::int64_t i = u0 + 1; i < srlen && contig; ++i) {
        contig = relmap_[static_cast<std::size_t>(srows[i])] ==
                 base + static_cast<std::int32_t>(i - u0);
      }
      sn_upd_contig_[static_cast<std::size_t>(e)] = contig ? 1 : 0;
      sn_upd_base_[static_cast<std::size_t>(e)] = base;
    }
  }
}

int SparseNormalFactor::Ereach(int k) {
  // Pattern of row k of L: nodes reachable from the scattered rows of
  // permuted-A column k by climbing the etree until hitting k (every such
  // row has k as an etree ancestor). Topological order, stack_[top..n).
  int top = n_;
  stamp_[static_cast<std::size_t>(k)] = k;
  for (std::int64_t p = up_ptr_[static_cast<std::size_t>(k)];
       p < up_ptr_[static_cast<std::size_t>(k) + 1]; ++p) {
    std::int32_t i = up_row_[static_cast<std::size_t>(p)];
    if (i >= k) continue;
    int len = 0;
    while (i != -1 && stamp_[static_cast<std::size_t>(i)] != k) {
      LUBT_DCHECK(i < k);
      stack_[static_cast<std::size_t>(len++)] = i;
      stamp_[static_cast<std::size_t>(i)] = k;
      i = etree_[static_cast<std::size_t>(i)];
    }
    while (len > 0) {
      stack_[static_cast<std::size_t>(--top)] =
          stack_[static_cast<std::size_t>(--len)];
    }
  }
  return top;
}

bool SparseNormalFactor::Factor(const CompiledLpModel& a,
                                std::span<const double> row_weight,
                                std::span<const double> diag) {
  LUBT_ASSERT(analyzed() && a.num_cols == n_ && a.num_rows == analyzed_rows_);
  LUBT_ASSERT(row_weight.size() == static_cast<std::size_t>(a.num_rows));
  LUBT_ASSERT(diag.size() == static_cast<std::size_t>(n_));

  // Assemble M into the fixed pattern through the precomputed positions.
  std::fill(up_val_.begin(), up_val_.end(), 0.0);
  for (int j = 0; j < n_; ++j) {
    up_val_[static_cast<std::size_t>(diag_pos_[static_cast<std::size_t>(j)])] +=
        diag[static_cast<std::size_t>(j)];
  }
  std::int64_t c = 0;
  for (int i = 0; i < a.num_rows; ++i) {
    const double w = row_weight[static_cast<std::size_t>(i)];
    const std::int64_t begin = a.row_ptr[static_cast<std::size_t>(i)];
    const std::int64_t end = a.row_ptr[static_cast<std::size_t>(i) + 1];
    for (std::int64_t pa = begin; pa < end; ++pa) {
      const double wa = w * a.val[static_cast<std::size_t>(pa)];
      for (std::int64_t pb = begin; pb <= pa; ++pb) {
        up_val_[static_cast<std::size_t>(
            scatter_pos_[static_cast<std::size_t>(c++)])] +=
            wa * a.val[static_cast<std::size_t>(pb)];
      }
    }
  }
  LUBT_DCHECK(c == scatter_ptr_.back());

  // Escalating diagonal regularization: 1e-12 of the mean diagonal, then
  // 1e4 times more per retry.
  attempts_ = 0;
  double reg = 0.0;
  const bool supernodal = mode_ == IpmFactorMode::kSupernodal;
  for (int attempt = 0; attempt < 4; ++attempt) {
    if (supernodal ? FactorAttemptSupernodal(reg) : FactorAttempt(reg)) {
      factored_supernodal_ = supernodal;
      return true;
    }
    double trace = 0.0;
    for (int k = 0; k < n_; ++k) {
      trace += up_val_[static_cast<std::size_t>(
          up_ptr_[static_cast<std::size_t>(k) + 1] - 1)];
    }
    const double base = std::max(trace / n_, 1.0) * 1e-12;
    reg = reg == 0.0 ? base : reg * 1e4;
    attempts_ = attempt + 1;
  }
  return false;
}

bool SparseNormalFactor::FactorAttempt(double reg) {
  std::fill(stamp_.begin(), stamp_.end(), -1);
  std::copy(l_ptr_.begin(), l_ptr_.end() - 1, cursor_.begin());
  // work_ is all-zero here and is restored to all-zero on every exit path.
  for (int k = 0; k < n_; ++k) {
    double d = reg;
    for (std::int64_t p = up_ptr_[static_cast<std::size_t>(k)];
         p < up_ptr_[static_cast<std::size_t>(k) + 1]; ++p) {
      const std::int32_t i = up_row_[static_cast<std::size_t>(p)];
      if (i == k) {
        d += up_val_[static_cast<std::size_t>(p)];
      } else {
        work_[static_cast<std::size_t>(i)] =
            up_val_[static_cast<std::size_t>(p)];
      }
    }
    const int top = Ereach(k);
    for (int t = top; t < n_; ++t) {
      const std::int32_t i = stack_[static_cast<std::size_t>(t)];
      const double lki =
          work_[static_cast<std::size_t>(i)] /
          l_val_[static_cast<std::size_t>(l_ptr_[static_cast<std::size_t>(i)])];
      work_[static_cast<std::size_t>(i)] = 0.0;
      for (std::int64_t p = l_ptr_[static_cast<std::size_t>(i)] + 1;
           p < cursor_[static_cast<std::size_t>(i)]; ++p) {
        work_[static_cast<std::size_t>(l_row_[static_cast<std::size_t>(p)])] -=
            l_val_[static_cast<std::size_t>(p)] * lki;
      }
      d -= lki * lki;
      const std::int64_t q = cursor_[static_cast<std::size_t>(i)]++;
      l_row_[static_cast<std::size_t>(q)] = k;
      l_val_[static_cast<std::size_t>(q)] = lki;
    }
    if (!(d > 0.0) || !std::isfinite(d)) return false;
    const std::int64_t q = cursor_[static_cast<std::size_t>(k)]++;
    l_row_[static_cast<std::size_t>(q)] = k;
    l_val_[static_cast<std::size_t>(q)] = std::sqrt(d);
  }
  return true;
}

bool SparseNormalFactor::FactorAttemptSupernodal(double reg) {
  // Seed the panels from the assembled upper pattern; padded amalgamation
  // slots stay exactly 0.0 (and remain 0.0 through the factorization).
  std::fill(sn_val_.begin(), sn_val_.end(), 0.0);
  for (std::size_t i = 0; i < sn_asm_src_.size(); ++i) {
    sn_val_[static_cast<std::size_t>(sn_asm_dst_[i])] =
        up_val_[static_cast<std::size_t>(sn_asm_src_[i])];
  }
  if (reg != 0.0) {
    for (int j = 0; j < n_; ++j) {
      const int s = sn_of_col_[static_cast<std::size_t>(j)];
      const std::int64_t c = j - sn_start_[static_cast<std::size_t>(s)];
      const std::int64_t rlen = sn_rows_ptr_[static_cast<std::size_t>(s) + 1] -
                                sn_rows_ptr_[static_cast<std::size_t>(s)];
      sn_val_[static_cast<std::size_t>(
          sn_panel_ptr_[static_cast<std::size_t>(s)] + c * rlen + c)] += reg;
    }
  }

  // Ascending supernode order puts every child before its parent, and each
  // target pulls its updates in the fixed sn_upd_* order.
  const int nsup = NumSupernodes();
  for (int s = 0; s < nsup; ++s) {
    if (!ProcessSupernode(s)) return false;
  }
  return true;
}

bool SparseNormalFactor::ProcessSupernode(int s) {
  const std::int32_t first = sn_start_[static_cast<std::size_t>(s)];
  const std::int64_t width =
      sn_start_[static_cast<std::size_t>(s) + 1] - first;
  const std::int64_t rbeg = sn_rows_ptr_[static_cast<std::size_t>(s)];
  const std::int64_t rlen = sn_rows_ptr_[static_cast<std::size_t>(s) + 1] -
                            rbeg;
  const std::int32_t* rows = sn_rows_.data() + rbeg;
  double* panel = sn_val_.data() + sn_panel_ptr_[static_cast<std::size_t>(s)];
  std::int32_t* relmap = relmap_.data();
  double* cbuf = cbuf_.data();
  bool relmap_filled = false;  // filled lazily: contiguous updates skip it

  // Pull the scheduled descendant updates. Per pivot row uj the update
  // column (rows uj..end of the source slice) is computed into cbuf by a
  // 4-way unrolled rank-width accumulation over contiguous source-panel
  // slices, then scatter-subtracted through relmap.
  for (std::int64_t e = sn_upd_ptr_[static_cast<std::size_t>(s)];
       e < sn_upd_ptr_[static_cast<std::size_t>(s) + 1]; ++e) {
    const std::int32_t src = sn_upd_src_[static_cast<std::size_t>(e)];
    const std::int64_t u0 = sn_upd_begin_[static_cast<std::size_t>(e)];
    const std::int64_t ulen = sn_upd_len_[static_cast<std::size_t>(e)];
    const std::int64_t sw = sn_start_[static_cast<std::size_t>(src) + 1] -
                            sn_start_[static_cast<std::size_t>(src)];
    const std::int64_t srbeg = sn_rows_ptr_[static_cast<std::size_t>(src)];
    const std::int64_t srlen =
        sn_rows_ptr_[static_cast<std::size_t>(src) + 1] - srbeg;
    const std::int32_t* srows = sn_rows_.data() + srbeg;
    const double* spanel =
        sn_val_.data() + sn_panel_ptr_[static_cast<std::size_t>(src)];
    const bool contig = sn_upd_contig_[static_cast<std::size_t>(e)] != 0;
    const std::int32_t ebase = sn_upd_base_[static_cast<std::size_t>(e)];
    if (!contig && !relmap_filled) {
      for (std::int64_t i = 0; i < rlen; ++i) {
        relmap[rows[i]] = static_cast<std::int32_t>(i);
      }
      relmap_filled = true;
    }
    for (std::int64_t uj = 0; uj < ulen; ++uj) {
      const std::int64_t o = u0 + uj;  // pivot row index in the source
      const std::int64_t len = srlen - o;
      double* dst = panel + static_cast<std::int64_t>(srows[o] - first) * rlen;
      if (contig) {
        // Rows land consecutively in the target: accumulate straight into
        // the panel, no staging buffer.
        double* out = dst + (ebase + uj);
        std::int64_t c = 0;
        for (; c + 4 <= sw; c += 4) {
          const double* col0 = spanel + c * srlen + o;
          const double* col1 = spanel + (c + 1) * srlen + o;
          const double* col2 = spanel + (c + 2) * srlen + o;
          const double* col3 = spanel + (c + 3) * srlen + o;
          const double lv0 = col0[0];
          const double lv1 = col1[0];
          const double lv2 = col2[0];
          const double lv3 = col3[0];
          for (std::int64_t i = 0; i < len; ++i) {
            out[i] -= lv0 * col0[i] + lv1 * col1[i] + lv2 * col2[i] +
                      lv3 * col3[i];
          }
        }
        for (; c < sw; ++c) {
          const double* col = spanel + c * srlen + o;
          const double lv = col[0];
          for (std::int64_t i = 0; i < len; ++i) out[i] -= lv * col[i];
        }
        continue;
      }
      // General path: stage the update column in cbuf (first column block
      // initializes, the rest accumulate), then scatter through relmap.
      std::int64_t c = std::min<std::int64_t>(4, sw);
      {
        const double* col0 = spanel + o;
        const double lv0 = col0[0];
        if (c == 4) {
          const double* col1 = spanel + srlen + o;
          const double* col2 = spanel + 2 * srlen + o;
          const double* col3 = spanel + 3 * srlen + o;
          const double lv1 = col1[0];
          const double lv2 = col2[0];
          const double lv3 = col3[0];
          for (std::int64_t i = 0; i < len; ++i) {
            cbuf[i] = lv0 * col0[i] + lv1 * col1[i] + lv2 * col2[i] +
                      lv3 * col3[i];
          }
        } else {
          for (std::int64_t i = 0; i < len; ++i) cbuf[i] = lv0 * col0[i];
          for (std::int64_t c2 = 1; c2 < c; ++c2) {
            const double* col = spanel + c2 * srlen + o;
            const double lv = col[0];
            for (std::int64_t i = 0; i < len; ++i) cbuf[i] += lv * col[i];
          }
        }
      }
      for (; c + 4 <= sw; c += 4) {
        const double* col0 = spanel + c * srlen + o;
        const double* col1 = spanel + (c + 1) * srlen + o;
        const double* col2 = spanel + (c + 2) * srlen + o;
        const double* col3 = spanel + (c + 3) * srlen + o;
        const double lv0 = col0[0];
        const double lv1 = col1[0];
        const double lv2 = col2[0];
        const double lv3 = col3[0];
        for (std::int64_t i = 0; i < len; ++i) {
          cbuf[i] += lv0 * col0[i] + lv1 * col1[i] + lv2 * col2[i] +
                     lv3 * col3[i];
        }
      }
      for (; c < sw; ++c) {
        const double* col = spanel + c * srlen + o;
        const double lv = col[0];
        for (std::int64_t i = 0; i < len; ++i) cbuf[i] += lv * col[i];
      }
      for (std::int64_t i = 0; i < len; ++i) {
        dst[relmap[srows[o + i]]] -= cbuf[i];
      }
    }
  }

  // Dense left-looking factor of the panel's trapezoid.
  for (std::int64_t c = 0; c < width; ++c) {
    double* colc = panel + c * rlen;
    for (std::int64_t c2 = 0; c2 < c; ++c2) {
      const double* col2 = panel + c2 * rlen;
      const double lv = col2[c];
      for (std::int64_t i = c; i < rlen; ++i) colc[i] -= lv * col2[i];
    }
    const double d = colc[c];
    if (!(d > 0.0) || !std::isfinite(d)) return false;
    const double piv = std::sqrt(d);
    colc[c] = piv;
    const double inv = 1.0 / piv;
    for (std::int64_t i = c + 1; i < rlen; ++i) colc[i] *= inv;
  }
  return true;
}

void SparseNormalFactor::Solve(std::span<double> b) const {
  if (factored_supernodal_) {
    SolveSupernodal(b);
  } else {
    SolveSimplicial(b);
  }
}

void SparseNormalFactor::SolveSupernodal(std::span<double> b) const {
  LUBT_ASSERT(b.size() == static_cast<std::size_t>(n_));
  std::vector<double>& y = solve_buf_;
  std::vector<double>& tmp = solve_tmp_;
  for (int k = 0; k < n_; ++k) {
    y[static_cast<std::size_t>(k)] =
        b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(k)])];
  }
  const int nsup = NumSupernodes();
  for (int s = 0; s < nsup; ++s) {  // L y = P b, block forward
    const std::int64_t width = sn_start_[static_cast<std::size_t>(s) + 1] -
                               sn_start_[static_cast<std::size_t>(s)];
    const std::int64_t rbeg = sn_rows_ptr_[static_cast<std::size_t>(s)];
    const std::int64_t rlen =
        sn_rows_ptr_[static_cast<std::size_t>(s) + 1] - rbeg;
    const std::int32_t* rows = sn_rows_.data() + rbeg;
    const double* panel =
        sn_val_.data() + sn_panel_ptr_[static_cast<std::size_t>(s)];
    for (std::int64_t i = 0; i < rlen; ++i) tmp[static_cast<std::size_t>(i)] =
        y[static_cast<std::size_t>(rows[i])];
    for (std::int64_t c = 0; c < width; ++c) {
      const double* col = panel + c * rlen;
      const double v = tmp[static_cast<std::size_t>(c)] / col[c];
      tmp[static_cast<std::size_t>(c)] = v;
      for (std::int64_t i = c + 1; i < rlen; ++i) {
        tmp[static_cast<std::size_t>(i)] -= col[i] * v;
      }
    }
    for (std::int64_t i = 0; i < rlen; ++i) {
      y[static_cast<std::size_t>(rows[i])] = tmp[static_cast<std::size_t>(i)];
    }
  }
  for (int s = nsup - 1; s >= 0; --s) {  // L' x = y, block backward
    const std::int64_t width = sn_start_[static_cast<std::size_t>(s) + 1] -
                               sn_start_[static_cast<std::size_t>(s)];
    const std::int64_t rbeg = sn_rows_ptr_[static_cast<std::size_t>(s)];
    const std::int64_t rlen =
        sn_rows_ptr_[static_cast<std::size_t>(s) + 1] - rbeg;
    const std::int32_t* rows = sn_rows_.data() + rbeg;
    const double* panel =
        sn_val_.data() + sn_panel_ptr_[static_cast<std::size_t>(s)];
    for (std::int64_t i = 0; i < rlen; ++i) tmp[static_cast<std::size_t>(i)] =
        y[static_cast<std::size_t>(rows[i])];
    for (std::int64_t c = width - 1; c >= 0; --c) {
      const double* col = panel + c * rlen;
      double acc = tmp[static_cast<std::size_t>(c)];
      for (std::int64_t i = c + 1; i < rlen; ++i) {
        acc -= col[i] * tmp[static_cast<std::size_t>(i)];
      }
      tmp[static_cast<std::size_t>(c)] = acc / col[c];
    }
    for (std::int64_t i = 0; i < width; ++i) {  // only member cols changed
      y[static_cast<std::size_t>(rows[i])] = tmp[static_cast<std::size_t>(i)];
    }
  }
  for (int k = 0; k < n_; ++k) {
    b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(k)])] =
        y[static_cast<std::size_t>(k)];
  }
}

void SparseNormalFactor::SolveSimplicial(std::span<double> b) const {
  LUBT_ASSERT(b.size() == static_cast<std::size_t>(n_));
  std::vector<double>& y = solve_buf_;
  for (int k = 0; k < n_; ++k) {
    y[static_cast<std::size_t>(k)] =
        b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(k)])];
  }
  for (int j = 0; j < n_; ++j) {  // L y = P b
    const double yj =
        y[static_cast<std::size_t>(j)] /
        l_val_[static_cast<std::size_t>(l_ptr_[static_cast<std::size_t>(j)])];
    y[static_cast<std::size_t>(j)] = yj;
    for (std::int64_t p = l_ptr_[static_cast<std::size_t>(j)] + 1;
         p < l_ptr_[static_cast<std::size_t>(j) + 1]; ++p) {
      y[static_cast<std::size_t>(l_row_[static_cast<std::size_t>(p)])] -=
          l_val_[static_cast<std::size_t>(p)] * yj;
    }
  }
  for (int j = n_ - 1; j >= 0; --j) {  // L' x = y
    double s = y[static_cast<std::size_t>(j)];
    for (std::int64_t p = l_ptr_[static_cast<std::size_t>(j)] + 1;
         p < l_ptr_[static_cast<std::size_t>(j) + 1]; ++p) {
      s -= l_val_[static_cast<std::size_t>(p)] *
           y[static_cast<std::size_t>(l_row_[static_cast<std::size_t>(p)])];
    }
    y[static_cast<std::size_t>(j)] =
        s /
        l_val_[static_cast<std::size_t>(l_ptr_[static_cast<std::size_t>(j)])];
  }
  for (int k = 0; k < n_; ++k) {
    b[static_cast<std::size_t>(perm_[static_cast<std::size_t>(k)])] =
        y[static_cast<std::size_t>(k)];
  }
}

}  // namespace lubt
