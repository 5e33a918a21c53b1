#include "topo/nn_merge.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "geom/trr.h"
#include "util/status.h"

namespace lubt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Cluster {
  NodeId node = kInvalidNode;
  Trr region;
  bool active = false;
  // Cached nearest active neighbour (may be stale; refreshed lazily).
  int nn = -1;
  double nn_dist = kInf;
  // Grid bookkeeping (kGridSoa only): cell index and the larger per-axis
  // half-extent of the region in diagonal coordinates.
  int cell = -1;
  double half = 0.0;
};

// Recompute the nearest active neighbour of cluster c by full scan.
// Ascending j with strict improvement == the lexicographic (distance, index)
// minimum; the grid backend reproduces exactly this order.
void RefreshNnScan(std::vector<Cluster>& clusters, int c) {
  Cluster& self = clusters[static_cast<std::size_t>(c)];
  self.nn = -1;
  self.nn_dist = kInf;
  for (int j = 0; j < static_cast<int>(clusters.size()); ++j) {
    if (j == c || !clusters[static_cast<std::size_t>(j)].active) continue;
    const double d =
        TrrDist(self.region, clusters[static_cast<std::size_t>(j)].region);
    if (d < self.nn_dist) {
      self.nn_dist = d;
      self.nn = j;
    }
  }
}

// Ring geometry of the grid backend: cell indexing over diagonal
// coordinates plus the Chebyshev ring walk. A ring at index
// r >= 1 can only hold clusters whose region is at L1 distance
// > (r-1)*cell - half(self) - max_half from the query region (cell
// indexing is monotone in each axis even under clamping, and
// TrrDist(a, b) >= Linf(centers) - half(a) - half(b)), so ring expansion
// stops as soon as that lower bound strictly exceeds the best candidate.
class GridGeometry {
 public:
  void Init(std::span<const Point> sinks) {
    double ulo = kInf, uhi = -kInf, vlo = kInf, vhi = -kInf;
    for (const Point& p : sinks) {
      const double u = p.x + p.y;
      const double v = p.y - p.x;
      ulo = std::min(ulo, u);
      uhi = std::max(uhi, u);
      vlo = std::min(vlo, v);
      vhi = std::max(vhi, v);
    }
    g_ = std::max(
        1, static_cast<int>(std::ceil(std::sqrt(
               static_cast<double>(sinks.size())))));
    const double span = std::max(uhi - ulo, vhi - vlo);
    cell_ = span > 0.0 ? span / g_ : 1.0;
    u0_ = ulo;
    v0_ = vlo;
  }

  int NumCells() const { return g_ * g_; }
  int CellOf(double cu, double cv) const {
    return Axis(cu, u0_) * g_ + Axis(cv, v0_);
  }
  // Monotone over everything ever inserted — a conservative bound keeps
  // the ring lower bound valid without per-removal recomputation.
  void NoteHalf(double half) { max_half_ = std::max(max_half_, half); }

  int MaxRing(int iu, int iv) const {
    return std::max(std::max(iu, g_ - 1 - iu), std::max(iv, g_ - 1 - iv));
  }

  // Conservative lower bound on the distance from the query region to any
  // region whose center lies in a ring-r cell. The 1e-9 slack absorbs the
  // (relative ~1e-16) rounding of the cell-index computation; it only makes
  // the search visit at most one extra ring.
  double RingLowerBound(int r, double self_half) const {
    const double lb = (r - 1) * cell_ - self_half - max_half_;
    return lb - 1e-9 * (1.0 + std::abs(lb));
  }

  // Visit the cell indices of ring r around (iu, iv), clipped to the grid,
  // in a fixed order.
  template <typename Fn>
  void VisitRing(int iu, int iv, int r, Fn&& fn) const {
    if (r == 0) {
      fn(static_cast<std::size_t>(iu) * g_ + iv);
      return;
    }
    const int xlo = std::max(0, iu - r);
    const int xhi = std::min(g_ - 1, iu + r);
    if (iv - r >= 0) {
      for (int x = xlo; x <= xhi; ++x) {
        fn(static_cast<std::size_t>(x) * g_ + (iv - r));
      }
    }
    if (iv + r <= g_ - 1) {
      for (int x = xlo; x <= xhi; ++x) {
        fn(static_cast<std::size_t>(x) * g_ + (iv + r));
      }
    }
    const int ylo = std::max(0, iv - r + 1);
    const int yhi = std::min(g_ - 1, iv + r - 1);
    for (int y = ylo; y <= yhi; ++y) {
      if (iu - r >= 0) fn(static_cast<std::size_t>(iu - r) * g_ + y);
      if (iu + r <= g_ - 1) {
        fn(static_cast<std::size_t>(iu + r) * g_ + y);
      }
    }
  }

  int g() const { return g_; }

 private:
  int Axis(double coord, double origin) const {
    const double t = std::floor((coord - origin) / cell_);
    if (t <= 0.0) return 0;
    if (t >= static_cast<double>(g_ - 1)) return g_ - 1;
    return static_cast<int>(t);
  }

  int g_ = 1;
  double cell_ = 1.0;
  double u0_ = 0.0;
  double v0_ = 0.0;
  double max_half_ = 0.0;
};

// Uniform grid over diagonal coordinates holding exactly the active
// clusters. Each cell stores the resident clusters' diagonal region bounds
// in parallel arrays, so the candidate scan is a branch-free TrrDistRaw
// reduction over contiguous doubles. Region bounds are copied at insert
// time and regions are immutable while resident. Ties at equal distance
// fall to the smallest cluster index, so the produced topology is bitwise
// the scan backend's.
class ClusterGridSoa {
 public:
  void Init(std::span<const Point> sinks) {
    geo_.Init(sinks);
    cells_.assign(static_cast<std::size_t>(geo_.NumCells()), {});
  }

  void Insert(std::vector<Cluster>& clusters, int idx) {
    Cluster& cl = clusters[static_cast<std::size_t>(idx)];
    cl.half = 0.5 * std::max(cl.region.U().Length(), cl.region.V().Length());
    geo_.NoteHalf(cl.half);
    cl.cell = geo_.CellOf(cl.region.U().Center(), cl.region.V().Center());
    Cell& cell = cells_[static_cast<std::size_t>(cl.cell)];
    cell.idx.push_back(idx);
    cell.u_lo.push_back(cl.region.U().lo);
    cell.u_hi.push_back(cl.region.U().hi);
    cell.v_lo.push_back(cl.region.V().lo);
    cell.v_hi.push_back(cl.region.V().hi);
  }

  void Remove(std::vector<Cluster>& clusters, int idx) {
    Cluster& cl = clusters[static_cast<std::size_t>(idx)];
    Cell& cell = cells_[static_cast<std::size_t>(cl.cell)];
    for (std::size_t k = 0; k < cell.idx.size(); ++k) {
      if (cell.idx[k] == idx) {
        cell.SwapRemove(k);
        break;
      }
    }
    cl.cell = -1;
  }

  // Grid-backed equivalent of RefreshNnScan: walk rings outward from the
  // cluster's cell until the ring lower bound exceeds the best candidate.
  void Refresh(std::vector<Cluster>& clusters, int c) const {
    Cluster& self = clusters[static_cast<std::size_t>(c)];
    self.nn = -1;
    self.nn_dist = kInf;
    const double su_lo = self.region.U().lo;
    const double su_hi = self.region.U().hi;
    const double sv_lo = self.region.V().lo;
    const double sv_hi = self.region.V().hi;
    const int iu = self.cell / geo_.g();
    const int iv = self.cell % geo_.g();
    const int rmax = geo_.MaxRing(iu, iv);
    for (int r = 0; r <= rmax; ++r) {
      if (self.nn >= 0 &&
          geo_.RingLowerBound(r, self.half) > self.nn_dist) {
        break;
      }
      geo_.VisitRing(iu, iv, r, [&](std::size_t ci) {
        const Cell& cell = cells_[ci];
        for (std::size_t k = 0; k < cell.idx.size(); ++k) {
          const int j = cell.idx[k];
          if (j == c) continue;
          const double d =
              TrrDistRaw(su_lo, su_hi, sv_lo, sv_hi, cell.u_lo[k],
                         cell.u_hi[k], cell.v_lo[k], cell.v_hi[k]);
          if (d < self.nn_dist || (d == self.nn_dist && j < self.nn)) {
            self.nn_dist = d;
            self.nn = j;
          }
        }
      });
    }
  }

  // One-sided newcomer update: offer cluster `nid` as a nearer neighbour to
  // every active cluster whose cached distance it beats. Any cluster with an
  // improvable cache has nn_dist <= dmax (the selection pass's maximum), so
  // rings whose lower bound exceeds dmax cannot produce an update.
  void OfferNewcomer(std::vector<Cluster>& clusters, int nid,
                     double dmax) const {
    const Cluster& next = clusters[static_cast<std::size_t>(nid)];
    const double nu_lo = next.region.U().lo;
    const double nu_hi = next.region.U().hi;
    const double nv_lo = next.region.V().lo;
    const double nv_hi = next.region.V().hi;
    const int iu = next.cell / geo_.g();
    const int iv = next.cell % geo_.g();
    const int rmax = geo_.MaxRing(iu, iv);
    for (int r = 0; r <= rmax; ++r) {
      if (geo_.RingLowerBound(r, next.half) > dmax) break;
      geo_.VisitRing(iu, iv, r, [&](std::size_t ci) {
        const Cell& cell = cells_[ci];
        for (std::size_t k = 0; k < cell.idx.size(); ++k) {
          const int j = cell.idx[k];
          if (j == nid) continue;
          // Lane-first argument order, as the scan's TrrDist(cl, next).
          const double d =
              TrrDistRaw(cell.u_lo[k], cell.u_hi[k], cell.v_lo[k],
                         cell.v_hi[k], nu_lo, nu_hi, nv_lo, nv_hi);
          Cluster& cl = clusters[static_cast<std::size_t>(j)];
          if (d < cl.nn_dist) {
            cl.nn_dist = d;
            cl.nn = nid;
          }
        }
      });
    }
  }

 private:
  struct Cell {
    std::vector<int> idx;
    std::vector<double> u_lo, u_hi, v_lo, v_hi;

    void SwapRemove(std::size_t k) {
      idx[k] = idx.back();
      idx.pop_back();
      u_lo[k] = u_lo.back();
      u_lo.pop_back();
      u_hi[k] = u_hi.back();
      u_hi.pop_back();
      v_lo[k] = v_lo.back();
      v_lo.pop_back();
      v_hi[k] = v_hi.back();
      v_hi.pop_back();
    }
  };

  GridGeometry geo_;
  std::vector<Cell> cells_;
};

}  // namespace

const char* NnMergeAccelName(NnMergeAccel accel) {
  switch (accel) {
    case NnMergeAccel::kGridSoa:
      return "grid-soa";
    case NnMergeAccel::kScan:
      return "scan";
  }
  return "unknown";
}

Topology NnMergeTopology(std::span<const Point> sinks,
                         const std::optional<Point>& source,
                         NnMergeAccel accel) {
  LUBT_ASSERT(!sinks.empty());
  const bool use_grid = accel == NnMergeAccel::kGridSoa;
  Topology topo;

  ClusterGridSoa grid;
  if (use_grid) grid.Init(sinks);
  std::vector<Cluster> clusters;
  clusters.reserve(2 * sinks.size());
  for (std::size_t s = 0; s < sinks.size(); ++s) {
    Cluster c;
    c.node = topo.AddSinkNode(static_cast<std::int32_t>(s));
    c.region = Trr::FromPoint(sinks[s]);
    c.active = true;
    clusters.push_back(c);
    if (use_grid) grid.Insert(clusters, static_cast<int>(clusters.size()) - 1);
  }

  const auto refresh = [&](int c) {
    if (use_grid) {
      grid.Refresh(clusters, c);
    } else {
      RefreshNnScan(clusters, c);
    }
  };

  int active_count = static_cast<int>(clusters.size());
  for (int c = 0; c < active_count; ++c) refresh(c);

  while (active_count > 1) {
    // Pick the cluster with the smallest cached nn distance whose cached
    // target is still active; refresh stale entries on the fly. dmax (the
    // largest cached distance among active clusters) caps how far the
    // newcomer update below can possibly reach.
    int best = -1;
    double dmax = 0.0;
    for (int c = 0; c < static_cast<int>(clusters.size()); ++c) {
      Cluster& cl = clusters[static_cast<std::size_t>(c)];
      if (!cl.active) continue;
      if (cl.nn < 0 || !clusters[static_cast<std::size_t>(cl.nn)].active) {
        refresh(c);
      }
      if (best < 0 ||
          cl.nn_dist < clusters[static_cast<std::size_t>(best)].nn_dist) {
        best = c;
      }
      dmax = std::max(dmax, cl.nn_dist);
    }
    const int a = best;
    const int b = clusters[static_cast<std::size_t>(a)].nn;
    LUBT_ASSERT(b >= 0 && clusters[static_cast<std::size_t>(b)].active);

    const Trr& ra = clusters[static_cast<std::size_t>(a)].region;
    const Trr& rb = clusters[static_cast<std::size_t>(b)].region;
    const double d = TrrDist(ra, rb);
    // Tiny slack absorbs rounding: at exactly half the distance the inflated
    // regions only touch.
    const double half = d * 0.5 + 1e-9 * (1.0 + d);
    Trr merged = Intersect(ra.Inflate(half), rb.Inflate(half));
    LUBT_ASSERT(!merged.IsEmpty());

    Cluster next;
    next.node = topo.AddInternalNode(clusters[static_cast<std::size_t>(a)].node,
                                     clusters[static_cast<std::size_t>(b)].node);
    next.region = merged;
    next.active = true;
    clusters[static_cast<std::size_t>(a)].active = false;
    clusters[static_cast<std::size_t>(b)].active = false;
    clusters.push_back(next);
    const int nid = static_cast<int>(clusters.size()) - 1;
    if (use_grid) {
      grid.Remove(clusters, a);
      grid.Remove(clusters, b);
      grid.Insert(clusters, nid);
    }
    refresh(nid);
    // Let existing clusters see the newcomer (one-sided update; the grid
    // prunes rings past dmax, the scan visits everyone).
    if (use_grid) {
      grid.OfferNewcomer(clusters, nid, dmax);
    } else {
      for (int c = 0; c < nid; ++c) {
        Cluster& cl = clusters[static_cast<std::size_t>(c)];
        if (!cl.active) continue;
        const double dc = TrrDist(cl.region, next.region);
        if (dc < cl.nn_dist) {
          cl.nn_dist = dc;
          cl.nn = nid;
        }
      }
    }
    --active_count;
  }

  // Find the surviving cluster.
  NodeId top = kInvalidNode;
  for (const Cluster& c : clusters) {
    if (c.active) {
      top = c.node;
      break;
    }
  }
  LUBT_ASSERT(top != kInvalidNode);

  if (source.has_value()) {
    const NodeId root = topo.AddUnaryNode(top);
    topo.SetRoot(root, RootMode::kFixedSource);
  } else {
    topo.SetRoot(top, RootMode::kFreeSource);
  }
  return topo;
}

NodeId NearestSinkNode(const Topology& topo, std::span<const Point> sinks,
                       const Point& p, std::int32_t exclude_sink) {
  NodeId best = kInvalidNode;
  double best_dist = std::numeric_limits<double>::infinity();
  std::int32_t best_sink = -1;
  for (NodeId v = 0; v < topo.NumNodes(); ++v) {
    if (!topo.IsSinkNode(v)) continue;
    const std::int32_t s = topo.SinkIndex(v);
    if (s == exclude_sink) continue;
    const double d = ManhattanDist(sinks[static_cast<std::size_t>(s)], p);
    if (d < best_dist || (d == best_dist && s < best_sink)) {
      best_dist = d;
      best = v;
      best_sink = s;
    }
  }
  return best;
}

}  // namespace lubt
