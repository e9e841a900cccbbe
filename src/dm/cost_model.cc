#include "dm/cost_model.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "common/check.h"

namespace dm {

EAxisMap EAxisMap::FromNodeExtents(
    const std::vector<RTreeNodeExtent>& nodes) {
  EAxisMap map;
  for (const RTreeNodeExtent& n : nodes) {
    if (n.level != 0) continue;
    // One sample per leaf midpoint, repeated by a coarse weight so
    // heavier leaves pull more measure; entry-exact sampling is not
    // needed for a normalization map.
    const double mid = (n.box.lo[2] + n.box.hi[2]) / 2;
    map.samples_.push_back(n.box.lo[2]);
    map.samples_.push_back(mid);
    map.samples_.push_back(n.box.hi[2]);
  }
  std::sort(map.samples_.begin(), map.samples_.end());
  return map;
}

double EAxisMap::Map(double e) const {
  if (samples_.empty()) return e;
  const auto it = std::lower_bound(samples_.begin(), samples_.end(), e);
  const auto rank = static_cast<double>(it - samples_.begin());
  double frac = rank / static_cast<double>(samples_.size());
  // Linear interpolation within the bracketing samples keeps the map
  // strictly monotone in dense regions.
  if (it != samples_.begin() && it != samples_.end() && *it > *(it - 1)) {
    const double lo = *(it - 1);
    const double hi = *it;
    frac += ((e - lo) / (hi - lo) - 1.0) / static_cast<double>(samples_.size());
  }
  return std::clamp(frac, 0.0, 1.0);
}

Box EAxisMap::MapBox(const Box& box) const {
  if (samples_.empty()) return box;
  Box out = box;
  out.lo[2] = Map(box.lo[2]);
  out.hi[2] = Map(box.hi[2]);
  return out;
}

double EstimateDiskAccesses(const std::vector<RTreeNodeExtent>& nodes,
                            const Box& data_space, const Box& query,
                            const EAxisMap& e_map) {
  double total = 0.0;
  const double ex = std::max(data_space.Extent(0), 1e-300);
  const double ey = std::max(data_space.Extent(1), 1e-300);
  const double ez = e_map.identity()
                        ? std::max(data_space.Extent(2), 1e-300)
                        : 1.0;
  const Box q = e_map.MapBox(query);
  const double qx = q.Extent(0) / ex;
  const double qy = q.Extent(1) / ey;
  const double qz = q.Extent(2) / ez;
  for (const RTreeNodeExtent& n : nodes) {
    const Box b = e_map.MapBox(n.box);
    const double wi = b.Extent(0) / ex;
    const double hi = b.Extent(1) / ey;
    const double di = b.Extent(2) / ez;
    total += (qx + wi) * (qy + hi) * (qz + di);
  }
  return total;
}

CostCatalog::CostCatalog(Stats stats) : stats_(std::move(stats)) {
  // The normalization and the per-node terms, exactly as
  // EstimateDiskAccesses computes them per call.
  const Box& space = stats_.data_space;
  ex_ = std::max(space.Extent(0), 1e-300);
  ey_ = std::max(space.Extent(1), 1e-300);
  ez_ = stats_.e_map.identity() ? std::max(space.Extent(2), 1e-300) : 1.0;
  terms_.reserve(stats_.nodes.size());
  for (const RTreeNodeExtent& n : stats_.nodes) {
    const Box b = stats_.e_map.MapBox(n.box);
    terms_.push_back(
        {b.Extent(0) / ex_, b.Extent(1) / ey_, b.Extent(2) / ez_});
  }
  constexpr double kNever = std::numeric_limits<double>::infinity();
  sample_lo_.reserve(stats_.segment_sample.size());
  sample_hi_.reserve(stats_.segment_sample.size());
  for (const auto& [l, h] : stats_.segment_sample) {
    const bool interval = l <= h;  // false for NaN too
    sample_lo_.push_back(interval ? l : kNever);
    sample_hi_.push_back(interval ? h : kNever);
  }
  std::sort(sample_lo_.begin(), sample_lo_.end());
  std::sort(sample_hi_.begin(), sample_hi_.end());
}

double CostCatalog::EstimateQueryCost(const Box& query) const {
  DM_DCHECK(query.lo[2] <= query.hi[2]);
  // Index pages: formula (1). Summed in node order like
  // EstimateDiskAccesses, so a near-tie split decides the same way.
  const Box q = stats_.e_map.MapBox(query);
  const double qx = q.Extent(0) / ex_;
  const double qy = q.Extent(1) / ey_;
  const double qz = q.Extent(2) / ez_;
  double index_pages = 0.0;
  for (const NodeTerm& t : terms_) {
    index_pages += (qx + t.w) * (qy + t.h) * (qz + t.d);
  }
  // Heap pages: expected records hit by the cube over the clustering
  // density. xy selectivity is geometric; e selectivity comes from the
  // sampled segment intervals. [l, h] meets [a, b] iff l <= b and
  // h >= a; since l <= h and a <= b, every pair with h < a also has
  // l <= b, so the hits are #(l <= b) - #(h < a).
  double heap_pages = 0.0;
  if (!sample_lo_.empty() && stats_.total_records > 0) {
    const double sel_xy = std::min(1.0, query.Extent(0) / ex_) *
                          std::min(1.0, query.Extent(1) / ey_);
    const auto lo_le_b =
        std::upper_bound(sample_lo_.begin(), sample_lo_.end(), query.hi[2]) -
        sample_lo_.begin();
    const auto hi_lt_a =
        std::lower_bound(sample_hi_.begin(), sample_hi_.end(), query.lo[2]) -
        sample_hi_.begin();
    const double sel_e = static_cast<double>(lo_le_b - hi_lt_a) /
                         static_cast<double>(sample_lo_.size());
    const double records =
        static_cast<double>(stats_.total_records) * sel_xy * sel_e;
    heap_pages = records / std::max(1.0, stats_.records_per_page);
  }
  return index_pages + heap_pages;
}

std::vector<BaseCube> OptimizeMultiBase(
    const CostModelInputs& inputs, const Rect& roi, bool gradient_along_y,
    const std::function<double(double)>& e_at, int max_cubes) {
  std::vector<BaseCube> out;
  out.reserve(static_cast<size_t>(std::max(1, max_cubes)));
  // Plain recursive helper: a recursive std::function would
  // heap-allocate its closure on every multi-base query. Each half's
  // estimate is passed down as that cube's whole, so every cube is
  // estimated once.
  struct Splitter {
    const CostCatalog* catalog;
    const Rect& roi;
    bool gradient_along_y;
    const std::function<double(double)>& e_at;
    std::vector<BaseCube>& out;

    double Cost(const BaseCube& cube) const {
      return catalog != nullptr ? catalog->EstimateQueryCost(
                                      SliceBox(roi, gradient_along_y, cube))
                                : 0.0;
    }

    void Split(const BaseCube& whole, double da_whole, int budget) const {
      if (budget > 1) {
        const double tm = (whole.t0 + whole.t1) / 2;
        const double e_m = e_at(tm);
        const BaseCube left{whole.t0, tm, whole.e_lo, e_m};
        const BaseCube right{tm, whole.t1, e_m, whole.e_hi};
        const double da_left = Cost(left);
        const double da_right = Cost(right);
        if (da_left + da_right < da_whole) {  // condition (7)
          Split(left, da_left, budget / 2);
          Split(right, da_right, budget - budget / 2);
          return;
        }
      }
      out.push_back(whole);
    }
  };
  const Splitter splitter{inputs.catalog.get(), roi, gradient_along_y, e_at,
                          out};
  const BaseCube whole{0.0, 1.0, e_at(0.0), e_at(1.0)};
  const int budget = std::max(1, max_cubes);
  splitter.Split(whole, budget > 1 ? splitter.Cost(whole) : 0.0, budget);
  std::sort(out.begin(), out.end(),
            [](const BaseCube& a, const BaseCube& b) { return a.t0 < b.t0; });
  return out;
}

Box SliceBox(const Rect& roi, bool gradient_along_y, const BaseCube& cube) {
  Rect slice = roi;
  if (gradient_along_y) {
    slice.lo_y = roi.lo_y + cube.t0 * roi.height();
    slice.hi_y = roi.lo_y + cube.t1 * roi.height();
  } else {
    slice.lo_x = roi.lo_x + cube.t0 * roi.width();
    slice.hi_x = roi.lo_x + cube.t1 * roi.width();
  }
  return Box::FromRect(slice, cube.e_lo, cube.e_hi);
}

}  // namespace dm
