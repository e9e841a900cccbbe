#ifndef DIRECTMESH_DM_COST_MODEL_H_
#define DIRECTMESH_DM_COST_MODEL_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/geometry.h"
#include "dm/reach.h"
#include "index/rtree/rstar_tree.h"

namespace dm {

/// Monotone piecewise-linear map of the LOD axis onto [0, 1] by data
/// measure (the empirical distribution of the indexed segments).
///
/// The Kamel-Faloutsos model normalizes lengths "according to the data
/// space", which presumes roughly uniform data. LOD values are
/// severely skewed (the paper's own LOD-quadtree discussion makes the
/// same observation), so a linear normalization makes every query's
/// e-extent look negligible and blinds the multi-base optimizer.
/// Measuring the e-axis in quantile units restores the model's
/// uniformity assumption without touching the index itself.
class EAxisMap {
 public:
  /// Identity map (linear normalization by `data_space`).
  EAxisMap() = default;

  /// Builds the map from the e-distribution of the tree's leaf-level
  /// node extents, weighted by entry count.
  static EAxisMap FromNodeExtents(const std::vector<RTreeNodeExtent>& nodes);

  /// Maps an LOD value to [0, 1] measure space.
  double Map(double e) const;

  /// Transforms a box's e-interval (x and y are untouched).
  Box MapBox(const Box& box) const;

  bool identity() const { return samples_.empty(); }

 private:
  std::vector<double> samples_;  // sorted e sample points
};

/// Expected number of disk accesses for a range query `q` on an R-tree
/// with the given node extents, after Kamel-Faloutsos / Pagel et al.
/// (the paper's formula (1)):
///
///   DA(R, q) = sum_i (qx + w_i) * (qy + h_i) * (qz + d_i)
///
/// with every length normalized by the data-space extent, and the
/// e-axis additionally measured through `e_map` (pass a default
/// EAxisMap for the plain linear model).
double EstimateDiskAccesses(const std::vector<RTreeNodeExtent>& nodes,
                            const Box& data_space, const Box& query,
                            const EAxisMap& e_map = {});

/// Everything the query optimizer knows about the dataset: catalog
/// statistics collected once when a store or shard router opens, plus
/// tables derived from them so that one estimate costs one MapBox of
/// the query, one multiply-add pass over the nodes and two binary
/// searches. Immutable once built; queries share it by pointer.
///
/// The paper's formula (1) counts *node* (page) accesses. With packed
/// pages whose e-extents overlap heavily (every page holds segments of
/// mixed length), that term alone cannot see that a staircase of cubes
/// retrieves far fewer *records*; the optimizer would never split. The
/// record term below — selectivity of the cube against a sample of the
/// indexed segments, divided by the records-per-page density — restores
/// the paper's observed behaviour ("the more range queries used, the
/// less the total amount of data retrieved").
class CostCatalog {
 public:
  struct Stats {
    std::vector<RTreeNodeExtent> nodes;
    Box data_space;
    EAxisMap e_map;
    /// Sampled (e_low, e_high) pairs of indexed segments.
    std::vector<std::pair<double, double>> segment_sample;
    int64_t total_records = 0;
    double records_per_page = 16.0;
  };

  explicit CostCatalog(Stats stats);

  const Stats& stats() const { return stats_; }

  /// Expected total disk accesses of a range query: index pages
  /// (formula (1) over the node extents, the same doubles as
  /// EstimateDiskAccesses) plus heap pages (expected records fetched
  /// over the clustering density). `query` must have lo <= hi on the
  /// e-axis, as every SliceBox does.
  double EstimateQueryCost(const Box& query) const;

 private:
  /// One node's normalized extents (w_i, h_i, d_i) of formula (1).
  struct NodeTerm {
    double w;
    double h;
    double d;
  };

  Stats stats_;
  double ex_ = 1.0;  // data-space extents the lengths are divided by
  double ey_ = 1.0;
  double ez_ = 1.0;
  std::vector<NodeTerm> terms_;
  /// e_low and e_high of the segment sample, each sorted, so a cube's
  /// hit count is #(l <= q.hi) - #(h < q.lo). A pair that is not an
  /// interval (NaN, or l > h, only on a damaged store) is stored as
  /// (+inf, +inf) and never counts.
  std::vector<double> sample_lo_;
  std::vector<double> sample_hi_;
};

/// What a DmDataSource hands the optimizer: the shared catalog and the
/// source's parent-reach table. Cheap to copy.
struct CostModelInputs {
  /// Null only for a source with no catalog; the optimizer then never
  /// splits.
  std::shared_ptr<const CostCatalog> catalog;
  /// Parent-reach table of the source (DmMeta::reach, or the merge of
  /// every shard's); null only beside a null catalog. Points into the
  /// source, so a query never copies it.
  const ReachTable* reach = nullptr;
};

/// One sub-cube chosen by the multi-base optimizer: the fraction
/// [t0, t1] of the ROI along the LOD gradient axis, and the cube's
/// e-range.
struct BaseCube {
  double t0 = 0.0;
  double t1 = 1.0;
  double e_lo = 0.0;
  double e_hi = 0.0;
};

/// Multi-base optimization (paper Section 5.3): starting from the
/// single query cube, recursively halve the top plane in the middle
/// of the gradient axis — the split point that maximizes the
/// area reduction qy*qz - (qy1*qz1 + qy2*qz2), formula (8)/(9) — as
/// long as the estimated DA of the parts (formula (2)) undercuts the
/// whole (condition (7)), up to `max_cubes` leaves.
///
/// `e_at(t)` gives the query plane's LOD at fraction t of the gradient
/// axis (monotone non-decreasing).
///
/// The estimate is CostCatalog::EstimateQueryCost: condition (7) with
/// the record term included. A catalog with an empty segment sample
/// gives formula (1) alone.
std::vector<BaseCube> OptimizeMultiBase(
    const CostModelInputs& inputs, const Rect& roi, bool gradient_along_y,
    const std::function<double(double)>& e_at, int max_cubes);

/// Builds the query cube of a BaseCube slice over `roi`.
Box SliceBox(const Rect& roi, bool gradient_along_y, const BaseCube& cube);

}  // namespace dm

#endif  // DIRECTMESH_DM_COST_MODEL_H_
