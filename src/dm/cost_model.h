#ifndef DIRECTMESH_DM_COST_MODEL_H_
#define DIRECTMESH_DM_COST_MODEL_H_

#include <functional>
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

/// Everything the query optimizer knows about the dataset — catalog
/// statistics collected once when the store is opened.
///
/// The paper's formula (1) counts *node* (page) accesses. With packed
/// pages whose e-extents overlap heavily (every page holds segments of
/// mixed length), that term alone cannot see that a staircase of cubes
/// retrieves far fewer *records*; the optimizer would never split. The
/// record term below — selectivity of the cube against a sample of the
/// indexed segments, divided by the records-per-page density — restores
/// the paper's observed behaviour ("the more range queries used, the
/// less the total amount of data retrieved").
struct CostModelInputs {
  const std::vector<RTreeNodeExtent>* nodes = nullptr;
  Box data_space;
  EAxisMap e_map;
  /// Sampled (e_low, e_high) pairs of indexed segments.
  std::vector<std::pair<double, double>> segment_sample;
  int64_t total_records = 0;
  double records_per_page = 16.0;
  /// Parent-reach table of the store (DmMeta::reach), or nullptr when
  /// the store has none; view-dependent queries then fetch the whole
  /// cube. Points into the store like `nodes`, so a query never copies
  /// it.
  const ReachTable* reach = nullptr;
};

/// Expected total disk accesses of a range query: index pages (formula
/// (1) over the node extents) plus heap pages (expected records
/// fetched over the clustering density).
double EstimateQueryCost(const CostModelInputs& inputs, const Box& query);

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
std::vector<BaseCube> OptimizeMultiBase(
    const std::vector<RTreeNodeExtent>& nodes, const Box& data_space,
    const Rect& roi, bool gradient_along_y,
    const std::function<double(double)>& e_at, int max_cubes,
    const EAxisMap& e_map = {});

/// Catalog-driven variant used by DmQueryProcessor::MultiBase: the
/// split condition compares EstimateQueryCost of the whole against the
/// sum over the halves (the paper's condition (7) with the record term
/// included).
std::vector<BaseCube> OptimizeMultiBase(
    const CostModelInputs& inputs, const Rect& roi, bool gradient_along_y,
    const std::function<double(double)>& e_at, int max_cubes);

/// Builds the query cube of a BaseCube slice over `roi`.
Box SliceBox(const Rect& roi, bool gradient_along_y, const BaseCube& cube);

}  // namespace dm

#endif  // DIRECTMESH_DM_COST_MODEL_H_
