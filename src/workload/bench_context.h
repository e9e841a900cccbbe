#ifndef DIRECTMESH_WORKLOAD_BENCH_CONTEXT_H_
#define DIRECTMESH_WORKLOAD_BENCH_CONTEXT_H_

#include <string>
#include <vector>

#include "workload/dataset.h"

namespace dm {

/// The competing methods of the paper's evaluation, plus one
/// repo-local arm: single-base DM with the surface-bounded fetch
/// (DESIGN.md §18). The paper arms (DM-SB, DM-MB) fetch the plain cube.
enum class Method { kDmSingleBase, kDmMultiBase, kPm, kHdov, kDmBounded };

const char* MethodName(Method m);

/// Average query measurements over the sampled ROI locations.
struct BenchPoint {
  double x = 0.0;  // the swept parameter (ROI %, LOD %, angle %)
  double disk_accesses = 0.0;
  double nodes_fetched = 0.0;
  double cpu_millis = 0.0;
  double vertices = 0.0;
};

/// Shared harness of all figure benches: owns the three databases of a
/// dataset and runs cold-cache queries the way the paper does ("the
/// database and system buffer is flushed before each test"; results
/// are "the average value of creating the same mesh at 20
/// randomly-selected locations").
class BenchContext {
 public:
  static Result<BenchContext> Create(const std::string& dir,
                                     const DatasetSpec& spec,
                                     const DbOptions& options = {});

  const BuiltDataset& dataset() const { return ds_; }
  BuiltDataset& mutable_dataset() { return ds_; }

  /// Square ROIs covering `area_fraction` of the terrain at
  /// `locations` deterministic random positions.
  std::vector<Rect> SampleRois(double area_fraction, int locations = 20,
                               uint64_t seed = 7) const;

  /// Viewpoint-independent query, cold cache.
  Result<QueryStats> RunUniform(Method m, const Rect& roi, double e);

  /// Viewpoint-dependent query, cold cache. The viewer stands at the
  /// center of the ROI's near (e_min) edge.
  Result<QueryStats> RunView(Method m, const ViewQuery& q);

  /// Averages a query over ROIs; `run` maps an ROI to stats.
  template <typename Fn>
  Result<BenchPoint> Average(const std::vector<Rect>& rois, const Fn& run) {
    BenchPoint p;
    for (const Rect& roi : rois) {
      auto stats_or = run(roi);
      if (!stats_or.ok()) return stats_or.status();
      const QueryStats& s = stats_or.value();
      p.disk_accesses += static_cast<double>(s.disk_accesses);
      p.nodes_fetched += static_cast<double>(s.nodes_fetched);
      p.cpu_millis += s.cpu_millis;
    }
    const double n = static_cast<double>(rois.size());
    p.disk_accesses /= n;
    p.nodes_fetched /= n;
    p.cpu_millis /= n;
    return p;
  }

 private:
  explicit BenchContext(BuiltDataset ds) : ds_(std::move(ds)) {}

  Status FlushAll();

  BuiltDataset ds_;
};

/// Default cache directory for bench datasets (honours DM_DATA_DIR,
/// falls back to "./dm_bench_data"); created if missing.
std::string BenchDataDir();

}  // namespace dm

#endif  // DIRECTMESH_WORKLOAD_BENCH_CONTEXT_H_
