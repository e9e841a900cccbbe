#ifndef DIRECTMESH_WORKLOAD_DATASET_H_
#define DIRECTMESH_WORKLOAD_DATASET_H_

#include <memory>
#include <optional>
#include <string>

#include "baseline/hdov/hdov_tree.h"
#include "baseline/pmdb/pmdb_store.h"
#include "common/status.h"
#include "dm/connectivity.h"
#include "dm/dm_store.h"
#include "storage/db_env.h"

namespace dm {

/// Specification of a benchmark dataset. The two paper datasets map to
///   small : fractal DEM  (stand-in for the 2M-point mining dataset)
///   crater: caldera DEM  (stand-in for the 17M-point Crater Lake DEM)
/// scaled by `side` (side x side grid points).
struct DatasetSpec {
  std::string name = "small";
  int side = 257;
  uint64_t seed = 42;
  bool crater = false;

  int64_t num_points() const {
    return static_cast<int64_t>(side) * side;
  }
};

/// Returns the spec for a paper dataset at the bench scale. `side` can
/// be overridden with the environment variables DM_SMALL_SIDE /
/// DM_CRATER_SIDE (e.g. set 1449 / 4097 to approximate the paper's
/// full 2M / 17M points).
DatasetSpec SmallDatasetSpec();
DatasetSpec CraterDatasetSpec();

/// A fully built (or reopened) dataset: one database file per method,
/// as three independently tuned systems would have, plus the shared
/// catalog numbers the benches need.
struct BuiltDataset {
  DatasetSpec spec;
  std::unique_ptr<DbEnv> dm_env;
  std::unique_ptr<DbEnv> pm_env;
  std::unique_ptr<DbEnv> hdov_env;
  std::optional<DmStore> dm;
  std::optional<PmDbStore> pm;
  std::optional<HdovTree> hdov;

  double max_lod = 0.0;
  double mean_lod = 0.0;
  Rect bounds;
  int64_t num_leaves = 0;
  int64_t num_nodes = 0;
  ConnectivityStats conn_stats;

  /// Catalog of LOD quantiles: (fraction of original points kept by
  /// the uniform cut, the LOD value e achieving it), fractions
  /// descending from 1.0. QEM errors span many orders of magnitude, so
  /// sweeping e as a naive percentage of the maximum degenerates; the
  /// benches sweep these resolution fractions instead and report the
  /// corresponding e (see EXPERIMENTS.md).
  std::vector<std::pair<double, double>> lod_quantiles;

  /// LOD value whose uniform cut keeps about `frac` of the original
  /// points (linear interpolation between catalog entries).
  double LodForCutFraction(double frac) const;
};

/// Builds the dataset under `dir` (creating DEM -> mesh -> QEM -> PM
/// -> the three databases), or reopens it when a matching build is
/// already cached there. The DM store's catalog and the LOD quantiles
/// live in `<name>.dm.meta` (dm/meta_io.h); `<name>.meta` holds the
/// spec, the baselines' ids and the connectivity stats. Deterministic: same spec => same files and
/// the same disk-access counts, at any `build_threads` (<= 0 means one
/// per hardware core) — the parallel build stages are bit-reproducible
/// by construction. Catalog keys it does not read are ignored.
Result<BuiltDataset> BuildOrLoadDataset(const std::string& dir,
                                        const DatasetSpec& spec,
                                        const DbOptions& options = {},
                                        int build_threads = 1);

/// Deletes a cached build (used by ablations that vary page size).
void DropDatasetCache(const std::string& dir, const DatasetSpec& spec);

}  // namespace dm

#endif  // DIRECTMESH_WORKLOAD_DATASET_H_
