// The `dmctl build` pipeline, DEM to a closed store on disk, written
// out stage by stage so each stage's public call is timed from here.
#ifndef DIRECTMESH_PERFBENCH_PIPELINE_H_
#define DIRECTMESH_PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dem/dem_grid.h"
#include "dm/dm_store.h"
#include "pm/pm_tree.h"

namespace perfbench {

/// The read path every store is opened with: synchronous reads, the
/// seed behavior. Set explicitly so that DM_ASYNC_BACKEND in the
/// caller's environment cannot change what is measured.
inline constexpr const char* kAsyncBackend = "off";

/// Wall time of every stage of one build, in milliseconds, plus what
/// the build wrote.
struct BuildStages {
  double dem_ms = 0.0;           // produce the elevation grid
  double triangulate_ms = 0.0;   // TriangulateDem
  double simplify_ms = 0.0;      // SimplifyMesh
  double pm_ms = 0.0;            // PmTree::Build
  double connectivity_ms = 0.0;  // BuildConnectionLists
  double store_ms = 0.0;         // DmStore::Build + flush + meta
  double total_s = 0.0;
  double mean_list_len = 0.0;    // mean connection-list length
  int64_t pages_written = 0;
};

/// A built store: where it lives, how to reopen it, the in-memory PM
/// tree it was built from (the reference the output checks use) and
/// the cut-fraction catalog `dmctl build` writes to the meta file.
struct BuiltStore {
  std::string db_path;
  std::string meta_path;
  dm::DmMeta meta;
  dm::PmTree tree;
  /// (fraction of terrain points the uniform cut keeps, LOD e).
  std::vector<std::pair<double, double>> catalog;
  int64_t points = 0;
  BuildStages stages;
};

/// Runs DEM -> triangulation -> QEM simplification -> PM tree ->
/// connection lists -> group-codec DmStore at `threads` workers,
/// writing `<base>.db` and `<base>.meta`. `make_dem` is the dem stage.
dm::Result<BuiltStore> BuildStore(
    const std::function<dm::Result<dm::DemGrid>()>& make_dem,
    const std::string& base, int threads);

/// The LOD of the catalog entry for `fraction`; the fraction must be
/// one the catalog lists (queries pick LODs from it and nowhere else).
double CatalogLod(const std::vector<std::pair<double, double>>& catalog,
                  double fraction);

/// Writes `grid` as an Esri ASCII grid with round-trip precision, the
/// distribution format `dmctl build --dem` reads.
dm::Status WriteEsriAsciiGrid(const dm::DemGrid& grid, const std::string& path);

}  // namespace perfbench

#endif  // DIRECTMESH_PERFBENCH_PIPELINE_H_
