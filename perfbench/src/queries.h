// Query generation and output checks. Every LOD a query uses comes from
// the store's cut-fraction catalog (the quantiles `dmctl build`
// records), never from a percentage of the maximum LOD: QEM errors are
// so skewed that 1% of max_lod already lies above the coarsest cut the
// catalog lists (README.md, "Notes for later issues").
#ifndef DIRECTMESH_PERFBENCH_QUERIES_H_
#define DIRECTMESH_PERFBENCH_QUERIES_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "dm/dm_query.h"
#include "pipeline.h"
#include "server/query_service.h"

namespace perfbench {

enum class QueryKind { kUniform, kSingleBase, kMultiBase, kPerspective };
inline constexpr int kNumKinds = 4;

const char* KindName(QueryKind kind);
QueryKind KindOf(const dm::QueryRequest& request);

/// The paper's cold-buffer protocol queries (fig6 and fig8 sweeps on
/// one terrain): uniform queries over the ROI and LOD sweeps, single-
/// and multi-base view queries over the ROI, e_min and angle sweeps,
/// each at `locations` positions. The set is fixed — it does not
/// depend on the run's seed — so its disk-read count repeats exactly.
std::vector<dm::QueryRequest> PaperGrid(const BuiltStore& store,
                                        int locations);

/// A serving mix of `count` queries: uniform, single-base, multi-base
/// and perspective in equal shares over fixed parameter grids (ROIs of
/// 1-10% of the terrain), at fixed positions: the set does not depend
/// on the run's seed.
std::vector<dm::QueryRequest> ServeMix(const BuiltStore& store, int count);

/// `count` uniform queries (the small-ROI end of the fig6 sweeps) at
/// fixed positions: the output check of a freshly ingested store.
std::vector<dm::QueryRequest> UniformChecks(const BuiltStore& store,
                                            int count);

/// Runs one request on a processor (QueryService's dispatch).
dm::Result<dm::DmQueryResult> RunQuery(dm::DmQueryProcessor* proc,
                                       const dm::QueryRequest& request);

/// Hash of a result's geometry: vertex ids, positions and triangles,
/// bit for bit.
uint64_t HashGeometry(const dm::DmQueryResult& result);

/// The paper's cut definition applied to every node of the in-memory
/// PM tree: ids with e_low <= e < e_high and (x, y) in `roi`, sorted.
std::vector<dm::VertexId> BruteForceCut(const dm::PmTree& tree,
                                        const dm::Rect& roi, double e);

}  // namespace perfbench

#endif  // DIRECTMESH_PERFBENCH_QUERIES_H_
