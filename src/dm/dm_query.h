#ifndef DIRECTMESH_DM_DM_QUERY_H_
#define DIRECTMESH_DM_DM_QUERY_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/flat_hash.h"
#include "common/geometry.h"
#include "common/status.h"
#include "dm/dm_store.h"
#include "dm/node_source.h"
#include "index/rtree/range_filter.h"
#include "mesh/triangle_mesh.h"

namespace dm {

/// A viewpoint-dependent query: a ROI plus a query plane whose LOD
/// rises linearly from e_min (near edge, closest to the viewer) to
/// e_max (far edge) along one footprint axis — the geometry of the
/// paper's Figures 4/5/7 ("for simplicity of presentation, we assume
/// the query plane is parallel to the x-axis").
struct ViewQuery {
  Rect roi;
  double e_min = 0.0;
  double e_max = 0.0;
  /// true: LOD varies along y (plane parallel to the x-axis);
  /// false: varies along x.
  bool gradient_along_y = true;

  /// The plane's LOD at fraction t in [0, 1] of the gradient axis.
  double EAt(double t) const { return e_min + (e_max - e_min) * t; }

  /// Required LOD at a footprint position (clamped to the ROI).
  double RequiredE(double x, double y) const;

  /// InvalidArgument unless every field is finite, the ROI is
  /// non-empty and e_max >= e_min. Every DmQueryProcessor entry point
  /// taking a ViewQuery checks this first.
  Status Validate() const;

  /// The paper's angle parametrization: tan(angle) = (e_max - e_min) /
  /// roi extent; theta_max corresponds to e spanning [e_min,
  /// dataset max] — see Section 6.2.
  static ViewQuery FromAngle(const Rect& roi, double e_min,
                             double angle_fraction, double dataset_max_lod,
                             bool gradient_along_y = true);
};

/// A viewer-driven query using the paper's Section 2 rule: "the
/// required LOD for a point in a viewpoint-dependent query can be
/// estimated ... using the formula f(m.e, d) <= E for node m whose
/// distance to the viewer is d". With the standard screen-space-error
/// f(e, d) = e / d, a node may keep error e while e <= E * d: the
/// required LOD grows linearly with the distance to the viewer.
struct PerspectiveQuery {
  Rect roi;
  /// Viewer's footprint position.
  Point2 viewer;
  /// Tolerated error per unit of viewing distance (the constant E).
  double tolerance = 0.05;
  /// LOD clamp range: e_floor at the viewer, e_cap at the horizon
  /// (usually the dataset maximum).
  double e_floor = 0.0;
  double e_cap = 0.0;

  double RequiredE(double x, double y) const;
  /// The LOD range the ROI can demand (min/max of RequiredE over it).
  void Range(double* lo, double* hi) const;

  /// InvalidArgument unless every field is finite, the ROI is
  /// non-empty, tolerance >= 0 and e_cap >= e_floor (RequiredE's clamp
  /// needs the last one).
  Status Validate() const;
};

/// Per-query measurements. `disk_accesses` is read from the shared
/// buffer pool's miss counter (cold cache at query start), so it
/// covers index pages and heap pages together.
struct QueryStats {
  int64_t disk_accesses = 0;
  int64_t index_io = 0;         // portion of disk_accesses spent in indexes
  int64_t nodes_fetched = 0;    // records delivered (incl. duplicates)
  int64_t cache_hits = 0;       // decoded-node cache hits (0 when disabled)
  int64_t cache_misses = 0;     // fetches that had to decode from the heap
  int64_t range_queries = 0;    // index probes issued
  int64_t refinement_splits = 0;
  int64_t refinement_misses = 0;  // splits lacking a fetched child
  /// Coalesced page runs (heap and R*-tree) this query issued through
  /// the pool (pool-wide deltas, like `disk_accesses`). Mean pages per run
  /// (fetch_run_pages / fetch_runs) measures how well the on-disk
  /// layout clusters the cut.
  int64_t fetch_runs = 0;
  int64_t fetch_run_pages = 0;
  double cpu_millis = 0.0;  // mesh construction time
};

/// Failure-handling report of one query (DESIGN.md §11). A query that
/// lost pages or tripped its deadline still returns a valid — but
/// coarser — mesh; this says how much was given up and why.
struct QueryHealth {
  /// True when any record was lost or the deadline tripped; the mesh
  /// is legal but coarser (or sparser) than a healthy run's.
  bool degraded = false;
  /// Distinct heap pages that could not be read (I/O error after
  /// retries, or checksum failure).
  int64_t pages_failed = 0;
  /// Node records lost on those pages (plus undecodable records).
  int64_t records_failed = 0;
  /// Cut nodes kept coarser than the required LOD because a child was
  /// lost or the deadline stopped refinement. When records were lost,
  /// this also counts ROI-boundary misses the same query would keep
  /// coarse anyway (the two are indistinguishable once a fetch is
  /// incomplete) — treat it as an upper bound.
  int64_t nodes_degraded = 0;
  /// Transient I/O failures absorbed by the retry loop during this
  /// query (pool-wide delta, so concurrent workers' retries may leak
  /// into each other's counts).
  int64_t io_retries = 0;
  /// Regions that contributed no nodes at all: under sharded serving,
  /// shards with every replica down or failing (DESIGN.md §16); on a
  /// single store, an index read that timed out in degraded mode. The
  /// mesh stays legal but is sparser where a region is missing.
  int64_t shards_missed = 0;
  /// The per-query deadline expired — during refinement, or (with the
  /// mid-query checks) inside a fetch's blocking I/O waits.
  bool deadline_hit = false;
};

/// Result of a DM query: the final approximation (vertices with
/// positions, plus triangles) and the fetched node set.
struct DmQueryResult {
  /// Final mesh vertices, sorted by id.
  std::vector<VertexId> vertices;
  std::vector<Point3> positions;  // parallel to `vertices`
  std::vector<Triangle> triangles;
  QueryStats stats;
  QueryHealth health;
};

/// Tuning knobs of a query processor.
struct DmQueryOptions {
  /// Degraded result mode: an unreadable/corrupt node page fails only
  /// the nodes on it — affected regions fall back to coarser live
  /// ancestors (legal by the LOD-interval tiling) and the loss is
  /// reported in DmQueryResult::health. Off (the default) keeps
  /// strict semantics: any lost page fails the query, which paper
  /// benches and invariant audits rely on. Index-page failures are
  /// always fatal (without the index there is no node set to degrade).
  bool allow_degraded = false;
  /// Per-query refinement deadline in milliseconds; 0 disables. When
  /// it expires, remaining work stays at its current (coarser) LOD —
  /// the query returns a legal cut early instead of running long.
  double deadline_millis = 0.0;
  /// Surface-bounded fetch (DESIGN.md §18): view-dependent fetches
  /// skip every index entry refinement cannot reach, using the
  /// source's parent-reach table. Geometry is identical either way;
  /// only nodes fetched and disk reads drop. Off = the paper's plain
  /// cube fetch, which the paper-reproduction bench arms use.
  bool bounded_fetch = true;
};

/// Query processing over a DmDataSource (paper Section 5): one
/// DmStore, or a ShardRouter over replicated spatial shards — the
/// refinement/triangulation pipeline is identical either way.
///
/// Not thread-safe: each processor owns per-query scratch (the arena);
/// concurrent workers each construct their own processor over the
/// shared store or router, as QueryService does.
class DmQueryProcessor {
 public:
  explicit DmQueryProcessor(DmStore* store,
                            const DmQueryOptions& options = {})
      : owned_source_(store), source_(&owned_source_.value()),
        options_(options) {}

  /// Processor over an externally owned source (e.g. a ShardRouter).
  explicit DmQueryProcessor(DmDataSource* source,
                            const DmQueryOptions& options = {})
      : source_(source), options_(options) {}

  /// Viewpoint-independent query Q(M, r, e): one 3D range query with
  /// the plane r x {e}; the retrieved nodes are exactly the cut, and
  /// their connection lists triangulate it (Section 5.1).
  Result<DmQueryResult> ViewpointIndependent(const Rect& r, double e);

  /// Single-base viewpoint-dependent query (Algorithm 1): fetch the
  /// cube r x [e_min, e_max], build the top-plane mesh, refine down to
  /// the query plane. With `bounded_fetch`, the cube fetch skips the
  /// nodes refinement cannot reach.
  Result<DmQueryResult> SingleBase(const ViewQuery& q);

  /// Multi-base viewpoint-dependent query (Section 5.3): the
  /// cost-model optimizer splits the cube into up to `max_cubes`
  /// staircase cubes, each fetched with its own range query.
  ///
  /// The plan reads the store's R*-tree node extents (through its
  /// CostCatalog), so a store with another index layout can split the
  /// cube differently and, where the plan differs, return a different
  /// mesh. The uniform, single-base (cube and bounded) and perspective
  /// queries fetch sets fixed by the data alone, so their meshes do
  /// not depend on the layout.
  Result<DmQueryResult> MultiBase(const ViewQuery& q, int max_cubes = 64);

  /// Viewer-driven query with a radial required-LOD field (single
  /// fetch cube; the multi-base staircase assumes a planar gradient
  /// and does not apply).
  Result<DmQueryResult> Perspective(const PerspectiveQuery& q);

  /// The bump arena backing this processor's per-query scratch (the
  /// node map, cut membership, work stacks, and the triangulation's
  /// local-id map and CSR adjacency). It is
  /// rewound between queries, so a warm worker runs a query with
  /// near-zero heap traffic.
  Arena* scratch_arena() { return &arena_; }

  /// Arms an absolute deadline for subsequent queries, on top of (and
  /// taking the minimum with) the per-query `deadline_millis` budget.
  /// This is how QueryService propagates a client deadline that
  /// started ticking at submit time, queue wait included.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    external_deadline_ = deadline;
  }
  void clear_deadline() {
    external_deadline_ = std::chrono::steady_clock::time_point::max();
  }

 private:
  /// Fetched nodes by id: open-addressing map of shared decode handles
  /// (kInvalidVertex is the reserved empty key).
  using NodeMap = FlatHashMap<VertexId, NodeRef>;
  /// Scratch id list; arena-backed when the arena is on.
  using IdVec = std::vector<VertexId, ArenaAllocator<VertexId>>;

  ArenaAllocator<VertexId> id_alloc() {
    return ArenaAllocator<VertexId>(scratch_arena());
  }

  /// Resets per-query health/deadline state; every public entry point
  /// calls this first.
  void BeginQuery();

  /// Runs one 3D range query and loads the named nodes into `nodes`
  /// (through the decoded-node cache when enabled). A non-null
  /// `filter` is armed as the index's ScopedRangeFilter for the fetch.
  /// In degraded mode, lost node records are tallied in `health_`
  /// instead of failing.
  Status FetchBox(const Box& box, const RangeFilter* filter, NodeMap* nodes,
                  QueryStats* stats);

  /// Fills `result`'s I/O counters (disk reads, fetch runs, retries)
  /// with the source's delta since `io0`, taken when the query began.
  void AddIoDelta(const IoStats& io0, DmQueryResult* result) const;

  /// Shared tail of the viewpoint-dependent paths: refine `start` (the
  /// top-plane cut) down to the required-LOD field, then triangulate.
  /// `seeds_may_nest` is set only for multi-base, whose per-slice seeds
  /// can hold a node and its ancestor; a single top-plane cut cannot,
  /// so the cut skips the pass that drops covered descendants.
  DmQueryResult RefineAndTriangulate(
      const std::function<double(const Point3&)>& required_e,
      const NodeMap& nodes, IdVec start, QueryStats stats,
      bool seeds_may_nest);

  /// Builds the triangle mesh of a cut from connection lists: the
  /// sorted cut becomes `result->vertices` and gives each vertex its
  /// dense local id, `result->positions` is indexed by it, and the
  /// filtered connection lists become an arena-backed CSR adjacency
  /// that ExtractTriangles reads without any lookup by global id.
  void Triangulate(const NodeMap& nodes, std::span<const VertexId> cut,
                   DmQueryResult* result);

  /// Source built in place for the DmStore* convenience constructor;
  /// declared before `source_`, which may point into it.
  std::optional<DmStoreSource> owned_source_;
  DmDataSource* source_;
  DmQueryOptions options_;
  /// Per-query scratch, rewound at the start of every public entry
  /// point; converges to one warm slab after a few queries.
  Arena arena_;
  /// Health of the in-flight query (reset by BeginQuery, copied into
  /// the result). Member state, not a parameter, because the processor
  /// is single-threaded by contract.
  QueryHealth health_;
  /// Deadline of the in-flight query; meaningful only when
  /// `deadline_armed_`.
  std::chrono::steady_clock::time_point deadline_;
  bool deadline_armed_ = false;
  /// Client deadline armed across queries via set_deadline().
  std::chrono::steady_clock::time_point external_deadline_ =
      std::chrono::steady_clock::time_point::max();
};

}  // namespace dm

#endif  // DIRECTMESH_DM_DM_QUERY_H_
