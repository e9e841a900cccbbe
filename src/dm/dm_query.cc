#include "dm/dm_query.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/check.h"
#include "dm/cost_model.h"
#include "mesh/extract.h"

namespace dm {

namespace {

bool FiniteRect(const Rect& r) {
  return std::isfinite(r.lo_x) && std::isfinite(r.lo_y) &&
         std::isfinite(r.hi_x) && std::isfinite(r.hi_y);
}

/// The surface bound of DESIGN.md §18 as an index filter. Refinement
/// reaches a node c only as a start node (c.e_high above the top
/// plane) or by splitting its parent p, which needs
/// p.e_low = c.e_high > req(p.pos). With req L-Lipschitz in (x, y) and
/// |c - p| <= d_c <= D(c.e_high), every reachable node satisfies
/// c.e_high + L * d_c > req(c.pos). A leaf entry carries its own d_c;
/// an internal entry (reach +inf) falls back to the table's D. A box
/// is pruned when even its highest e_high misses the lowest req over
/// its footprint.
class SurfaceBound final : public RangeFilter {
 public:
  SurfaceBound(const ReachTable& reach, double max_lod, const ViewQuery& q)
      : reach_(&reach), max_lod_(max_lod), view_(&q) {
    const double extent = q.gradient_along_y ? q.roi.height() : q.roi.width();
    lipschitz_ = extent > 0 ? (q.e_max - q.e_min) / extent : 0.0;
  }
  SurfaceBound(const ReachTable& reach, double max_lod,
               const PerspectiveQuery& q)
      : reach_(&reach), max_lod_(max_lod), lipschitz_(q.tolerance),
        perspective_(&q) {}

  /// False when the slope overflowed; the caller then fetches the cube.
  bool usable() const { return std::isfinite(lipschitz_); }

  bool MayMatch(const Box& box, double entry_reach) const override {
    const double h = box.hi[2];
    // Segments store the root's +inf top capped at max_lod, so a box
    // reaching it may hold a node alive at any LOD.
    if (h >= max_lod_) return true;
    const double reach =
        h + lipschitz_ * std::min(entry_reach, ReachAt(*reach_, h));
    const double req = MinRequired(box);
    // Relative slack: rounding may keep a node, never drop one.
    const double slack =
        1e-9 * (max_lod_ + std::abs(reach) + std::abs(req));
    return reach + slack >= req;
  }

 private:
  /// Lowest required LOD over the box's footprint.
  double MinRequired(const Box& box) const {
    if (view_ != nullptr) {
      // Non-decreasing along the gradient axis: the near corner.
      return std::max(view_->RequiredE(box.lo[0], box.lo[1]), view_->e_min);
    }
    // Radial and non-decreasing in the distance: the point nearest
    // the viewer.
    const Point2& v = perspective_->viewer;
    return perspective_->RequiredE(
        std::min(std::max(v.x, box.lo[0]), box.hi[0]),
        std::min(std::max(v.y, box.lo[1]), box.hi[1]));
  }

  const ReachTable* reach_;
  double max_lod_;
  double lipschitz_ = 0.0;
  const ViewQuery* view_ = nullptr;
  const PerspectiveQuery* perspective_ = nullptr;
};

/// The bound for query `q` when `options` ask for one and the source
/// has a catalog; empty otherwise (the fetch is the plain cube).
template <typename Query>
std::optional<SurfaceBound> MakeBound(const DmQueryOptions& options,
                                      const CostModelInputs& inputs,
                                      const Query& q) {
  if (!options.bounded_fetch || inputs.catalog == nullptr) {
    return std::nullopt;
  }
  SurfaceBound bound(*inputs.reach, inputs.catalog->stats().data_space.hi[2],
                     q);
  if (!bound.usable()) return std::nullopt;
  return bound;
}

}  // namespace

Status ViewQuery::Validate() const {
  if (!FiniteRect(roi) || !std::isfinite(e_min) || !std::isfinite(e_max)) {
    return Status::InvalidArgument("view query has a non-finite field");
  }
  if (roi.empty()) return Status::InvalidArgument("view query ROI is empty");
  if (e_max < e_min) {
    return Status::InvalidArgument("view query has e_max < e_min");
  }
  return Status::OK();
}

Status PerspectiveQuery::Validate() const {
  if (!FiniteRect(roi) || !std::isfinite(viewer.x) ||
      !std::isfinite(viewer.y) || !std::isfinite(tolerance) ||
      !std::isfinite(e_floor) || !std::isfinite(e_cap)) {
    return Status::InvalidArgument("perspective query has a non-finite field");
  }
  if (roi.empty()) {
    return Status::InvalidArgument("perspective query ROI is empty");
  }
  if (tolerance < 0) {
    return Status::InvalidArgument("perspective query has tolerance < 0");
  }
  if (e_cap < e_floor) {
    return Status::InvalidArgument("perspective query has e_cap < e_floor");
  }
  return Status::OK();
}

double ViewQuery::RequiredE(double x, double y) const {
  double t;
  if (gradient_along_y) {
    t = roi.height() > 0 ? (y - roi.lo_y) / roi.height() : 0.0;
  } else {
    t = roi.width() > 0 ? (x - roi.lo_x) / roi.width() : 0.0;
  }
  t = std::clamp(t, 0.0, 1.0);
  return EAt(t);
}

double PerspectiveQuery::RequiredE(double x, double y) const {
  const double dx = x - viewer.x;
  const double dy = y - viewer.y;
  const double d = std::sqrt(dx * dx + dy * dy);
  return std::clamp(e_floor + tolerance * d, e_floor, e_cap);
}

void PerspectiveQuery::Range(double* lo, double* hi) const {
  // RequiredE is radial and monotone in the distance, so extremes are
  // at the ROI's nearest and farthest points from the viewer.
  const double nx = std::clamp(viewer.x, roi.lo_x, roi.hi_x);
  const double ny = std::clamp(viewer.y, roi.lo_y, roi.hi_y);
  *lo = RequiredE(nx, ny);
  double far = *lo;
  for (double cx : {roi.lo_x, roi.hi_x}) {
    for (double cy : {roi.lo_y, roi.hi_y}) {
      far = std::max(far, RequiredE(cx, cy));
    }
  }
  *hi = far;
}

ViewQuery ViewQuery::FromAngle(const Rect& roi, double e_min,
                               double angle_fraction, double dataset_max_lod,
                               bool gradient_along_y) {
  // theta_max = arctan(LODdataset_max / ROI); the query plane at
  // angle = f * theta_max spans e from e_min to
  // e_min + extent * tan(f * theta_max).
  ViewQuery q;
  q.roi = roi;
  q.e_min = e_min;
  q.gradient_along_y = gradient_along_y;
  const double extent = gradient_along_y ? roi.height() : roi.width();
  const double theta_max = std::atan2(dataset_max_lod, extent);
  const double rise = extent * std::tan(angle_fraction * theta_max);
  q.e_max = std::min(e_min + rise, dataset_max_lod);
  return q;
}

void DmQueryProcessor::BeginQuery() {
  health_ = QueryHealth{};
  deadline_ = std::chrono::steady_clock::time_point::max();
  if (options_.deadline_millis > 0.0) {
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        options_.deadline_millis));
  }
  // A client deadline propagated by the service tightens the per-query
  // budget, never extends it.
  deadline_ = std::min(deadline_, external_deadline_);
  deadline_armed_ = deadline_ != std::chrono::steady_clock::time_point::max();
}

Status DmQueryProcessor::FetchBox(const Box& box, const RangeFilter* filter,
                                  NodeMap* nodes, QueryStats* stats) {
  DM_CHECK(nodes != nullptr && stats != nullptr)
      << "FetchBox output parameters must be non-null";
  // Armed for the index traversal however the source runs it.
  ScopedRangeFilter guard(filter);
  // Insert-by-id sink: duplicates across replica attempts collapse in
  // the map, which is what makes redundant delivery safe.
  struct MapSink final : DmDataSource::NodeSink {
    NodeMap* nodes = nullptr;
    void Reserve(size_t expected) override {
      nodes->reserve(nodes->size() + expected);
    }
    void Deliver(const NodeRef& node) override {
      nodes->FindOrEmplace(node->id, node);
    }
  } sink;
  sink.nodes = nodes;
  BoxFetchStats bs;
  DM_RETURN_NOT_OK(source_->FetchBox(
      box, options_.allow_degraded,
      deadline_armed_ ? deadline_ : DmDataSource::kNoDeadline, &sink, &bs));
  stats->range_queries += bs.range_queries;
  stats->index_io += bs.index_io;
  stats->nodes_fetched += bs.nodes_fetched;
  stats->cache_hits += bs.cache_hits;
  stats->cache_misses += bs.cache_misses;
  health_.records_failed += bs.records_failed;
  health_.pages_failed += bs.pages_failed;
  health_.shards_missed += bs.shards_missed;
  if (bs.deadline_hit) health_.deadline_hit = true;
  if (bs.records_failed > 0 || bs.shards_missed > 0 || bs.deadline_hit) {
    health_.degraded = true;
  }
  return Status::OK();
}

void DmQueryProcessor::Triangulate(const NodeMap& nodes,
                                   std::span<const VertexId> cut,
                                   DmQueryResult* result) {
  // Edges of the approximation: connection-list pairs present in the
  // cut. Lists are exact (see dm/connectivity.h), so no geometric
  // checks are needed. The sorted cut gives each vertex its dense
  // local id, so `result->vertices` and `result->positions` are the
  // graph's id and position arrays; only the CSR adjacency and the
  // per-vertex list views live in the arena, and they stay there.
  result->vertices.assign(cut.begin(), cut.end());
  std::sort(result->vertices.begin(), result->vertices.end());
  const size_t n = result->vertices.size();
  result->positions.reserve(n);
  std::vector<std::span<const VertexId>,
              ArenaAllocator<std::span<const VertexId>>>
      lists(id_alloc());
  lists.reserve(n);
  for (VertexId v : result->vertices) {
    const NodeRef* np = nodes.find(v);
    DM_DCHECK(np != nullptr)
        << "cut vertex " << v << " missing from the fetched node map";
    result->positions.push_back((*np)->pos);
    lists.emplace_back((*np)->connections);
  }
  const LocalAdjacency adj =
      BuildLocalAdjacency(result->vertices, lists, scratch_arena());
  result->triangles = ExtractTriangles(LocalGraph{
      result->vertices, result->positions, adj.offsets, adj.neighbors});
}

Result<DmQueryResult> DmQueryProcessor::ViewpointIndependent(const Rect& r,
                                                             double e) {
  // A NaN field would make every index box intersect and no node alive
  // at `e`: the whole ROI read over all LODs for an empty mesh.
  if (!FiniteRect(r) || !std::isfinite(e)) {
    return Status::InvalidArgument("uniform query has a non-finite field");
  }
  if (r.empty()) return Status::InvalidArgument("uniform query ROI is empty");
  QueryStats stats;
  BeginQuery();
  const IoStats io0 = source_->io_stats();

  arena_.Reset();
  NodeMap nodes(kInvalidVertex, scratch_arena());
  DM_RETURN_NOT_OK(
      FetchBox(Box::FromRect(r, e, e), /*filter=*/nullptr, &nodes, &stats));

  const auto t0 = std::chrono::steady_clock::now();
  IdVec cut(id_alloc());
  cut.reserve(nodes.size());
  for (const auto& [id, n] : nodes) {
    // The index is inclusive on segment endpoints; enforce the
    // half-open interval semantics [e_low, e_high).
    if (n->AliveAt(e)) cut.push_back(id);
  }
  DmQueryResult result;
  Triangulate(nodes, {cut.data(), cut.size()}, &result);
  const auto t1 = std::chrono::steady_clock::now();

  stats.cpu_millis =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  result.stats = stats;
  result.health = health_;
  AddIoDelta(io0, &result);
  return result;
}

void DmQueryProcessor::AddIoDelta(const IoStats& io0,
                                  DmQueryResult* result) const {
  const IoStats io1 = source_->io_stats();
  result->stats.disk_accesses = io1.disk_reads - io0.disk_reads;
  result->stats.fetch_runs = io1.fetch_runs - io0.fetch_runs;
  result->stats.fetch_run_pages = io1.fetch_run_pages - io0.fetch_run_pages;
  result->health.io_retries = io1.io_retries - io0.io_retries;
}

DmQueryResult DmQueryProcessor::RefineAndTriangulate(
    const std::function<double(const Point3&)>& required_e,
    const NodeMap& nodes, IdVec start, QueryStats stats,
    bool seeds_may_nest) {
  const auto t0 = std::chrono::steady_clock::now();
  // Selective refinement from the top plane(s) down to the query
  // plane: replace any node whose interval floor exceeds the local
  // required LOD by its fetched children. Equivalent to the paper's
  // step 4 of Algorithm 1 (a sequence of vertex splits); connectivity
  // is recovered afterwards from the connection lists, which encode
  // exactly the edges every split would have produced.
  IdVec cut(id_alloc());
  cut.reserve(start.size());
  IdVec work = std::move(start);
  // A lossy fetch changes the missing-child rule below: a child absent
  // from the map may be a lost record rather than an ROI-boundary
  // node, so the parent must stay in the cut to keep the region
  // covered (the ancestor-fallback rule, DESIGN.md §11). A missed
  // shard region loses records wholesale, so it is lossy the same way.
  const bool lossy = health_.records_failed > 0 || health_.shards_missed > 0;
  uint32_t deadline_check = 0;
  while (!work.empty()) {
    if (deadline_armed_ && (++deadline_check & 63u) == 0 &&
        std::chrono::steady_clock::now() >= deadline_) {
      // Out of time: everything still queued keeps its current
      // (coarser) LOD. The cut stays a legal tiling — stopping a
      // refinement sequence early never breaks it.
      health_.deadline_hit = true;
      health_.degraded = true;
      health_.nodes_degraded += static_cast<int64_t>(work.size());
      for (VertexId v : work) cut.push_back(v);
      work.clear();
      break;
    }
    const VertexId id = work.back();
    work.pop_back();
    const NodeRef* np = nodes.find(id);
    DM_DCHECK(np != nullptr)
        << "work vertex " << id << " missing from the fetched node map";
    const DmNode& n = **np;
    const double req = required_e(n.pos);
    if (n.e_low > req && !n.is_leaf()) {
      ++stats.refinement_splits;
      const NodeRef* c1 = nodes.find(n.child1);
      const NodeRef* c2 = nodes.find(n.child2);
      if (c1 == nullptr && c2 == nullptr) {
        // Both children outside the fetched region (ROI boundary):
        // the node cannot refine further here.
        ++stats.refinement_misses;
        if (lossy) ++health_.nodes_degraded;
        cut.push_back(id);
        continue;
      }
      if (lossy && (c1 == nullptr || c2 == nullptr)) {
        // One child missing after a lossy fetch: it may sit on a lost
        // page, so refining the other side would leave a hole. Keep
        // the parent — the coarser live ancestor covers both.
        ++stats.refinement_misses;
        ++health_.nodes_degraded;
        cut.push_back(id);
        continue;
      }
      if (c1 != nullptr) work.push_back(n.child1);
      if (c2 != nullptr) work.push_back(n.child2);
      if (c1 == nullptr || c2 == nullptr) {
        ++stats.refinement_misses;
      }
      continue;
    }
    cut.push_back(id);
  }
  // Multi-base seeds can start refinement from an ancestor and one of
  // its descendants near a slice boundary; when both stop at the same
  // nodes the duplicates are exact, and when a slice's lower top plane
  // makes its seeds finer than another slice's satisfied ancestor the
  // cut briefly holds both generations. Dedupe, then let the coarser
  // representation win (single-base semantics), walking parent chains
  // through the fetched records. A single top-plane cut is a set of
  // disjoint subtrees' roots, and refining it (or stopping early at the
  // deadline) keeps it one, so single-base and perspective cuts skip
  // this.
  if (seeds_may_nest) {
    std::sort(cut.begin(), cut.end());
    cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
    FlatHashSet<VertexId> in_cut(kInvalidVertex, scratch_arena());
    in_cut.reserve(cut.size());
    for (VertexId v : cut) in_cut.insert(v);
    IdVec filtered(id_alloc());
    filtered.reserve(cut.size());
    for (VertexId v : cut) {
      bool covered = false;
      for (VertexId p = (*nodes.find(v))->parent; p != kInvalidVertex;) {
        if (in_cut.contains(p)) {
          covered = true;
          break;
        }
        const NodeRef* it = nodes.find(p);
        if (it == nullptr) break;
        p = (*it)->parent;
      }
      if (!covered) filtered.push_back(v);
    }
    cut = std::move(filtered);
  }

  DmQueryResult result;
  Triangulate(nodes, {cut.data(), cut.size()}, &result);
  const auto t1 = std::chrono::steady_clock::now();
  stats.cpu_millis +=
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  result.stats = stats;
  result.health = health_;
  return result;
}

Result<DmQueryResult> DmQueryProcessor::SingleBase(const ViewQuery& q) {
  DM_RETURN_NOT_OK(q.Validate());
  QueryStats stats;
  BeginQuery();
  const IoStats io0 = source_->io_stats();

  arena_.Reset();
  NodeMap nodes(kInvalidVertex, scratch_arena());
  const std::optional<SurfaceBound> bound =
      MakeBound(options_, source_->cost_inputs(), q);
  DM_RETURN_NOT_OK(FetchBox(Box::FromRect(q.roi, q.e_min, q.e_max),
                            bound ? &*bound : nullptr, &nodes, &stats));

  // Top-plane mesh: the cut at e_max (Algorithm 1, step 3).
  IdVec start(id_alloc());
  for (const auto& [id, n] : nodes) {
    if (n->AliveAt(q.e_max)) start.push_back(id);
  }
  DmQueryResult result = RefineAndTriangulate(
      [&q](const Point3& p) {
        return std::max(q.RequiredE(p.x, p.y), q.e_min);
      },
      nodes, std::move(start), std::move(stats), /*seeds_may_nest=*/false);
  AddIoDelta(io0, &result);
  return result;
}

Result<DmQueryResult> DmQueryProcessor::Perspective(
    const PerspectiveQuery& q) {
  DM_RETURN_NOT_OK(q.Validate());
  QueryStats stats;
  BeginQuery();
  const IoStats io0 = source_->io_stats();

  double e_lo = 0.0;
  double e_hi = 0.0;
  q.Range(&e_lo, &e_hi);
  arena_.Reset();
  NodeMap nodes(kInvalidVertex, scratch_arena());
  const std::optional<SurfaceBound> bound =
      MakeBound(options_, source_->cost_inputs(), q);
  DM_RETURN_NOT_OK(FetchBox(Box::FromRect(q.roi, e_lo, e_hi),
                            bound ? &*bound : nullptr, &nodes, &stats));

  IdVec start(id_alloc());
  for (const auto& [id, n] : nodes) {
    if (n->AliveAt(e_hi)) start.push_back(id);
  }
  DmQueryResult result = RefineAndTriangulate(
      [&q](const Point3& p) { return q.RequiredE(p.x, p.y); }, nodes,
      std::move(start), std::move(stats), /*seeds_may_nest=*/false);
  AddIoDelta(io0, &result);
  return result;
}

Result<DmQueryResult> DmQueryProcessor::MultiBase(const ViewQuery& q,
                                                  int max_cubes) {
  DM_RETURN_NOT_OK(q.Validate());
  QueryStats stats;
  BeginQuery();
  const IoStats io0 = source_->io_stats();

  const CostModelInputs inputs = source_->cost_inputs();
  const std::vector<BaseCube> cubes =
      OptimizeMultiBase(inputs, q.roi, q.gradient_along_y,
                        [&](double t) { return q.EAt(t); }, max_cubes);
  // One bound for every slice: it depends only on the query plane.
  const std::optional<SurfaceBound> bound = MakeBound(options_, inputs, q);

  arena_.Reset();
  NodeMap nodes(kInvalidVertex, scratch_arena());
  IdVec start(id_alloc());
  for (const BaseCube& cube : cubes) {
    // Mid-query deadline check between slice fetches: the refinement
    // loop's check cannot fire while the processor is still inside a
    // multi-cube fetch sequence. Degraded mode drops the remaining
    // slices (their regions go sparser, exactly the missed-shard
    // semantics); strict mode fails, since a partial slice set is not
    // the strict result.
    if (deadline_armed_ && std::chrono::steady_clock::now() >= deadline_) {
      if (!options_.allow_degraded) {
        return Status::DeadlineExceeded(
            "multi-base fetch deadline expired between slices");
      }
      health_.deadline_hit = true;
      health_.degraded = true;
      ++health_.shards_missed;
      break;
    }
    const Box box = SliceBox(q.roi, q.gradient_along_y, cube);
    NodeMap slice_nodes(kInvalidVertex, scratch_arena());
    DM_RETURN_NOT_OK(
        FetchBox(box, bound ? &*bound : nullptr, &slice_nodes, &stats));
    // This slice's top plane: its cut at the slice's e_hi, restricted
    // to the slice (each point belongs to exactly one slice; the last
    // slice owns its far edge). Sharing the NodeRef (not moving the
    // node) keeps the slice map valid; it costs one refcount for an
    // owning ref and nothing for a cache-resident one.
    for (const auto& [id, n] : slice_nodes) {
      if (n->AliveAt(cube.e_hi) &&
          box.rect_xy().Contains(n->pos.x, n->pos.y)) {
        start.push_back(id);
      }
      nodes.FindOrEmplace(id, n);
    }
  }
  // A node straddling a slice boundary can enter `start` from both
  // slices (fetched twice); dedupe.
  std::sort(start.begin(), start.end());
  start.erase(std::unique(start.begin(), start.end()), start.end());

  DmQueryResult result = RefineAndTriangulate(
      [&q](const Point3& p) {
        return std::max(q.RequiredE(p.x, p.y), q.e_min);
      },
      nodes, std::move(start), std::move(stats), /*seeds_may_nest=*/true);
  AddIoDelta(io0, &result);
  return result;
}

}  // namespace dm
