#include "baseline/pmdb/pmdb_query.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <queue>
#include <set>
#include <span>

#include "mesh/extract.h"

namespace dm {

namespace {

/// Incrementally maintained approximation mesh during selective
/// refinement: adjacency sets over the current frontier.
class RefineMesh {
 public:
  void AddVertex(VertexId v) { adj_[v]; }
  bool Has(VertexId v) const { return adj_.count(v) > 0; }
  void AddEdge(VertexId a, VertexId b) {
    if (a == b) return;
    adj_[a].insert(b);
    adj_[b].insert(a);
  }
  std::vector<VertexId> Neighbors(VertexId v) const {
    auto it = adj_.find(v);
    if (it == adj_.end()) return {};
    return std::vector<VertexId>(it->second.begin(), it->second.end());
  }
  void RemoveVertex(VertexId v) {
    auto it = adj_.find(v);
    if (it == adj_.end()) return;
    for (VertexId n : it->second) adj_[n].erase(v);
    adj_.erase(it);
  }
  const std::unordered_map<VertexId, std::set<VertexId>>& adjacency() const {
    return adj_;
  }

 private:
  std::unordered_map<VertexId, std::set<VertexId>> adj_;
};

// Which side of the directed line a->b is p on (sign of the cross
// product in the footprint plane)?
double Side(const Point3& a, const Point3& b, const Point3& p) {
  return (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x);
}

}  // namespace

Result<const PmDbNode*> PmQueryProcessor::GetOrFetch(VertexId id,
                                                     NodeMap* nodes,
                                                     QueryStats* stats) {
  auto it = nodes->find(id);
  if (it == nodes->end()) {
    DM_ASSIGN_OR_RETURN(PmDbNode node, store_->FetchNodeById(id));
    ++stats->nodes_fetched;
    it = nodes->emplace(id, std::move(node)).first;
  }
  return &it->second;
}

Result<PmQueryResult> PmQueryProcessor::Run(
    const Rect& r, double fetch_lo,
    const std::function<double(const PmDbNode&)>& required_e) {
  QueryStats stats;
  const int64_t reads0 = store_->env()->stats().disk_reads;

  // Phase 1: bulk fetch with the quadtree range query.
  NodeMap nodes;
  {
    ++stats.range_queries;
    std::vector<uint64_t> rids;
    DM_RETURN_NOT_OK(store_->quadtree().RangeQuery(
        Box::FromRect(r, fetch_lo, store_->meta().max_lod), &rids));
    std::sort(rids.begin(), rids.end());
    for (uint64_t packed : rids) {
      DM_ASSIGN_OR_RETURN(PmDbNode node,
                          store_->FetchNode(RecordId::Unpack(packed)));
      ++stats.nodes_fetched;
      nodes.emplace(node.id, std::move(node));
    }
  }

  // Phase 2: top-down selective refinement from the root, fetching
  // every missing record individually.
  RefineMesh mesh;
  // Coarse-to-fine split order keeps the wings of each split present
  // in the frontier when the split runs.
  auto cmp = [&nodes](VertexId a, VertexId b) {
    return nodes.at(a).e_low < nodes.at(b).e_low;
  };
  std::priority_queue<VertexId, std::vector<VertexId>, decltype(cmp)> queue(
      cmp);

  DM_ASSIGN_OR_RETURN(const PmDbNode* root,
                      GetOrFetch(store_->meta().pm_root, &nodes, &stats));
  mesh.AddVertex(root->id);
  queue.push(root->id);

  while (!queue.empty()) {
    const VertexId pid = queue.top();
    queue.pop();
    const PmDbNode n = nodes.at(pid);  // copy: map may rehash below
    if (!n.footprint.Intersects(r)) continue;
    if (n.is_leaf() || n.e_low <= required_e(n)) continue;

    ++stats.refinement_splits;
    DM_ASSIGN_OR_RETURN(const PmDbNode* c1p,
                        GetOrFetch(n.child1, &nodes, &stats));
    const PmDbNode c1 = *c1p;
    DM_ASSIGN_OR_RETURN(const PmDbNode* c2p,
                        GetOrFetch(n.child2, &nodes, &stats));
    const PmDbNode c2 = *c2p;

    // Vertex split: replace the parent by its children and rewire the
    // parent's neighbours. Wings attach to both children; the rest of
    // the ring splits by which side of the wing line it falls on
    // (children lie on opposite sides, since the child edge crosses
    // it).
    const std::vector<VertexId> ring = mesh.Neighbors(pid);
    mesh.RemoveVertex(pid);
    mesh.AddVertex(c1.id);
    mesh.AddVertex(c2.id);
    mesh.AddEdge(c1.id, c2.id);

    const bool w1 = n.wing1 != kInvalidVertex && mesh.Has(n.wing1);
    const bool w2 = n.wing2 != kInvalidVertex && mesh.Has(n.wing2);
    if (w1) {
      mesh.AddEdge(c1.id, n.wing1);
      mesh.AddEdge(c2.id, n.wing1);
    }
    if (w2) {
      mesh.AddEdge(c1.id, n.wing2);
      mesh.AddEdge(c2.id, n.wing2);
    }
    for (VertexId nb : ring) {
      if (nb == n.wing1 || nb == n.wing2) continue;
      if (!mesh.Has(nb)) continue;
      bool to_c1;
      if (w1 && w2) {
        const Point3& a = nodes.at(n.wing1).pos;
        const Point3& b = nodes.at(n.wing2).pos;
        const double side_c1 = Side(a, b, c1.pos);
        const double side_nb = Side(a, b, nodes.at(nb).pos);
        to_c1 = side_c1 * side_nb >= 0;
      } else {
        // Boundary split: assign by proximity.
        const Point3& pn = nodes.at(nb).pos;
        to_c1 = DistanceXY(pn, c1.pos) <= DistanceXY(pn, c2.pos);
      }
      mesh.AddEdge(to_c1 ? c1.id : c2.id, nb);
    }

    queue.push(c1.id);
    queue.push(c2.id);
  }

  // Phase 3: assemble the result restricted to the ROI.
  const auto t0 = std::chrono::steady_clock::now();
  PmQueryResult result;
  for (const auto& [v, nbrs] : mesh.adjacency()) {
    const PmDbNode& n = nodes.at(v);
    if (!r.Contains(n.pos.x, n.pos.y)) continue;
    result.vertices.push_back(v);
  }
  std::sort(result.vertices.begin(), result.vertices.end());
  // Each frontier neighbour set is already in id order; the local graph
  // keeps only the neighbours that are themselves in the ROI.
  std::vector<std::vector<VertexId>> rings;
  rings.reserve(result.vertices.size());
  for (VertexId v : result.vertices) {
    rings.push_back(mesh.Neighbors(v));
    result.positions.push_back(nodes.at(v).pos);
  }
  const std::vector<std::span<const VertexId>> lists(rings.begin(),
                                                     rings.end());
  const LocalAdjacency adj =
      BuildLocalAdjacency(result.vertices, lists, /*arena=*/nullptr);
  result.triangles = ExtractTriangles(LocalGraph{
      result.vertices, result.positions, adj.offsets, adj.neighbors});
  const auto t1 = std::chrono::steady_clock::now();

  stats.cpu_millis =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  stats.disk_accesses = store_->env()->stats().disk_reads - reads0;
  result.stats = stats;
  return result;
}

Result<PmQueryResult> PmQueryProcessor::Uniform(const Rect& r, double e) {
  return Run(r, e, [e](const PmDbNode&) { return e; });
}

Result<PmQueryResult> PmQueryProcessor::ViewDependent(const ViewQuery& q) {
  return Run(q.roi, q.e_min, [&q](const PmDbNode& n) {
    return q.RequiredE(n.pos.x, n.pos.y);
  });
}

}  // namespace dm
