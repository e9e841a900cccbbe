#include "mesh/extract.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/flat_hash.h"

namespace dm {

LocalAdjacency BuildLocalAdjacency(
    std::span<const VertexId> ids,
    std::span<const std::span<const VertexId>> lists, Arena* arena) {
  DM_CHECK(lists.size() == ids.size())
      << "one neighbour list per vertex: " << lists.size() << " lists for "
      << ids.size() << " vertices";
  const size_t n = ids.size();
  // Most connection-list entries name nodes outside the graph, and a
  // miss probes up to the next empty slot, so the map is kept at most
  // about 3/8 full.
  FlatHashMap<VertexId, uint32_t> local(kInvalidVertex, arena);
  local.reserve(2 * n);
  size_t max_edges = 0;
  for (size_t i = 0; i < n; ++i) {
    DM_DCHECK(i == 0 || ids[i - 1] < ids[i])
        << "local graph ids are not strictly ascending at " << i;
    local.FindOrEmplace(ids[i], static_cast<uint32_t>(i));
    max_edges += lists[i].size();
  }
  const ArenaAllocator<uint32_t> alloc(arena);
  LocalAdjacency adj{LocalIdVec(alloc), LocalIdVec(alloc)};
  adj.offsets.reserve(n + 1);
  adj.neighbors.reserve(max_edges);
  adj.offsets.push_back(0);
  for (size_t i = 0; i < n; ++i) {
    for (VertexId c : lists[i]) {
      if (const uint32_t* l = local.find(c)) adj.neighbors.push_back(*l);
    }
    adj.offsets.push_back(static_cast<uint32_t>(adj.neighbors.size()));
    // The mutual-adjacency test in ExtractTriangles binary-searches
    // these lists; local ids keep id order, so a sorted input list
    // stays sorted.
    DM_DCHECK(std::is_sorted(adj.neighbors.begin() + adj.offsets[i],
                             adj.neighbors.end()))
        << "neighbour list of vertex " << ids[i] << " is not sorted";
  }
  return adj;
}

std::vector<Triangle> ExtractTriangles(const LocalGraph& graph) {
  const size_t n = graph.size();
  DM_CHECK(graph.positions.size() == n && graph.offsets.size() == n + 1)
      << "local graph arrays disagree: " << n << " ids, "
      << graph.positions.size() << " positions, " << graph.offsets.size()
      << " offsets";
  std::vector<Triangle> out;
  // A planar triangulation has < 2V faces; one reservation replaces
  // the growth reallocations on the query hot path.
  out.reserve(n * 2);
  // One vertex's neighbour ring with each entry's angle around the
  // centre. Its capacity persists across calls so the steady state
  // allocates nothing beyond the returned triangle list.
  struct RingEntry {
    double angle;
    uint32_t v;
  };
  thread_local std::vector<RingEntry> ring;
  for (uint32_t u = 0; u < n; ++u) {
    const std::span<const uint32_t> nbrs = graph.NeighborsOf(u);
    // Faces are emitted from their minimum-id corner, so a vertex with
    // fewer than two higher-id neighbours emits none.
    if (nbrs.end() - std::upper_bound(nbrs.begin(), nbrs.end(), u) < 2) {
      continue;
    }
    const Point3& pu = graph.positions[u];
    ring.clear();
    for (uint32_t a : nbrs) {
      const Point3& pa = graph.positions[a];
      ring.push_back({std::atan2(pa.y - pu.y, pa.x - pu.x), a});
    }
    // The keys are the doubles a comparator calling atan2 per
    // comparison would compare, and the ring starts in the same (id)
    // order, so std::sort makes the same moves: ties between equal
    // angles resolve exactly as they always have.
    std::sort(ring.begin(), ring.end(),
              [](const RingEntry& a, const RingEntry& b) {
                return a.angle < b.angle;
              });
    // A face (u, a, b) requires a and b to be angularly consecutive
    // around u (otherwise some neighbour lies inside the wedge and the
    // 3-cycle is not empty), mutually adjacent, and CCW (the
    // wrap-around pair of a boundary fan spans the reflex wedge and is
    // CW, which drops it). Each face is emitted once, from its
    // minimum-id corner.
    const size_t k = ring.size();
    for (size_t i = 0; i < k; ++i) {
      const uint32_t a = ring[i].v;
      const uint32_t b = ring[(i + 1) % k].v;
      if (a == b || a < u || b < u) continue;
      const std::span<const uint32_t> na = graph.NeighborsOf(a);
      if (!std::binary_search(na.begin(), na.end(), b)) continue;
      const Point3& pa = graph.positions[a];
      const Point3& pb = graph.positions[b];
      const double cross = (pa.x - pu.x) * (pb.y - pu.y) -
                           (pa.y - pu.y) * (pb.x - pu.x);
      if (cross <= 0) continue;
      out.push_back(Triangle{{graph.ids[u], graph.ids[a], graph.ids[b]}});
    }
  }
  return out;
}

}  // namespace dm
