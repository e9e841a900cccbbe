#ifndef DIRECTMESH_MESH_EXTRACT_H_
#define DIRECTMESH_MESH_EXTRACT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/geometry.h"
#include "mesh/triangle_mesh.h"

namespace dm {

/// A planar terrain adjacency graph on dense local ids 0..n-1, in
/// compressed sparse row (CSR) form. Local id i is the i-th smallest
/// global id, so comparing local ids compares global ids and a list
/// of local ids sorted by one is sorted by the other. The query
/// pipeline, the PMDB baseline and the tests all hand their graphs to
/// ExtractTriangles in this one shape; nothing is looked up by global
/// id while triangles are extracted.
struct LocalGraph {
  /// Global id of each local vertex, strictly ascending.
  std::span<const VertexId> ids;
  /// Position of each local vertex (parallel to `ids`).
  std::span<const Point3> positions;
  /// n + 1 entries: vertex i's neighbours are
  /// neighbors[offsets[i], offsets[i + 1]).
  std::span<const uint32_t> offsets;
  /// Local neighbour ids; each vertex's list is ascending.
  std::span<const uint32_t> neighbors;

  size_t size() const { return ids.size(); }
  std::span<const uint32_t> NeighborsOf(uint32_t v) const {
    return neighbors.subspan(offsets[v], offsets[v + 1] - offsets[v]);
  }
};

/// Storage for a LocalGraph's CSR arrays; arena-backed when built with
/// an arena, heap-backed otherwise.
using LocalIdVec = std::vector<uint32_t, ArenaAllocator<uint32_t>>;
struct LocalAdjacency {
  LocalIdVec offsets;
  LocalIdVec neighbors;
};

/// Builds the CSR adjacency of the graph on `ids` (strictly ascending
/// global ids): local vertex i keeps the entries of `lists[i]` (global
/// ids, ascending) that are themselves in `ids`, as local ids. Because
/// local ids keep id order, every filtered list stays ascending. The
/// global-to-local map lives only for this call; it and the returned
/// arrays come from `arena` (the heap when null).
LocalAdjacency BuildLocalAdjacency(
    std::span<const VertexId> ids,
    std::span<const std::span<const VertexId>> lists, Arena* arena);

/// Extracts the triangles of a planar terrain adjacency graph.
///
/// A triangle is emitted for each empty 3-cycle: for every vertex u and
/// every pair of angularly consecutive neighbours (a, b) around u that
/// are themselves adjacent. Each face is reported once (from its
/// minimum-id vertex), oriented CCW in the (x, y) projection, in
/// global ids. Vertices are visited in id order, and each neighbour
/// ring is sorted by an angle key computed once per entry with atan2.
/// Neighbour lists must be symmetric.
std::vector<Triangle> ExtractTriangles(const LocalGraph& graph);

}  // namespace dm

#endif  // DIRECTMESH_MESH_EXTRACT_H_
