#ifndef DIRECTMESH_INDEX_RTREE_RSTAR_TREE_H_
#define DIRECTMESH_INDEX_RTREE_RSTAR_TREE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/geometry.h"
#include "common/parallel.h"
#include "common/status.h"
#include "index/rtree/range_filter.h"
#include "storage/db_env.h"
#include "storage/page.h"

namespace dm {

/// The MBR and level of one R*-tree node; the multi-base optimizer
/// feeds these into the Kamel-Faloutsos expected-disk-access formula,
/// which sums over the nodes of the index ("the size of R-tree nodes
/// can be found from the R-tree index").
struct RTreeNodeExtent {
  Box box;
  uint16_t level = 0;  // 0 = leaf
  uint16_t count = 0;
};

/// One R*-tree entry, as BulkLoad takes it and VisitNodes reports it.
/// In a leaf, `box` is a vertical segment (x, y, [e_low, e_high]),
/// `payload` an opaque 64-bit value (typically a packed RecordId) and
/// `reach` the entry's own parent reach: a finite, non-negative bound
/// on the xy distance from the indexed node to its parent (DESIGN.md
/// §18). In an internal node, `box` is the child's MBB, `payload` its
/// page id and `reach` +inf (no per-entry bound).
struct RTreeEntry {
  Box box;
  uint64_t payload = 0;
  float reach = std::numeric_limits<float>::infinity();
};

/// Disk-based, read-only R*-tree over 3D (x, y, LOD) vertical
/// segments: the paper's index of DM nodes. One node per page. A leaf
/// entry stores its segment once, (x, y, e_low, e_high), with its
/// payload and reach (44 B); an internal entry stores the child's MBB
/// and page id (56 B) — DESIGN.md §14.
///
/// A tree is written once, by BulkLoad over entries in StrOrder (the
/// packed R-tree that Kamel-Faloutsos's cost model assumes), and never
/// changes afterwards; there is no dynamic insertion. BulkLoad keeps
/// the root node it writes and Open decodes it once, so every query
/// starts from the decoded root without a page fetch.
///
/// Concurrency: a tree handle, its decoded root included, is immutable
/// after BulkLoad or Open, so the const members (RangeQuery,
/// VisitNodes, Height) are safe from many threads; node pages are
/// materialized through the thread-safe buffer pool.
class RStarTree {
 public:
  /// Opens an existing tree and decodes its root page. Fails with the
  /// root page's fetch status, or Corruption naming it if its header
  /// or an entry is damaged.
  static Result<RStarTree> Open(DbEnv* env, PageId root, int64_t size);

  /// Computes the Sort-Tile-Recursive packing order (Leutenegger et
  /// al.; the packed R-trees of Kamel-Faloutsos that the paper's cost
  /// model assumes): the returned permutation lists the boxes in leaf
  /// order, consecutive `leaf_capacity`-sized runs forming one leaf.
  /// Slabs (x) and runs (y) are cut at whole-leaf boundaries, so every
  /// leaf holds boxes of one (slab, run) cell, and each run is sorted
  /// by box top (`hi[2]`, a segment's e_high), so within a cell the
  /// leaves ascend by LOD. Callers that co-locate records with the
  /// index (clustered storage) write their data file in this order.
  ///
  /// The overload taking a WorkerPool runs the x sort as a parallel
  /// stable merge sort and fans the per-slab y / per-run e sorts out
  /// over the pool; every comparator is a total order (index
  /// tie-break), so the permutation is identical at any thread count.
  static std::vector<size_t> StrOrder(const std::vector<Box>& boxes,
                                      uint32_t leaf_capacity);
  static std::vector<size_t> StrOrder(const std::vector<Box>& boxes,
                                      uint32_t leaf_capacity,
                                      WorkerPool& pool);
  /// Entries per leaf on `page_size` pages (92 on 4 KiB pages).
  static uint32_t LeafCapacityFor(uint32_t page_size);
  /// Entries per internal node on `page_size` pages (72 on 4 KiB).
  static uint32_t InternalCapacityFor(uint32_t page_size);

  /// Builds a packed tree whose leaves hold `ordered` in the given
  /// order, `LeafCapacityFor` entries each. A complete DM store passes
  /// its entries in StrOrder; a spatial shard passes its region's
  /// entries in the source store's heap order (StrOrder restricted to
  /// the region), so its leaves follow the source's layout.
  /// InvalidArgument if any box is not a vertical segment (x and y
  /// degenerate, e_low <= e_high; an empty box would drop out of every
  /// node MBR above it, out of reach of every query) or any reach is
  /// negative, NaN or infinite.
  static Result<RStarTree> BulkLoad(DbEnv* env,
                                    const std::vector<RTreeEntry>& ordered);

  PageId root() const { return root_; }
  int64_t size() const { return size_; }
  /// Number of levels (1 = the root is a leaf).
  int Height() const { return root_node_.level + 1; }

  /// Appends to `out` the payloads of all leaf entries whose box
  /// intersects `query` and that the thread's ScopedRangeFilter admits
  /// (given the entry's reach); an internal entry the filter rejects
  /// prunes its whole subtree. The traversal starts at the decoded
  /// root and expands one level per wave: each wave's node pages,
  /// sorted and deduplicated, go to one BufferPool::FetchRuns batch,
  /// so adjacent pages coalesce into one read. Payloads come in leaf
  /// page order, then entry order within a leaf; callers that need rid
  /// order sort them. Corruption naming the page if a node's level
  /// disagrees with its parent, its count exceeds its capacity, or a
  /// leaf reach is invalid.
  Status RangeQuery(const Box& query, std::vector<uint64_t>* out) const;

  /// Depth-first structural traversal for audits and DmStore's catalog:
  /// the callback sees each node's page id, level, and entries
  /// (RTreeEntry: payloads are child page ids when level > 0, opaque
  /// leaf payloads at level 0), root first, then the children of each
  /// node from its last entry to its first. Every node, the root
  /// included, is read from its page, so an audit sees the pages as
  /// they are now. Returning false stops the walk early.
  Status VisitNodes(
      const std::function<bool(PageId, uint16_t,
                               const std::vector<RTreeEntry>&)>& callback)
      const;

 private:
  struct Node {
    uint16_t level = 0;
    std::vector<RTreeEntry> entries;
  };

  explicit RStarTree(DbEnv* env) : env_(env) {}

  /// Entries per node at `level`: LeafCapacityFor(page size) at level
  /// 0, InternalCapacityFor(page size) above.
  uint32_t MaxEntries(uint16_t level) const;

  /// Reads a node page's level and entry count into `level` and
  /// `count`. Corruption naming the page if the level is not
  /// `expected_level` (pass -1 when no level is implied) or the count
  /// exceeds MaxEntries(level).
  Status CheckHeader(PageId id, const uint8_t* data, int expected_level,
                     uint16_t* level, uint16_t* count) const;

  Result<Node> ReadNode(PageId id) const;
  /// Writes `node` to a fresh page and returns its id.
  Result<PageId> AllocNode(const Node& node);

  static Box NodeBox(const Node& node);

  DbEnv* env_;
  PageId root_ = kInvalidPage;
  int64_t size_ = 0;
  /// The decoded root node, set once by BulkLoad or Open.
  Node root_node_;
};

}  // namespace dm

#endif  // DIRECTMESH_INDEX_RTREE_RSTAR_TREE_H_
