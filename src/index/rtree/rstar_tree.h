#ifndef DIRECTMESH_INDEX_RTREE_RSTAR_TREE_H_
#define DIRECTMESH_INDEX_RTREE_RSTAR_TREE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
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
/// changes afterwards; there is no dynamic insertion.
///
/// Concurrency: the tree is immutable, so the const traversals
/// (RangeQuery, RangeQueryEntries, VisitNodes, Height) are safe from
/// many threads; node pages are materialized through the thread-safe
/// buffer pool. The only shared mutable state
/// is the decoded-root cache, filled once under its mutex.
class RStarTree {
 public:
  /// Opens an existing tree.
  static RStarTree Open(DbEnv* env, PageId root, int64_t size);

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
  Result<int> Height() const;

  /// Collects payloads of all leaf entries whose box intersects
  /// `query`. The traversal expands level by level, fetching each
  /// wave's node pages (and finally every intersecting leaf) as one
  /// BufferPool::FetchRuns batch, so adjacent node pages coalesce into
  /// one read. Payloads are emitted in RangeQueryEntries' depth-first
  /// visit order, so both return the same sequence.
  ///
  /// Both traversals also honour the thread's ScopedRangeFilter: an
  /// internal entry or leaf entry that intersects `query` but fails
  /// the armed filter (given the entry's reach) is pruned inside the
  /// same traversal.
  Status RangeQuery(const Box& query, std::vector<uint64_t>* out) const;

  /// Streaming depth-first variant exposing entry boxes, one pinned
  /// page at a time; callback may return false to stop. Answers
  /// RangeQuery on a leaf root and is the reference order RangeQuery
  /// reproduces.
  Status RangeQueryEntries(
      const Box& query,
      const std::function<bool(const Box&, uint64_t)>& callback) const;

  /// Depth-first structural traversal for audits and DmStore's catalog:
  /// the callback sees each node's page id, level, and entries
  /// (RTreeEntry: payloads are child page ids when level > 0, opaque
  /// leaf payloads at level 0), root first, children popped LIFO as in
  /// RangeQueryEntries. Returning false stops the walk early.
  Status VisitNodes(
      const std::function<bool(PageId, uint16_t,
                               const std::vector<RTreeEntry>&)>& callback)
      const;

 private:
  struct Node {
    uint16_t level = 0;
    std::vector<RTreeEntry> entries;
  };

  /// Decoded root node, cached on first use. Every traversal touches
  /// the root, so a buffer-starved pool would otherwise pay one device
  /// round trip per query just to re-learn the fan-out. The tree never
  /// changes after BulkLoad, so the cache is filled once and never goes
  /// stale. Held behind a shared_ptr so tree handles stay copyable and
  /// copies share one cache (they view one tree).
  struct RootCache;

  RStarTree(DbEnv* env, PageId root);

  /// Entries per node at `level`: LeafCapacityFor(page size) at level
  /// 0, InternalCapacityFor(page size) above.
  uint32_t MaxEntries(uint16_t level) const;

  /// Reads a node page's level and entry count into `level` and
  /// `count`. Corruption naming the page if the level is not
  /// `expected_level` (pass -1 when no level is implied) or the count
  /// exceeds MaxEntries(level).
  Status CheckHeader(PageId id, const uint8_t* data, int expected_level,
                     uint16_t* level, uint16_t* count) const;

  /// Returns the cached decoded root, reading it once on a miss.
  Result<std::shared_ptr<const Node>> CachedRoot() const;
  /// Installs `root` as the cached root unless one is cached already;
  /// returns the cached one.
  std::shared_ptr<const Node> CacheRoot(Node root) const;

  Result<Node> ReadNode(PageId id) const;
  /// Writes `node` to a fresh page and returns its id.
  Result<PageId> AllocNode(const Node& node);

  static Box NodeBox(const Node& node);

  DbEnv* env_;
  PageId root_;
  int64_t size_ = 0;
  std::shared_ptr<RootCache> root_cache_;
};

}  // namespace dm

#endif  // DIRECTMESH_INDEX_RTREE_RSTAR_TREE_H_
