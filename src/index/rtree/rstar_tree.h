#ifndef DIRECTMESH_INDEX_RTREE_RSTAR_TREE_H_
#define DIRECTMESH_INDEX_RTREE_RSTAR_TREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/geometry.h"
#include "common/parallel.h"
#include "common/status.h"
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

/// Disk-based R*-tree (Beckmann et al., SIGMOD 1990) over 3D boxes.
/// 2D indexing uses degenerate boxes (lo[2] == hi[2] == 0). One node
/// per page; entries are (Box, payload) where payload is a child page
/// id in internal nodes and an opaque 64-bit value (typically a packed
/// RecordId) in leaves.
///
/// Implements the full R* insertion heuristics: least-overlap
/// ChooseSubtree at the leaf level, forced reinsert of the 30%
/// farthest entries on first overflow per level, and the
/// margin-driven topological split.
///
/// Concurrency: once loading is done the tree structure is frozen, so
/// the const traversals (RangeQuery, RangeQueryEntries,
/// CollectNodeExtents, VisitNodes, Height, RootBox) are safe from many
/// threads; node pages are materialized through the thread-safe buffer
/// pool. `Insert` is single-writer and must not overlap with readers.
class RStarTree {
 public:
  /// Creates an empty tree (root = empty leaf) in `env`.
  static Result<RStarTree> Create(DbEnv* env);

  /// Opens an existing tree.
  static RStarTree Open(DbEnv* env, PageId root, int64_t size);

  /// Computes the Sort-Tile-Recursive packing order (Leutenegger et
  /// al.; the packed R-trees of Kamel-Faloutsos that the paper's cost
  /// model assumes): the returned permutation lists the boxes in leaf
  /// order, consecutive `leaf_capacity`-sized runs forming one leaf.
  /// Callers that co-locate records with the index (clustered storage)
  /// write their data file in this order.
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
  /// Capacity used by BulkLoad leaves (== MaxEntries()).
  static uint32_t LeafCapacityFor(uint32_t page_size);

  /// Builds a packed tree from entries already arranged in StrOrder.
  static Result<RStarTree> BulkLoad(
      DbEnv* env, const std::vector<std::pair<Box, uint64_t>>& ordered);

  PageId root() const { return root_; }
  int64_t size() const { return size_; }
  /// Number of levels (1 = the root is a leaf).
  Result<int> Height() const;

  Status Insert(const Box& box, uint64_t payload);

  /// Collects payloads of all leaf entries whose box intersects
  /// `query`. The traversal expands level by level, fetching each
  /// wave's node pages (and finally every intersecting leaf) as one
  /// BufferPool::FetchRuns batch — with an async device, one round trip
  /// per tree level instead of one per node. Payloads are emitted in
  /// RangeQueryEntries' depth-first visit order, so both return the
  /// same sequence. Sibling leaves that barely miss the query's LOD
  /// range feed the pool's speculative prefetcher
  /// (DbOptions::prefetch_depth).
  Status RangeQuery(const Box& query, std::vector<uint64_t>* out) const;

  /// Streaming depth-first variant exposing entry boxes, one pinned
  /// page at a time; callback may return false to stop. Serves
  /// whole-index scans (DmStore's catalog) and is the reference order
  /// RangeQuery reproduces.
  Status RangeQueryEntries(
      const Box& query,
      const std::function<bool(const Box&, uint64_t)>& callback) const;

  /// Enumerates every node's MBR/level/count (root included).
  Status CollectNodeExtents(std::vector<RTreeNodeExtent>* out) const;

  /// Depth-first structural traversal for audits: the callback sees
  /// each node's page id, level, and entries (payloads are child page
  /// ids when level > 0, opaque leaf payloads at level 0). Returning
  /// false stops the walk early.
  Status VisitNodes(
      const std::function<bool(PageId, uint16_t,
                               const std::vector<std::pair<Box, uint64_t>>&)>&
          callback) const;

  /// The MBR of the whole tree (empty box when the tree is empty).
  Result<Box> RootBox() const;

 private:
  struct Entry {
    Box box;
    uint64_t payload = 0;
  };
  struct Node {
    uint16_t level = 0;
    std::vector<Entry> entries;
  };

  /// Decoded root node, cached on first use. Every traversal touches
  /// the root, so a buffer-starved pool would otherwise pay one device
  /// round trip per query just to re-learn the fan-out. The tree is
  /// frozen while readers run (Insert is single-writer and must not
  /// overlap them), so the cache can only go stale across an Insert,
  /// which invalidates it. Held behind a shared_ptr so tree handles
  /// stay copyable and copies share one cache (they view one tree).
  struct RootCache;

  RStarTree(DbEnv* env, PageId root);

  uint32_t MaxEntries() const;
  uint32_t MinEntries() const;

  /// Returns the cached decoded root, reading it once on a miss.
  Result<std::shared_ptr<const Node>> CachedRoot() const;

  Result<Node> ReadNode(PageId id) const;
  Status WriteNode(PageId id, const Node& node);
  Result<PageId> AllocNode(const Node& node);

  /// Root-to-target path of page ids; `slots[i]` is the entry index of
  /// path[i+1] inside path[i].
  struct Path {
    std::vector<PageId> pages;
    std::vector<uint32_t> slots;
  };
  Result<Path> ChoosePath(const Box& box, uint16_t target_level) const;

  /// Recomputes exact parent MBRs along the path, bottom-up.
  Status AdjustPath(const Path& path);

  /// Overflow at path.back(); splits or force-reinserts.
  Status HandleOverflow(Path path, std::vector<bool>* reinserted);

  Status InsertEntry(const Entry& entry, uint16_t target_level,
                     std::vector<bool>* reinserted);

  static Box NodeBox(const Node& node);
  static void SplitNode(const Node& node, uint32_t min_entries, Node* left,
                        Node* right);

  DbEnv* env_;
  PageId root_;
  int64_t size_ = 0;
  std::shared_ptr<RootCache> root_cache_;
};

}  // namespace dm

#endif  // DIRECTMESH_INDEX_RTREE_RSTAR_TREE_H_
