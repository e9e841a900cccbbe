#ifndef DIRECTMESH_DM_DM_STORE_H_
#define DIRECTMESH_DM_DM_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "dm/cost_model.h"
#include "dm/dm_node.h"
#include "dm/node_cache.h"
#include "index/rtree/rstar_tree.h"
#include "mesh/triangle_mesh.h"
#include "pm/pm_tree.h"
#include "storage/db_env.h"
#include "storage/heap_file.h"

namespace dm {

/// Persistent identifiers and dataset statistics of a built DM
/// database; enough to reopen it without rebuilding.
struct DmMeta {
  PageId heap_first = kInvalidPage;
  PageId rtree_root = kInvalidPage;
  int64_t rtree_size = 0;
  int64_t num_nodes = 0;
  int64_t num_leaves = 0;
  double max_lod = 0.0;
  double mean_lod = 0.0;
  Rect bounds;
  /// Record codec of the heap file (flat / per-record compressed / v6
  /// group blocks); every reader dispatches through DecodeDmRecord.
  DmCodec codec = DmCodec::kFlat;
  /// Heap rewritten by RepackDmStore into LOD-band x Hilbert order;
  /// the query layer prefetches per page run instead of a single
  /// trailing window when this is set.
  bool repacked = false;
  /// Size of the global vertex-id space this store's records are drawn
  /// from. 0 (the default) means the store is complete: ids are dense
  /// in [0, num_nodes). A spatial shard (DESIGN.md §16) holds only the
  /// records of its region, so its ids are a sparse subset of
  /// [0, id_space) with id_space = the source store's num_nodes;
  /// invariant checks relax to partial-store rules when
  /// id_space > num_nodes (absent ids, links and connection targets
  /// landing outside the shard are expected, not corruption).
  int64_t id_space = 0;
};

/// Wall-clock breakdown of one DmStore::Build call, for build
/// progress reporting and the ingest bench.
struct DmBuildTimings {
  double conn_millis = 0.0;      // connection lists (skipped if precomputed)
  double str_millis = 0.0;       // STR packing order
  double encode_millis = 0.0;    // record encoding
  double append_millis = 0.0;    // heap writes
  double bulkload_millis = 0.0;  // R*-tree pack
  double catalog_millis = 0.0;   // catalog / cost-model snapshot
};

/// Build-time options of a DM database.
struct DmStoreOptions {
  /// Record codec. kGroup (format v6) packs many frame-of-reference
  /// coded records per page and is what the compression ablation
  /// measures against; kFlat is the fixed-width seed layout.
  DmCodec codec = DmCodec::kFlat;
  /// Legacy alias for codec = DmCodec::kCompressed (the per-record
  /// delta/varint codec of the paper's reference [2]); honored only
  /// when `codec` is left at kFlat.
  bool compress_records = false;
  /// Worker threads for connection lists, STR sorting, and record
  /// encoding (<= 0 means one per hardware core). The built files are
  /// byte-identical at any thread count: parallel stages either have
  /// one valid answer (sorts under total orders) or write disjoint
  /// slots, and everything that allocates pages stays sequential.
  int threads = 1;
  /// Connection lists computed by the caller (must match
  /// BuildConnectionLists for the same tree); skips the rebuild so
  /// callers that also need the lists for stats don't pay twice.
  const std::vector<std::vector<VertexId>>* connections = nullptr;
  /// When non-null, receives the per-stage wall-clock breakdown.
  DmBuildTimings* timings = nullptr;
};

/// A Direct Mesh database: DM node records in a heap file (appended in
/// the STR packing order of their index entries to preserve spatial
/// clustering on disk; a repacked store uses tile-Hilbert order) and
/// a 3D R*-tree indexing each node as the vertical line segment
/// <(x, y, e_low), (x, y, e_high)> in (x, y, e) space — Section 4 of
/// the paper.
///
/// Concurrency: a DmStore is immutable after Build/Open — the heap,
/// R*-tree, meta, and catalog never change — so every const member
/// (FetchNode, FetchNodes, rtree() range queries, cost_inputs()) is
/// safe to call from many query workers sharing one store; the only
/// mutable state is inside the thread-safe buffer pool and the
/// (equally thread-safe) sharded decoded-node cache.
class DmStore {
 public:
  /// Builds the database from a PM construction run: computes the
  /// similar-LOD connection lists, writes all node records, and bulk
  /// inserts the segments into the R*-tree.
  static Result<DmStore> Build(DbEnv* env, const TriangleMesh& base,
                               const PmTree& tree, const SimplifyResult& sr,
                               const DmStoreOptions& options = {});

  /// Reopens a previously built database.
  static Result<DmStore> Open(DbEnv* env, const DmMeta& meta);

  const DmMeta& meta() const { return meta_; }
  DbEnv* env() const { return env_; }
  const RStarTree& rtree() const { return rtree_; }
  const HeapFile& heap() const { return heap_; }

  /// Fetches and decodes one node record. Always reads through the
  /// heap file (never the node cache) so invariant checks and tests
  /// exercise the raw decode path.
  Result<DmNode> FetchNode(RecordId rid) const;

  /// Batch fetch: hands the nodes named by `sorted_rids` (packed
  /// RecordIds in ascending order — the order a sorted RangeQuery
  /// result is already in) to `fn`, in that order. Records that hit
  /// the decoded-node cache skip the heap entirely; the miss
  /// subsequence (still sorted) goes through HeapFile::GetMany, so
  /// runs of adjacent heap pages coalesce into single scatter-gather
  /// disk reads and, with the cache off, `disk_reads` accounting
  /// matches per-record FetchNode calls exactly.
  ///
  /// `counts`, when non-null, receives this call's exact cache
  /// hit/miss split (both zero when the cache is disabled) — unlike
  /// deltas of the shared `node_cache_stats()`, it is not polluted by
  /// concurrent workers.
  struct FetchCounts {
    int64_t cache_hits = 0;
    int64_t cache_misses = 0;
  };

  /// Nodes a tolerant FetchNodes could not deliver: records on
  /// unreadable/corrupt pages (from the heap layer) plus records that
  /// were read but failed to decode. The query layer degrades these
  /// to coarser live nodes instead of failing the query.
  struct FetchFailures {
    std::vector<RecordFetchFailure> records;

    bool empty() const { return records.empty(); }
    /// Distinct heap pages implicated across `records`.
    int64_t FailedPages() const;
  };

  /// When `failures` is null, any I/O, corruption, or decode error
  /// fails the whole call (strict mode — builds and audits want this).
  /// When non-null, per-record losses are collected there and the call
  /// returns OK; `fn` simply never sees the lost nodes.
  Status FetchNodes(const std::vector<uint64_t>& sorted_rids,
                    const std::function<void(const NodeRef&)>& fn,
                    FetchCounts* counts = nullptr,
                    FetchFailures* failures = nullptr) const;

  /// Sizes (0 disables) or resizes the decoded-node cache. Existing
  /// entries are dropped. Requires quiescence: no concurrent
  /// FetchNodes callers (benches and dmctl call it between batches).
  void EnableNodeCache(size_t bytes,
                       uint32_t shards = NodeCache::kDefaultShards);

  /// The decoded-node cache, or nullptr when disabled.
  const NodeCache* node_cache() const { return node_cache_.get(); }
  /// Cache counters; all zeros when the cache is disabled.
  NodeCacheStats node_cache_stats() const {
    return node_cache_ != nullptr ? node_cache_->stats() : NodeCacheStats{};
  }

  /// Cached node extents of the R*-tree for the multi-base cost model
  /// (collected once at open/build; treated as catalog statistics, not
  /// charged to query I/O).
  const std::vector<RTreeNodeExtent>& node_extents() const {
    return node_extents_;
  }
  /// Data-space box used for cost-model normalization.
  const Box& data_space() const { return data_space_; }

  /// Quantile map of the LOD axis for the cost model (see EAxisMap).
  const EAxisMap& e_axis_map() const { return e_axis_map_; }

  /// Full catalog snapshot for the query optimizer. Returned by value
  /// with the node-extent pointer re-bound, so it stays valid even
  /// though DmStore objects are moved around freely.
  CostModelInputs cost_inputs() const {
    CostModelInputs ci = cost_inputs_;
    ci.nodes = &node_extents_;
    return ci;
  }

 private:
  DmStore(DbEnv* env, HeapFile heap, RStarTree rtree)
      : env_(env), heap_(std::move(heap)), rtree_(std::move(rtree)) {}

  Status LoadCatalog();

  DbEnv* env_;
  HeapFile heap_;
  RStarTree rtree_;
  /// Decoded-node cache (tied to this store generation: a rebuild
  /// constructs a new store and with it a fresh, empty cache, which is
  /// the invalidation rule — stale decodes cannot survive a rebuild).
  /// unique_ptr keeps DmStore movable; null means disabled.
  std::unique_ptr<NodeCache> node_cache_;
  DmMeta meta_;
  std::vector<RTreeNodeExtent> node_extents_;
  Box data_space_;
  EAxisMap e_axis_map_;
  CostModelInputs cost_inputs_;
};

}  // namespace dm

#endif  // DIRECTMESH_DM_DM_STORE_H_
