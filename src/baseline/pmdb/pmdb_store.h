#ifndef DIRECTMESH_BASELINE_PMDB_PMDB_STORE_H_
#define DIRECTMESH_BASELINE_PMDB_PMDB_STORE_H_

#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "index/btree/bplus_tree.h"
#include "index/lodquadtree/lod_quadtree.h"
#include "pm/pm_tree.h"
#include "storage/db_env.h"
#include "storage/heap_file.h"

namespace dm {

/// A PM node record as stored by the baseline: the paper's
/// "(ID, x, y, z, e, parent, child1, child2, wing1, wing2)" plus the
/// footprint MBR every internal node must carry. Fixed 120-byte
/// encoding.
struct PmDbNode {
  VertexId id = kInvalidVertex;
  Point3 pos;
  double e_low = 0.0;
  double e_high = 0.0;
  VertexId parent = kInvalidVertex;
  VertexId child1 = kInvalidVertex;
  VertexId child2 = kInvalidVertex;
  VertexId wing1 = kInvalidVertex;
  VertexId wing2 = kInvalidVertex;
  Rect footprint;

  bool is_leaf() const { return child1 == kInvalidVertex; }
  bool AliveAt(double e) const { return e_low <= e && e < e_high; }

  static constexpr uint32_t kEncodedSize = 6 * 8 + 5 * 8 + 4 * 8;
  void EncodeTo(std::vector<uint8_t>* out) const;
  static Result<PmDbNode> Decode(const uint8_t* data, uint32_t size);
};

/// Reopen handles of a built PM baseline database.
struct PmDbMeta {
  PageId heap_first = kInvalidPage;
  PageId quadtree_root = kInvalidPage;
  int64_t quadtree_size = 0;
  PageId btree_root = kInvalidPage;
  int64_t btree_size = 0;
  VertexId pm_root = kInvalidVertex;
  int64_t num_nodes = 0;
  double max_lod = 0.0;
  double mean_lod = 0.0;
  Rect bounds;
};

/// The paper's baseline storage: PM node records in a heap file laid
/// out in the LOD-quadtree's leaf order (LodQuadtree::ClusterOrder), a
/// 3D LOD-quadtree on (x, y, e_low) to find internal nodes, and a B+-tree on node id for the per-node fetches that
/// selective refinement needs when a required record was not covered
/// by the range query (children below the cut, ancestors outside the
/// ROI).
class PmDbStore {
 public:
  static Result<PmDbStore> Build(DbEnv* env, const PmTree& tree);
  static Result<PmDbStore> Open(DbEnv* env, const PmDbMeta& meta);

  const PmDbMeta& meta() const { return meta_; }
  DbEnv* env() const { return env_; }
  const LodQuadtree& quadtree() const { return quadtree_; }
  const BPlusTree& btree() const { return btree_; }
  const HeapFile& heap() const { return heap_; }

  Result<PmDbNode> FetchNode(RecordId rid) const;

  /// Fetches a node by id: one B+-tree descent plus one heap access.
  Result<PmDbNode> FetchNodeById(VertexId id) const;

 private:
  PmDbStore(DbEnv* env, HeapFile heap, LodQuadtree quadtree, BPlusTree btree)
      : env_(env),
        heap_(std::move(heap)),
        quadtree_(std::move(quadtree)),
        btree_(std::move(btree)) {}

  DbEnv* env_;
  HeapFile heap_;
  LodQuadtree quadtree_;
  BPlusTree btree_;
  PmDbMeta meta_;
};

}  // namespace dm

#endif  // DIRECTMESH_BASELINE_PMDB_PMDB_STORE_H_
