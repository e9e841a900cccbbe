#include "baseline/pmdb/pmdb_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>


namespace dm {

namespace {
constexpr double kInfSentinel = std::numeric_limits<double>::max();

template <typename T>
void Append(std::vector<uint8_t>* out, T v) {
  const size_t n = out->size();
  out->resize(n + sizeof(T));
  std::memcpy(out->data() + n, &v, sizeof(T));
}
template <typename T>
T Read(const uint8_t*& p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  p += sizeof(T);
  return v;
}
}  // namespace

void PmDbNode::EncodeTo(std::vector<uint8_t>* out) const {
  out->reserve(out->size() + kEncodedSize);
  Append<int64_t>(out, id);
  Append<int64_t>(out, parent);
  Append<int64_t>(out, child1);
  Append<int64_t>(out, child2);
  Append<int64_t>(out, wing1);
  Append<int64_t>(out, wing2);
  Append<double>(out, pos.x);
  Append<double>(out, pos.y);
  Append<double>(out, pos.z);
  Append<double>(out, e_low);
  Append<double>(out, std::isinf(e_high) ? kInfSentinel : e_high);
  Append<double>(out, footprint.lo_x);
  Append<double>(out, footprint.lo_y);
  Append<double>(out, footprint.hi_x);
  Append<double>(out, footprint.hi_y);
}

Result<PmDbNode> PmDbNode::Decode(const uint8_t* data, uint32_t size) {
  if (size != kEncodedSize) {
    return Status::Corruption("PM node record size mismatch");
  }
  const uint8_t* p = data;
  PmDbNode n;
  n.id = Read<int64_t>(p);
  n.parent = Read<int64_t>(p);
  n.child1 = Read<int64_t>(p);
  n.child2 = Read<int64_t>(p);
  n.wing1 = Read<int64_t>(p);
  n.wing2 = Read<int64_t>(p);
  n.pos.x = Read<double>(p);
  n.pos.y = Read<double>(p);
  n.pos.z = Read<double>(p);
  n.e_low = Read<double>(p);
  n.e_high = Read<double>(p);
  if (n.e_high == kInfSentinel) {
    n.e_high = std::numeric_limits<double>::infinity();
  }
  n.footprint.lo_x = Read<double>(p);
  n.footprint.lo_y = Read<double>(p);
  n.footprint.hi_x = Read<double>(p);
  n.footprint.hi_y = Read<double>(p);
  return n;
}

Result<PmDbStore> PmDbStore::Build(DbEnv* env, const PmTree& tree) {
  const int64_t total = tree.num_nodes();
  const Rect bounds = tree.bounds();

  // Records are clustered in the LOD-quadtree's leaf order — the same
  // clustered-storage treatment the DM store gets from its R*-tree, so
  // the two methods differ only in what the paper says they differ in.
  std::vector<LodQuadtree::Point> qpoints(static_cast<size_t>(total));
  for (VertexId i = 0; i < total; ++i) {
    const PmNode& n = tree.node(i);
    qpoints[static_cast<size_t>(i)] =
        LodQuadtree::Point{n.pos.x, n.pos.y, n.e_low};
  }
  const uint32_t leaf_cap = (env->page_size() - 64) / 32;
  const std::vector<size_t> order = LodQuadtree::ClusterOrder(
      qpoints, bounds, std::max(tree.max_lod(), 1e-12), leaf_cap);

  DM_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Create(env));
  DM_ASSIGN_OR_RETURN(
      LodQuadtree quadtree,
      LodQuadtree::Create(env, bounds, std::max(tree.max_lod(), 1e-12)));
  DM_ASSIGN_OR_RETURN(BPlusTree btree, BPlusTree::Create(env));
  PmDbStore store(env, std::move(heap), std::move(quadtree),
                  std::move(btree));

  std::vector<uint8_t> buf;
  for (size_t idx : order) {
    const PmNode& n = tree.node(static_cast<VertexId>(idx));
    PmDbNode rec;
    rec.id = n.id;
    rec.pos = n.pos;
    rec.e_low = n.e_low;
    rec.e_high = n.e_high;
    rec.parent = n.parent;
    rec.child1 = n.child1;
    rec.child2 = n.child2;
    rec.wing1 = n.wing1;
    rec.wing2 = n.wing2;
    rec.footprint = n.footprint;
    buf.clear();
    rec.EncodeTo(&buf);
    DM_ASSIGN_OR_RETURN(
        const RecordId rid,
        store.heap_.Append(buf.data(), static_cast<uint32_t>(buf.size())));
    // The LOD-quadtree treats every node — internal ones included — as
    // the point (x, y, e_low); the paper notes this is exactly what
    // degrades it versus an MBR-per-subtree index.
    DM_RETURN_NOT_OK(
        store.quadtree_.Insert(n.pos.x, n.pos.y, n.e_low, rid.Pack()));
    DM_RETURN_NOT_OK(store.btree_.Insert(n.id, rid.Pack()));
  }

  store.meta_.heap_first = store.heap_.first_page();
  store.meta_.quadtree_root = store.quadtree_.root();
  store.meta_.quadtree_size = store.quadtree_.size();
  store.meta_.btree_root = store.btree_.root();
  store.meta_.btree_size = store.btree_.size();
  store.meta_.pm_root = tree.root();
  store.meta_.num_nodes = total;
  store.meta_.max_lod = tree.max_lod();
  store.meta_.mean_lod = tree.mean_lod();
  store.meta_.bounds = bounds;
  return store;
}

Result<PmDbStore> PmDbStore::Open(DbEnv* env, const PmDbMeta& meta) {
  DM_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Open(env, meta.heap_first));
  LodQuadtree quadtree =
      LodQuadtree::Open(env, meta.quadtree_root, meta.quadtree_size);
  BPlusTree btree = BPlusTree::Open(env, meta.btree_root, meta.btree_size);
  PmDbStore store(env, std::move(heap), std::move(quadtree),
                  std::move(btree));
  store.meta_ = meta;
  return store;
}

Result<PmDbNode> PmDbStore::FetchNode(RecordId rid) const {
  std::vector<uint8_t> buf;
  DM_RETURN_NOT_OK(heap_.Get(rid, &buf));
  return PmDbNode::Decode(buf.data(), static_cast<uint32_t>(buf.size()));
}

Result<PmDbNode> PmDbStore::FetchNodeById(VertexId id) const {
  DM_ASSIGN_OR_RETURN(const std::optional<uint64_t> packed, btree_.Get(id));
  if (!packed.has_value()) {
    return Status::NotFound("node id " + std::to_string(id));
  }
  return FetchNode(RecordId::Unpack(*packed));
}

}  // namespace dm
