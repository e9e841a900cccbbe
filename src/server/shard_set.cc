#include "server/shard_set.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <utility>

#include "common/check.h"
#include "dm/dm_node.h"
#include "dm/meta_io.h"
#include "index/rtree/rstar_tree.h"
#include "storage/heap_file.h"
#include "storage/page.h"

namespace dm {
namespace {

/// Grid shape for K shards: the most-square gx x gy factorization, so
/// region MBRs stay compact and a typical ROI overlaps few shards.
void GridShape(int shards, int* gx, int* gy) {
  *gx = std::max(1, static_cast<int>(std::sqrt(static_cast<double>(shards))));
  while (shards % *gx != 0) --*gx;
  *gy = shards / *gx;
}

double Normalize01(double v, double lo, double hi) {
  if (!(hi > lo)) return 0.0;
  const double t = (v - lo) / (hi - lo);
  return std::min(std::max(t, 0.0), 1.0 - 1e-12);
}

/// Region of a record: the grid cell of its (x, y) footprint. Any
/// disjoint cover of the footprint works (fetch results depend only on
/// each record's own segment, never on which shard stores it); the
/// grid is just the one with good MBR locality.
int ShardOf(const Point3& pos, const Rect& bounds, int gx, int gy) {
  const int ix = static_cast<int>(Normalize01(pos.x, bounds.lo_x,
                                              bounds.hi_x) * gx);
  const int iy = static_cast<int>(Normalize01(pos.y, bounds.lo_y,
                                              bounds.hi_y) * gy);
  return iy * gx + ix;
}

Status CopyFile(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  if (!in) return Status::IOError("cannot read " + from);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot write " + to);
  out << in.rdbuf();
  if (!out.good()) return Status::IOError("short copy to " + to);
  return Status::OK();
}

std::string ReplicaBase(const std::string& base, int s, int r) {
  return base + ".s" + std::to_string(s) + ".r" + std::to_string(r);
}

}  // namespace

Result<std::unique_ptr<ShardSet>> ShardSet::Build(
    const DmStore& src, const std::string& base_path,
    const ShardSetOptions& options) {
  if (options.shards < 1 || options.replicas < 1) {
    return Status::InvalidArgument("shard set needs >= 1 shard and replica");
  }
  const DmMeta& meta = src.meta();
  if (meta.id_space > 0) {
    return Status::InvalidArgument(
        "shard extraction requires a complete source store");
  }
  int gx = 1;
  int gy = 1;
  GridShape(options.shards, &gx, &gy);

  // 1. Scan the source heap in storage order and assign each record to
  // its region. Flat records carry their raw bytes verbatim (links
  // are VertexIds, placement-independent); group blobs share
  // frame-of-reference bases with page-mates, so carry decoded nodes
  // and re-encode fresh groups per shard.
  const bool group = meta.codec == DmCodec::kGroup;
  struct Extract {
    std::vector<DmNode> nodes;              // group codec
    std::vector<std::vector<uint8_t>> raw;  // flat codec
    std::vector<Point3> pos;
    std::vector<double> e_low;
    std::vector<double> e_high;
    int64_t leaves = 0;
  };
  std::vector<Extract> parts(static_cast<size_t>(options.shards));
  Status decode_status;
  Status scan_status = src.heap().Scan(
      [&](RecordId rid, const uint8_t* data, uint32_t size) {
        auto node_or = DecodeDmRecord(meta.codec, rid.slot, data, size);
        if (!node_or.ok()) {
          decode_status = node_or.status();
          return false;
        }
        const DmNode& n = node_or.value();
        Extract& part = parts[static_cast<size_t>(
            ShardOf(n.pos, meta.bounds, gx, gy))];
        part.pos.push_back(n.pos);
        part.e_low.push_back(n.e_low);
        part.e_high.push_back(n.e_high);
        if (n.is_leaf()) ++part.leaves;
        if (group) {
          part.nodes.push_back(std::move(node_or).value());
        } else {
          part.raw.emplace_back(data, data + size);
        }
        return true;
      });
  DM_RETURN_NOT_OK(scan_status);
  DM_RETURN_NOT_OK(decode_status);

  auto set = std::unique_ptr<ShardSet>(new ShardSet());
  set->replicas_ = options.replicas;
  set->source_meta_ = meta;

  DbOptions build_db = options.db;
  build_db.truncate = true;
  DbOptions open_db = options.db;
  open_db.truncate = false;

  for (int s = 0; s < options.shards; ++s) {
    Extract& part = parts[static_cast<size_t>(s)];
    const size_t n = part.pos.size();
    if (n == 0) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) +
          " is empty; use fewer shards for this dataset");
    }
    // 2. Write replica 0: the shard heap in source storage order (a
    // deterministic subsequence), then its R*-tree over the records'
    // original segments and new RecordIds.
    const std::string r0 = ReplicaBase(base_path, s, 0);
    DmMeta shard_meta = meta;
    Box mbr;
    {
      DM_ASSIGN_OR_RETURN(std::unique_ptr<DbEnv> env,
                          DbEnv::Open(r0 + ".db", build_db));
      DM_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Create(env.get()));
      std::vector<RecordId> rids;
      rids.reserve(n);
      if (group) {
        std::vector<std::vector<uint8_t>> blobs;
        std::vector<uint32_t> blob_counts;
        DM_RETURN_NOT_OK(EncodeNodeGroups(
            [&](size_t i) -> const DmNode& { return part.nodes[i]; }, n,
            env->page_size() - HeapFile::kPageHeaderSize, &blobs,
            &blob_counts));
        for (size_t g = 0; g < blobs.size(); ++g) {
          DM_ASSIGN_OR_RETURN(
              RecordId first,
              heap.AppendBlock(blobs[g].data(),
                               static_cast<uint32_t>(blobs[g].size()),
                               blob_counts[g]));
          for (uint32_t slot = 0; slot < blob_counts[g]; ++slot) {
            rids.push_back(RecordId{first.page, static_cast<uint16_t>(slot)});
          }
        }
      } else {
        DM_RETURN_NOT_OK(heap.AppendMany(part.raw, &rids));
      }
      std::vector<std::pair<Box, uint64_t>> entries(n);
      for (size_t i = 0; i < n; ++i) {
        const double top =
            std::isinf(part.e_high[i]) ? meta.max_lod : part.e_high[i];
        entries[i].first = Box::Of(part.pos[i].x, part.pos[i].y,
                                   part.e_low[i], part.pos[i].x,
                                   part.pos[i].y,
                                   std::max(top, part.e_low[i]));
        entries[i].second = rids[i].Pack();
        mbr.ExpandToInclude(entries[i].first);
      }
      DM_ASSIGN_OR_RETURN(RStarTree rtree,
                          RStarTree::BulkLoad(env.get(), entries));
      shard_meta.heap_first = heap.first_page();
      shard_meta.rtree_root = rtree.root();
      shard_meta.rtree_size = rtree.size();
      shard_meta.num_nodes = static_cast<int64_t>(n);
      shard_meta.num_leaves = part.leaves;
      shard_meta.id_space = meta.num_nodes;  // partial-store marker
      DM_RETURN_NOT_OK(env->FlushAll());
      // env closes here so the file is complete before replication.
    }
    DM_RETURN_NOT_OK(SaveDmMeta(r0 + ".meta", shard_meta));
    // Release the extraction scratch before opening R buffer pools.
    part = Extract{};

    // 3. Physical replica copies: separate files, so a chaos schedule
    // (or a real operator) can corrupt, scrub, or re-copy one replica
    // while its siblings serve.
    auto sh = std::make_unique<Shard>();
    sh->mbr = mbr;
    sh->meta = shard_meta;
    for (int r = 1; r < options.replicas; ++r) {
      const std::string rb = ReplicaBase(base_path, s, r);
      DM_RETURN_NOT_OK(CopyFile(r0 + ".db", rb + ".db"));
      DM_RETURN_NOT_OK(SaveDmMeta(rb + ".meta", shard_meta));
    }
    // 4. Open every replica with its own env + store + source.
    for (int r = 0; r < options.replicas; ++r) {
      auto rep = std::make_unique<Replica>();
      rep->path = ReplicaBase(base_path, s, r);
      DM_ASSIGN_OR_RETURN(rep->env, DbEnv::Open(rep->path + ".db", open_db));
      DM_ASSIGN_OR_RETURN(DmStore store,
                          DmStore::Open(rep->env.get(), shard_meta));
      rep->store.emplace(std::move(store));
      rep->source.emplace(&rep->store.value());
      sh->replicas.push_back(std::move(rep));
    }
    set->shards_.push_back(std::move(sh));
  }
  return set;
}

Status ShardSet::RestartReplica(int s, int r) {
  Replica& rep = *shard(s).replicas[static_cast<size_t>(r)];
  DM_RETURN_NOT_OK(rep.env->FlushAll());
  rep.state.store(static_cast<int>(ReplicaState::kUp),
                  std::memory_order_release);
  return Status::OK();
}

}  // namespace dm
