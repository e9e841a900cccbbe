#include "server/shard_set.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "dm/dm_node.h"
#include "dm/meta_io.h"

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

  // 1. Every record's parent reach, from its source leaf entry: a
  // shard may not hold the parent, and the copied value lets it prune
  // as tightly as the source.
  std::unordered_map<uint64_t, float> reach_of;
  reach_of.reserve(static_cast<size_t>(meta.num_nodes));
  DM_RETURN_NOT_OK(src.rtree().VisitNodes(
      [&](PageId, uint16_t level, const std::vector<RTreeEntry>& entries) {
        if (level == 0) {
          for (const RTreeEntry& e : entries) reach_of[e.payload] = e.reach;
        }
        return true;
      }));

  // 2. Scan the source heap in storage order and assign each decoded
  // record to its region. Links are VertexIds, so a record means the
  // same in any store; DmStore::Write re-encodes each region (exactly,
  // for flat records, whose encoding of a decoded record is the
  // original bytes; in fresh groups for the group codec, whose bases
  // are shared with page-mates).
  std::vector<std::vector<DmNode>> parts(static_cast<size_t>(options.shards));
  std::vector<std::vector<float>> part_reach(parts.size());
  Status decode_status;
  Status scan_status = src.heap().Scan(
      [&](RecordId rid, const uint8_t* data, uint32_t size) {
        auto node_or = DecodeDmRecord(meta.codec, rid.slot, data, size);
        if (!node_or.ok()) {
          decode_status = node_or.status();
          return false;
        }
        const auto reach = reach_of.find(rid.Pack());
        if (reach == reach_of.end()) {
          decode_status = Status::Corruption(
              "heap record " + std::to_string(rid.Pack()) +
              " has no R*-tree leaf entry");
          return false;
        }
        const auto s = static_cast<size_t>(
            ShardOf(node_or.value().pos, meta.bounds, gx, gy));
        parts[s].push_back(std::move(node_or).value());
        part_reach[s].push_back(reach->second);
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
  DmMeta dataset = meta;
  dataset.id_space = meta.num_nodes;  // partial-store marker
  DmStoreOptions write_options;
  write_options.codec = meta.codec;

  for (int s = 0; s < options.shards; ++s) {
    std::vector<DmNode>& part = parts[static_cast<size_t>(s)];
    if (part.empty()) {
      return Status::InvalidArgument(
          "shard " + std::to_string(s) +
          " is empty; use fewer shards for this dataset");
    }
    // 3. Write replica 0: the region's records in source storage order
    // (a deterministic subsequence), indexed in the same order.
    const std::string r0 = ReplicaBase(base_path, s, 0);
    DmMeta shard_meta;
    Box mbr;
    {
      DM_ASSIGN_OR_RETURN(std::unique_ptr<DbEnv> env,
                          DbEnv::Open(r0 + ".db", build_db));
      DM_ASSIGN_OR_RETURN(const DmStore store,
                          DmStore::Write(env.get(), part,
                                         part_reach[static_cast<size_t>(s)],
                                         dataset, write_options));
      shard_meta = store.meta();
      // The catalog lists the root first; its extent is the exact MBB
      // of the shard's segments.
      mbr = store.cost_catalog().stats().nodes.front().box;
      DM_RETURN_NOT_OK(env->FlushAll());
      // env closes here so the file is complete before replication.
    }
    DM_RETURN_NOT_OK(SaveDmMeta(r0 + ".meta", shard_meta));
    // Release the extraction scratch before opening R buffer pools.
    std::vector<DmNode>().swap(part);
    std::vector<float>().swap(part_reach[static_cast<size_t>(s)]);

    // 4. Physical replica copies: separate files, so a chaos schedule
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
    // 5. Open every replica with its own env + store + source.
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
