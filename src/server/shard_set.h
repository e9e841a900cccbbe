#ifndef DIRECTMESH_SERVER_SHARD_SET_H_
#define DIRECTMESH_SERVER_SHARD_SET_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "dm/dm_store.h"
#include "dm/node_source.h"
#include "storage/db_env.h"

namespace dm {

/// Administrative state of one replica (DESIGN.md §16). Orthogonal to
/// the router's circuit breaker, which tracks *observed* health: kDown
/// models an operator- or chaos-harness-initiated kill, kDraining a
/// graceful restart (no new attempts routed; in-flight ones finish).
enum class ReplicaState : int {
  kUp = 0,
  kDraining = 1,
  kDown = 2,
};

struct ShardSetOptions {
  /// Disjoint spatial regions (grid cells over the terrain bounds).
  int shards = 4;
  /// Replicas per shard: independent DbEnvs over physically separate
  /// copies of the shard's file, each wrapping its own
  /// FaultInjectingDevice so a chaos schedule can corrupt or slow one
  /// replica without touching its siblings.
  int replicas = 2;
  /// Per-replica environment options. `truncate` is managed internally
  /// (on for the build, off for the replica opens).
  DbOptions db;
};

/// K disjoint spatial shards x R replicas, extracted from one built DM
/// store (DESIGN.md §16).
///
/// Extraction partitions the source's records by the grid cell of
/// their (x, y) footprint and writes each region with the store writer
/// (DmStore::Write), in the source's heap order: a heap of the region's
/// records and an R*-tree over their original geometry and vertex ids.
/// A box range query returns a node iff its own (x, y, e) segment
/// intersects the box — independent of which store holds it — so the
/// union of per-shard range queries over the same box is exactly the
/// single-store result, which is what makes the routed clean path
/// byte-identical to a single store (the router never re-runs
/// refinement per shard).
///
/// Each shard store carries `DmMeta::id_space` = the source's
/// num_nodes, putting invariant checks into partial-store mode:
/// parent/child/connection targets cross region boundaries by design.
class ShardSet {
 public:
  /// One replica: its own files (`<path>.db` / `<path>.meta`), its own
  /// DbEnv (and fault device), its own DmStore + source.
  struct Replica {
    std::string path;
    std::unique_ptr<DbEnv> env;
    std::optional<DmStore> store;
    std::optional<DmStoreSource> source;
    std::atomic<int> state{static_cast<int>(ReplicaState::kUp)};

    ReplicaState admin_state() const {
      return static_cast<ReplicaState>(
          state.load(std::memory_order_acquire));
    }
  };

  struct Shard {
    /// Exact MBB of the shard's indexed segments, for fan-out pruning.
    Box mbr;
    /// Per-shard catalog (num_nodes/num_leaves local; id_space global).
    DmMeta meta;
    std::vector<std::unique_ptr<Replica>> replicas;
  };

  /// Extracts `options.shards` regions from `src` under
  /// `base_path`.s<k>.r<j>.{db,meta}, copies each shard file
  /// `options.replicas` times, and opens every replica. Every shard
  /// must end up non-empty (pick fewer shards for tiny datasets).
  static Result<std::unique_ptr<ShardSet>> Build(
      const DmStore& src, const std::string& base_path,
      const ShardSetOptions& options);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int replicas_per_shard() const { return replicas_; }
  Shard& shard(int s) { return *shards_[static_cast<size_t>(s)]; }
  const Shard& shard(int s) const { return *shards_[static_cast<size_t>(s)]; }
  /// The source store's catalog (global bounds, LOD stats, num_nodes).
  const DmMeta& source_meta() const { return source_meta_; }

  ReplicaState replica_state(int s, int r) const {
    return shard(s).replicas[static_cast<size_t>(r)]->admin_state();
  }
  void set_replica_state(int s, int r, ReplicaState st) {
    shard(s).replicas[static_cast<size_t>(r)]->state.store(
        static_cast<int>(st), std::memory_order_release);
  }

  /// Simulated restart of a killed replica: cold cache (FlushAll) and
  /// back to kUp. Requires no in-flight queries on that replica (it
  /// was kDown/kDraining).
  Status RestartReplica(int s, int r);

 private:
  ShardSet() = default;

  std::vector<std::unique_ptr<Shard>> shards_;
  int replicas_ = 0;
  DmMeta source_meta_;
};

}  // namespace dm

#endif  // DIRECTMESH_SERVER_SHARD_SET_H_
