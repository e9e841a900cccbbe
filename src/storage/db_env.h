#ifndef DIRECTMESH_STORAGE_DB_ENV_H_
#define DIRECTMESH_STORAGE_DB_ENV_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/fault_env.h"

namespace dm {

/// Options for opening a database environment.
struct DbOptions {
  uint32_t page_size = kDefaultPageSize;
  /// Buffer pool capacity in pages. The default (2048 pages = 8 MiB at
  /// 4 KiB pages) is small relative to the datasets, as in the paper's
  /// 512 MB machine vs multi-GB terrain; the buffer ablation sweeps it.
  uint32_t pool_pages = 2048;
  /// Buffer pool shards. Defaults to 1 so the paper benches reproduce
  /// the single-LRU eviction decisions (and disk-access counts) of the
  /// original pool exactly; concurrent servers set
  /// `BufferPool::kDefaultShards` (16) to spread lock contention.
  uint32_t pool_shards = 1;
  /// Decoded-node cache budget in bytes (see dm/node_cache.h). Defaults
  /// to 0 = disabled so the paper benches keep their disk-read counts
  /// bit-identical to an uncached run; servers opt in (e.g. 64 MiB).
  /// Stored here as a plain number — the cache itself lives in the dm
  /// layer (DmStore), which reads this knob at Build/Open.
  size_t node_cache_bytes = 0;
  /// Shards for the decoded-node cache (NodeCache::kDefaultShards).
  uint32_t node_cache_shards = 16;
  bool truncate = true;
  /// Interpose a FaultInjectingDevice between the pool and the disk.
  /// The shim starts with an empty plan (no faults); tests arm it via
  /// `fault_device()->set_plan(...)` after building their store.
  bool enable_fault_injection = false;
  /// Async read backend beneath the buffer pool (DESIGN.md §13):
  ///   ""           — consult the DM_ASYNC_BACKEND environment variable
  ///                  (same values), defaulting to "off" when unset.
  ///   "off"        — synchronous reads only (seed behavior).
  ///   "uring"/"auto" — io_uring when the kernel supports it, silently
  ///                  falling back to the thread pool (runtime probe).
  ///   "threadpool" — portable pread worker pool.
  std::string async_backend = "";  // NOLINT(readability-redundant-string-init)
  /// Cut-aware speculative prefetch depth: how many predicted pages
  /// (sibling R*-tree leaves, adjacent LOD-band heap pages) a query may
  /// stage as low-priority reads. 0 = off (default), so fault-injection
  /// op schedules and paper disk-read counts stay bit-identical.
  uint32_t prefetch_depth = 0;
};

/// One database: a single page file shared by every table and index of
/// a dataset (heap files, B+-trees, R*-trees, quadtrees), fronted by
/// one buffer pool. Disk-access accounting is therefore global across
/// structures, matching how the paper reads Oracle's counters.
///
/// Concurrency: the pool and disk manager are thread-safe; the
/// structures above them are immutable after build/open, so their
/// const read paths may run from many threads at once (DESIGN.md §8).
class DbEnv {
 public:
  static Result<std::unique_ptr<DbEnv>> Open(const std::string& path,
                                             const DbOptions& options = {});

  BufferPool& pool() { return *pool_; }
  DiskManager& disk() { return *disk_; }
  /// The fault shim, or nullptr when `enable_fault_injection` is off.
  FaultInjectingDevice* fault_device() { return fault_.get(); }
  /// Logical page size: what every structure above the buffer pool
  /// sizes its layout from. Physical minus the integrity trailer.
  uint32_t page_size() const { return pool_->logical_page_size(); }
  /// The options this environment was opened with (layers above storage
  /// read their knobs — e.g. node_cache_bytes — from here).
  const DbOptions& options() const { return options_; }

  /// Runtime override of DbOptions::prefetch_depth (query layers read
  /// the knob per query, so benches flip it between A/B phases).
  void set_prefetch_depth(uint32_t depth) { options_.prefetch_depth = depth; }

  /// The async device the pool reads through, or nullptr when async
  /// I/O is off.
  AsyncPageDevice* async_device() { return async_.get(); }

  /// (Re)binds an async read device to the pool. `backend` as in
  /// DbOptions::async_backend minus "": "off" tears async down,
  /// anything else builds that backend over the same device chain the
  /// pool reads synchronously (fault shim included, so injected faults
  /// and simulated latency apply per completion). Requires quiescence,
  /// like FlushAll — benches call it between A/B phases. Returns the
  /// backend actually running ("off", "uring", or "threadpool" — e.g.
  /// "uring" falls back to "threadpool" on kernels without io_uring).
  const char* EnableAsync(const std::string& backend);
  void DisableAsync() { (void)EnableAsync("off"); }

  IoStats stats() const { return pool_->stats(); }
  void ResetStats() { pool_->ResetStats(); }

  /// Cold-cache reset: write back dirty pages and empty the pool.
  /// Requires quiescence (see BufferPool::FlushAll).
  Status FlushAll() { return pool_->FlushAll(); }

  /// Write-back without eviction (warm-cache steady state); safe to
  /// call while readers are active.
  Status FlushDirty() { return pool_->FlushDirty(); }

 private:
  DbEnv(std::unique_ptr<DiskManager> disk,
        std::unique_ptr<FaultInjectingDevice> fault,
        std::unique_ptr<BufferPool> pool, const DbOptions& options)
      : disk_(std::move(disk)),
        fault_(std::move(fault)),
        pool_(std::move(pool)),
        options_(options) {}

  /// The device the pool reads through: the fault shim when armed,
  /// the raw disk otherwise. Async backends wrap the same chain.
  PageDevice* read_chain() {
    return fault_ != nullptr ? static_cast<PageDevice*>(fault_.get())
                             : static_cast<PageDevice*>(disk_.get());
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<FaultInjectingDevice> fault_;  // may be null
  // Declared before pool_ so the pool is destroyed first: its
  // destructor drains outstanding prefetch reads through this device
  // and unbinds before the device itself dies.
  std::unique_ptr<AsyncPageDevice> async_;  // may be null
  std::unique_ptr<BufferPool> pool_;
  DbOptions options_;
};

}  // namespace dm

#endif  // DIRECTMESH_STORAGE_DB_ENV_H_
