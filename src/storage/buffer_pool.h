#ifndef DIRECTMESH_STORAGE_BUFFER_POOL_H_
#define DIRECTMESH_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace dm {

/// I/O counters. `disk_reads` is the paper's metric: the number of
/// pages fetched from disk ("number of disk accesses obtained from
/// Oracle's performance statistics report"). Benches flush the pool
/// and reset these before each query, mirroring the paper's
/// "database and system buffer is flushed before each test".
struct IoStats {
  int64_t logical_fetches = 0;
  int64_t disk_reads = 0;
  int64_t disk_writes = 0;
  /// LRU victims reclaimed under capacity pressure (a frame taken from
  /// the free list is not an eviction). Diagnoses pool thrash next to
  /// the node-cache counters in `dmctl cache-stats`.
  int64_t evictions = 0;
  /// Transient-class I/O failures (kUnavailable: EINTR storms, EAGAIN)
  /// absorbed by the bounded-backoff retry loop. A retried op that
  /// eventually succeeds is invisible to callers except here.
  int64_t io_retries = 0;
  /// Pages whose trailer failed checksum verification on fetch. Each
  /// one surfaced as Status::Corruption naming the page.
  int64_t corrupt_pages = 0;
  /// Page runs fetched by FetchRuns (heap runs and R*-tree node runs
  /// alike), and the pages they covered. Mean pages-per-run
  /// (fetch_run_pages / fetch_runs) measures on-disk layout locality
  /// directly.
  int64_t fetch_runs = 0;
  int64_t fetch_run_pages = 0;
  /// Histogram of run lengths; bucket upper bounds are 1, 2, 4, 8, 16,
  /// +inf (i.e. 1, 2, 3-4, 5-8, 9-16, 17+ pages).
  static constexpr int kRunBuckets = 6;
  int64_t run_length_hist[kRunBuckets] = {0, 0, 0, 0, 0, 0};

  /// Histogram bucket of a run of `n` pages.
  static int RunBucket(uint32_t n) {
    if (n <= 1) return 0;
    if (n <= 2) return 1;
    if (n <= 4) return 2;
    if (n <= 8) return 3;
    if (n <= 16) return 4;
    return 5;
  }

  void Reset() { *this = IoStats{}; }
};

class BufferPool;

/// RAII pin on a buffer frame. The page stays in memory while any
/// guard on it is alive. Move-only.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, PageId id, uint8_t* data);
  PageGuard(PageGuard&& o) noexcept;
  PageGuard& operator=(PageGuard&& o) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard();

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }
  const uint8_t* data() const { return data_; }
  uint8_t* data() { return data_; }

  /// Marks the frame dirty so eviction/flush writes it back.
  void MarkDirty();

  /// Releases the pin early.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPage;
  uint8_t* data_ = nullptr;
};

/// Sharded, thread-safe LRU buffer pool over a PageDevice. Pages hash
/// to one of `num_shards` independent sub-pools, each with its own
/// mutex, page table, LRU list, and free list, so concurrent query
/// workers only contend when they touch the same shard. Per-shard I/O
/// counters use relaxed atomics and are summed on read.
///
/// Paper-exact accounting: with `num_shards == 1` (the constructor
/// default, used by every paper bench and by `DbOptions`) a single
/// query stream sees exactly the eviction decisions — and therefore
/// exactly the `disk_reads` counts — of the original single-threaded
/// pool. Concurrent servers (perfbench `serve_warm`, the fault and
/// chaos benches) pass `kDefaultShards`.
class BufferPool {
 public:
  /// Shard count used by the concurrent serving paths.
  static constexpr uint32_t kDefaultShards = 16;

  /// `num_shards` is clamped to [1, capacity_pages]; frames are split
  /// evenly across shards (earlier shards take the remainder).
  BufferPool(PageDevice* disk, uint32_t capacity_pages,
             uint32_t num_shards = 1);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  uint32_t capacity() const { return capacity_; }
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// Page bytes usable by structures above the pool: the physical page
  /// minus the integrity trailer the pool owns. All layouts (heap
  /// slots, index fan-out) are computed from this.
  uint32_t logical_page_size() const {
    return disk_->page_size() - kPageTrailerSize;
  }

  /// Aggregated counters (sum over shards).
  IoStats stats() const;
  void ResetStats();

  /// Number of frames currently holding at least one pin. A quiescent
  /// pool (no live PageGuard) must report 0; the invariant checker
  /// audits this after every traversal.
  int64_t pinned_frames() const;
  /// Sum of pin counts across all frames.
  int64_t total_pins() const;

  /// Fetches a page, reading from disk on miss.
  Result<PageGuard> Fetch(PageId id);

  /// Largest run FetchRuns accepts without risking frame exhaustion.
  uint32_t MaxRunPages() const;

  /// One page run for FetchRuns: pages [first, first + n),
  /// n in [1, MaxRunPages()].
  struct RunRequest {
    PageId first = 0;
    uint32_t n = 0;
  };

  /// The batched read engine every multi-page read goes through. Runs
  /// are handled one at a time, in index order: the resident pages of
  /// the run are pinned first, then each maximal sub-run of missing
  /// pages is read with one scatter-gather request (ReadWithRetry),
  /// and `on_run(run_index, status, guards)` fires once for the run.
  /// Guards arrive in ascending page order within the run; on failure
  /// the run's status is the first error and `guards` is empty. After
  /// the callback the pool releases any guards left in ascending page
  /// order, so at most one run is pinned at a time. Accounting: one
  /// logical fetch per page, one disk read per miss, transient
  /// failures retried with a bounded backoff, every page trailer
  /// verified, and the I/O deadline (io_deadline.h) checked before
  /// every read and retry; past it, a run with a missing page fails
  /// with kDeadlineExceeded. The callback may take ownership of the
  /// guards but must release them promptly, and must not call back
  /// into the pool.
  Status FetchRuns(
      const RunRequest* runs, size_t run_count,
      const std::function<void(size_t, Status, std::vector<PageGuard>*)>&
          on_run);

  /// Allocates a fresh zeroed page and returns it pinned and dirty.
  Result<PageGuard> NewPage();

  /// Writes back all dirty frames and drops every unpinned frame
  /// (cold-cache state for the next query). Requires quiescence: no
  /// other thread may hold guards or fetch concurrently, because
  /// pinned dirty frames are written back while their owner could
  /// still be mutating them.
  Status FlushAll();

  /// Writes back dirty *unpinned* frames without evicting anything —
  /// warm-cache steady state for throughput benches. Safe to call
  /// concurrently with readers: pinned frames (possibly mid-mutation)
  /// are skipped and stay dirty.
  Status FlushDirty();

 private:
  friend class PageGuard;

  /// Sentinel frame index for the intrusive LRU links.
  static constexpr uint32_t kNoFrame = UINT32_MAX;

  struct Frame {
    PageId id = kInvalidPage;
    std::vector<uint8_t> data;
    int32_t pins = 0;
    bool dirty = false;
    // Intrusive LRU links (frame indices) when unpinned. Linking a
    // frame in or out of the list never touches the heap, which keeps
    // Unpin allocation-free on the query hot path.
    uint32_t lru_prev = kNoFrame;
    uint32_t lru_next = kNoFrame;
    bool in_lru = false;
    // Next frame in the same page-table bucket chain.
    uint32_t hash_next = kNoFrame;
    // True while the frame is installed in the page table under `id`.
    bool mapped = false;
  };

  /// One independent sub-pool. All mutable state is guarded by `mu`
  /// (machine-checked: every member below is DM_GUARDED_BY it); the
  /// stats counters are relaxed atomics so aggregation never blocks a
  /// fetch.
  ///
  /// The page table is an intrusive chained hash over the frames
  /// themselves (`buckets` holds chain heads, `Frame::hash_next` the
  /// links): lookup, install, and eviction never allocate, unlike a
  /// node-based std::unordered_map which would heap-allocate on every
  /// page install — one allocation per disk read on the query path.
  struct Shard {
    mutable Mutex mu;
    /// Frame count, fixed at construction; duplicated outside the
    /// guarded state so MaxRunPages can size runs without taking every
    /// shard lock on each FetchRuns.
    uint32_t frame_count = 0;
    std::vector<Frame> frames DM_GUARDED_BY(mu);
    // Power-of-two chain heads of the intrusive page table.
    std::vector<uint32_t> buckets DM_GUARDED_BY(mu);
    uint32_t lru_head DM_GUARDED_BY(mu) = kNoFrame;  // least recently used
    uint32_t lru_tail DM_GUARDED_BY(mu) = kNoFrame;  // most recently used
    // Frames never used / dropped.
    std::vector<uint32_t> free_list DM_GUARDED_BY(mu);
    std::atomic<int64_t> logical_fetches{0};
    std::atomic<int64_t> disk_reads{0};
    std::atomic<int64_t> disk_writes{0};
    std::atomic<int64_t> evictions{0};
  };

  Shard& ShardFor(PageId id) {
    if (shards_.size() == 1) return *shards_[0];
    // Fibonacci hash spreads sequential page ids across shards.
    const uint32_t h =
        static_cast<uint32_t>(static_cast<uint64_t>(id) * 2654435769u);
    return *shards_[(h >> 16) % shards_.size()];
  }
  const Shard& ShardFor(PageId id) const {
    return const_cast<BufferPool*>(this)->ShardFor(id);
  }

  void Unpin(PageId id);
  void MarkDirty(PageId id);
  /// Intrusive-LRU helpers; f.in_lru must be consistent.
  static void LruPushBack(Shard& s, uint32_t idx) DM_REQUIRES(s.mu);
  static void LruErase(Shard& s, uint32_t idx) DM_REQUIRES(s.mu);
  /// Intrusive page-table helpers.
  static uint32_t BucketFor(const Shard& s, PageId id) DM_REQUIRES(s.mu) {
    // Fibonacci hash; buckets.size() is a power of two.
    const uint32_t h =
        static_cast<uint32_t>(static_cast<uint64_t>(id) * 2654435769u);
    return (h >> 16) & (static_cast<uint32_t>(s.buckets.size()) - 1);
  }
  /// Frame index of `id`, or kNoFrame.
  static uint32_t TableFind(const Shard& s, PageId id) DM_REQUIRES(s.mu);
  /// Installs frame `idx` (whose Frame::id is already set) in the table.
  static void TableInsert(Shard& s, uint32_t idx) DM_REQUIRES(s.mu);
  /// Unlinks frame `idx` from the table.
  static void TableErase(Shard& s, uint32_t idx) DM_REQUIRES(s.mu);
  /// Reads `n` pages at `first` for Fetch and FetchRuns, retrying
  /// transient (kUnavailable) failures with exponential backoff up to
  /// kMaxIoAttempts, then verifies every page's trailer. Corruption is
  /// not retried: the bytes are wrong, not late. The I/O deadline is
  /// checked before every attempt; once it has expired a transient
  /// failure skips the backoff sleep and is not counted as a retry.
  Status ReadWithRetry(PageId first, uint32_t n, uint8_t* out);
  /// Checks the trailers of `n` pages read into `buf` (when
  /// verification is on), counting and returning the first corruption.
  Status VerifyPages(PageId first, uint32_t n, const uint8_t* buf);
  /// Writes back frame `f` of shard `s` (stamping its trailer first)
  /// with the same transient-retry policy. The frame's bytes are
  /// guarded by s.mu, hence the capability requirement.
  Status WriteWithStamp(Shard& s, Frame& f) DM_REQUIRES(s.mu);

  /// May evict (writing back a dirty victim).
  Result<uint32_t> GetFreeFrameLocked(Shard& s) DM_REQUIRES(s.mu);
  /// Pins the frame of `id` if resident.
  uint8_t* PinIfPresentLocked(Shard& s, PageId id) DM_REQUIRES(s.mu);
  /// Claims a frame, installs `data` (page bytes) under `id`, and pins
  /// it.
  Result<uint8_t*> InstallLocked(Shard& s, PageId id, const uint8_t* data)
      DM_REQUIRES(s.mu);

  PageDevice* disk_;
  uint32_t capacity_;
  std::atomic<int64_t> io_retries_{0};
  std::atomic<int64_t> corrupt_pages_{0};
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Run-length accounting (IoStats::fetch_runs / fetch_run_pages /
  /// run_length_hist), counted once per RunRequest FetchRuns serves.
  void CountRun(uint32_t n) {
    fetch_runs_.fetch_add(1, std::memory_order_relaxed);
    fetch_run_pages_.fetch_add(n, std::memory_order_relaxed);
    run_hist_[IoStats::RunBucket(n)].fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<int64_t> fetch_runs_{0};
  std::atomic<int64_t> fetch_run_pages_{0};
  std::atomic<int64_t> run_hist_[IoStats::kRunBuckets] = {};
};

}  // namespace dm

#endif  // DIRECTMESH_STORAGE_BUFFER_POOL_H_
