#include "storage/buffer_pool.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/check.h"
#include "storage/async_io.h"
#include "storage/io_deadline.h"
#include "storage/page_crc.h"

namespace dm {

namespace {
/// Bounded retry policy for transient-class (kUnavailable) I/O
/// failures: 4 attempts total with 100/200/400 us backoff. Sized so an
/// EINTR storm costs under a millisecond but a persistent fault still
/// fails fast enough for the query deadline to degrade gracefully.
constexpr int kMaxIoAttempts = 4;
constexpr int64_t kIoBackoffBaseMicros = 100;
/// Concurrent speculative reads the prefetcher keeps in flight; a
/// prefetch finding every slot busy is dropped (speculation is
/// advisory, never worth queueing for).
constexpr size_t kPrefetchSlots = 8;
}  // namespace

PageGuard::PageGuard(BufferPool* pool, PageId id, uint8_t* data)
    : pool_(pool), id_(id), data_(data) {}

PageGuard::PageGuard(PageGuard&& o) noexcept
    : pool_(o.pool_), id_(o.id_), data_(o.data_) {
  o.pool_ = nullptr;
  o.data_ = nullptr;
  o.id_ = kInvalidPage;
}

PageGuard& PageGuard::operator=(PageGuard&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    id_ = o.id_;
    data_ = o.data_;
    o.pool_ = nullptr;
    o.data_ = nullptr;
    o.id_ = kInvalidPage;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

void PageGuard::MarkDirty() {
  DM_CHECK(valid()) << "MarkDirty on an empty PageGuard";
  pool_->MarkDirty(id_);
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(id_);
    pool_ = nullptr;
    data_ = nullptr;
    id_ = kInvalidPage;
  }
}

BufferPool::BufferPool(PageDevice* disk, uint32_t capacity_pages,
                       uint32_t num_shards)
    : disk_(disk), capacity_(capacity_pages) {
  DM_CHECK(capacity_ > 0) << "buffer pool needs at least one frame";
  num_shards = std::clamp<uint32_t>(num_shards, 1, capacity_);
  shards_.reserve(num_shards);
  const uint32_t base = capacity_ / num_shards;
  const uint32_t extra = capacity_ % num_shards;
  for (uint32_t s = 0; s < num_shards; ++s) {
    // dm-lint: allow(hot-path-alloc) construction time, once per pool
    auto shard = std::make_unique<Shard>();
    const uint32_t frames = base + (s < extra ? 1 : 0);
    shard->frame_count = frames;
    // The shard is not yet published, but its members are guarded and
    // the lock is uncontended — taking it keeps the annotations
    // provable without an analysis escape hatch.
    MutexLock lock(shard->mu);
    shard->frames.resize(frames);
    for (auto& f : shard->frames) f.data.resize(disk_->page_size());
    // ~2x frames of power-of-two buckets keeps chains short.
    uint32_t buckets = 4;
    while (buckets < 2 * frames) buckets *= 2;
    shard->buckets.assign(buckets, kNoFrame);
    shard->free_list.reserve(frames);
    for (uint32_t i = 0; i < frames; ++i) {
      shard->free_list.push_back(frames - 1 - i);
    }
    shards_.push_back(std::move(shard));
  }
}

BufferPool::~BufferPool() {
  // Unbind the async device first: drains in-flight prefetch reads so
  // no completion lands in a dying slot buffer.
  set_async_device(nullptr);
  // Best-effort write-back; errors at teardown are not recoverable.
  (void)FlushAll();
}

IoStats BufferPool::stats() const {
  IoStats total;
  for (const auto& s : shards_) {
    total.logical_fetches += s->logical_fetches.load(std::memory_order_relaxed);
    total.disk_reads += s->disk_reads.load(std::memory_order_relaxed);
    total.disk_writes += s->disk_writes.load(std::memory_order_relaxed);
    total.evictions += s->evictions.load(std::memory_order_relaxed);
  }
  total.io_retries = io_retries_.load(std::memory_order_relaxed);
  total.corrupt_pages = corrupt_pages_.load(std::memory_order_relaxed);
  total.fetch_runs = fetch_runs_.load(std::memory_order_relaxed);
  total.fetch_run_pages = fetch_run_pages_.load(std::memory_order_relaxed);
  for (int i = 0; i < IoStats::kRunBuckets; ++i) {
    total.run_length_hist[i] = run_hist_[i].load(std::memory_order_relaxed);
  }
  total.prefetch_reads = prefetch_reads_.load(std::memory_order_relaxed);
  total.prefetch_hits = prefetch_hits_.load(std::memory_order_relaxed);
  total.prefetch_waste = prefetch_waste_.load(std::memory_order_relaxed);
  return total;
}

void BufferPool::ResetStats() {
  for (const auto& s : shards_) {
    s->logical_fetches.store(0, std::memory_order_relaxed);
    s->disk_reads.store(0, std::memory_order_relaxed);
    s->disk_writes.store(0, std::memory_order_relaxed);
    s->evictions.store(0, std::memory_order_relaxed);
  }
  io_retries_.store(0, std::memory_order_relaxed);
  corrupt_pages_.store(0, std::memory_order_relaxed);
  fetch_runs_.store(0, std::memory_order_relaxed);
  fetch_run_pages_.store(0, std::memory_order_relaxed);
  for (auto& b : run_hist_) b.store(0, std::memory_order_relaxed);
  prefetch_reads_.store(0, std::memory_order_relaxed);
  prefetch_hits_.store(0, std::memory_order_relaxed);
  prefetch_waste_.store(0, std::memory_order_relaxed);
}

Status BufferPool::ReadWithRetry(PageId first, uint32_t n, uint8_t* out) {
  Status st;
  for (int attempt = 0;; ++attempt) {
    // Deadline-aware wait (DESIGN.md §16): an expired per-query budget
    // fails the read before touching the device, so a slow or
    // retry-storming replica cannot hold a worker past its deadline.
    if (IoDeadline::Expired()) {
      return Status::DeadlineExceeded("read deadline expired before page " +
                                      std::to_string(first));
    }
    st = disk_->ReadPages(first, n, out);
    if (st.code() != StatusCode::kUnavailable) break;
    if (attempt + 1 >= kMaxIoAttempts) break;
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::microseconds(kIoBackoffBaseMicros << attempt));
  }
  DM_RETURN_NOT_OK(st);
  return VerifyPages(first, n, out);
}

Status BufferPool::VerifyPages(PageId first, uint32_t n, const uint8_t* buf) {
  if (!verify_checksums_) return Status::OK();
  const uint32_t page_size = disk_->page_size();
  for (uint32_t i = 0; i < n; ++i) {
    const Status v = VerifyPageTrailer(
        buf + static_cast<size_t>(i) * page_size, page_size, first + i);
    if (!v.ok()) {
      corrupt_pages_.fetch_add(1, std::memory_order_relaxed);
      return v;
    }
  }
  return Status::OK();
}

Status BufferPool::WriteWithStamp(Shard& s, Frame& f) {
  StampPageTrailer(f.data.data(), disk_->page_size());
  Status st;
  for (int attempt = 0;; ++attempt) {
    st = disk_->WritePage(f.id, f.data.data());
    if (st.code() != StatusCode::kUnavailable) break;
    if (attempt + 1 >= kMaxIoAttempts) break;
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::microseconds(kIoBackoffBaseMicros << attempt));
  }
  if (st.ok()) s.disk_writes.fetch_add(1, std::memory_order_relaxed);
  return st;
}

int64_t BufferPool::pinned_frames() const {
  int64_t n = 0;
  for (const auto& s : shards_) {
    MutexLock lock(s->mu);
    for (const Frame& f : s->frames) {
      if (f.mapped && f.pins > 0) ++n;
    }
  }
  return n;
}

int64_t BufferPool::total_pins() const {
  int64_t n = 0;
  for (const auto& s : shards_) {
    MutexLock lock(s->mu);
    for (const Frame& f : s->frames) {
      if (f.mapped) n += f.pins;
    }
  }
  return n;
}

uint32_t BufferPool::TableFind(const Shard& s, PageId id) {
  for (uint32_t idx = s.buckets[BucketFor(s, id)]; idx != kNoFrame;
       idx = s.frames[idx].hash_next) {
    if (s.frames[idx].id == id) return idx;
  }
  return kNoFrame;
}

void BufferPool::TableInsert(Shard& s, uint32_t idx) {
  uint32_t& head = s.buckets[BucketFor(s, s.frames[idx].id)];
  s.frames[idx].hash_next = head;
  head = idx;
  s.frames[idx].mapped = true;
}

void BufferPool::TableErase(Shard& s, uint32_t idx) {
  uint32_t* link = &s.buckets[BucketFor(s, s.frames[idx].id)];
  while (*link != idx) {
    DM_DCHECK(*link != kNoFrame)
        << "frame " << idx << " missing from its bucket chain";
    link = &s.frames[*link].hash_next;
  }
  *link = s.frames[idx].hash_next;
  s.frames[idx].hash_next = kNoFrame;
  s.frames[idx].mapped = false;
}

void BufferPool::LruPushBack(Shard& s, uint32_t idx) {
  Frame& f = s.frames[idx];
  f.lru_prev = s.lru_tail;
  f.lru_next = kNoFrame;
  if (s.lru_tail != kNoFrame) {
    s.frames[s.lru_tail].lru_next = idx;
  } else {
    s.lru_head = idx;
  }
  s.lru_tail = idx;
  f.in_lru = true;
}

void BufferPool::LruPushFront(Shard& s, uint32_t idx) {
  Frame& f = s.frames[idx];
  f.lru_prev = kNoFrame;
  f.lru_next = s.lru_head;
  if (s.lru_head != kNoFrame) {
    s.frames[s.lru_head].lru_prev = idx;
  } else {
    s.lru_tail = idx;
  }
  s.lru_head = idx;
  f.in_lru = true;
}

void BufferPool::LruErase(Shard& s, uint32_t idx) {
  Frame& f = s.frames[idx];
  if (f.lru_prev != kNoFrame) {
    s.frames[f.lru_prev].lru_next = f.lru_next;
  } else {
    s.lru_head = f.lru_next;
  }
  if (f.lru_next != kNoFrame) {
    s.frames[f.lru_next].lru_prev = f.lru_prev;
  } else {
    s.lru_tail = f.lru_prev;
  }
  f.lru_prev = kNoFrame;
  f.lru_next = kNoFrame;
  f.in_lru = false;
}

Result<uint32_t> BufferPool::GetFreeFrameLocked(Shard& s) {
  if (!s.free_list.empty()) {
    const uint32_t idx = s.free_list.back();
    s.free_list.pop_back();
    return idx;
  }
  if (s.lru_head == kNoFrame) {
    return Status::ResourceExhausted(
        "buffer pool exhausted: all frames pinned");
  }
  const uint32_t idx = s.lru_head;
  LruErase(s, idx);
  s.evictions.fetch_add(1, std::memory_order_relaxed);
  Frame& f = s.frames[idx];
  if (f.prefetched) {
    f.prefetched = false;
    prefetch_waste_.fetch_add(1, std::memory_order_relaxed);
  }
  if (f.dirty) {
    DM_RETURN_NOT_OK(WriteWithStamp(s, f));
    f.dirty = false;
  }
  TableErase(s, idx);
  return idx;
}

uint8_t* BufferPool::PinIfPresentLocked(Shard& s, PageId id) {
  const uint32_t idx = TableFind(s, id);
  if (idx == kNoFrame) return nullptr;
  Frame& f = s.frames[idx];
  if (f.prefetched) {
    f.prefetched = false;
    prefetch_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  if (f.pins == 0 && f.in_lru) {
    LruErase(s, idx);
  }
  ++f.pins;
  return f.data.data();
}

Result<uint8_t*> BufferPool::InstallLocked(Shard& s, PageId id,
                                           const uint8_t* data) {
  DM_ASSIGN_OR_RETURN(const uint32_t idx, GetFreeFrameLocked(s));
  Frame& f = s.frames[idx];
  std::copy(data, data + disk_->page_size(), f.data.begin());
  f.id = id;
  f.pins = 1;
  f.dirty = false;
  f.prefetched = false;
  TableInsert(s, idx);
  return f.data.data();
}

Result<PageGuard> BufferPool::Fetch(PageId id) {
  TryDrainPrefetch();
  Shard& s = ShardFor(id);
  MutexLock lock(s.mu);
  s.logical_fetches.fetch_add(1, std::memory_order_relaxed);
  if (uint8_t* data = PinIfPresentLocked(s, id)) {
    return PageGuard(this, id, data);
  }
  DM_ASSIGN_OR_RETURN(const uint32_t idx, GetFreeFrameLocked(s));
  Frame& f = s.frames[idx];
  DM_RETURN_NOT_OK(ReadWithRetry(id, 1, f.data.data()));
  s.disk_reads.fetch_add(1, std::memory_order_relaxed);
  f.id = id;
  f.pins = 1;
  f.dirty = false;
  f.prefetched = false;
  TableInsert(s, idx);
  return PageGuard(this, id, f.data.data());
}

uint32_t BufferPool::MaxRunPages() const {
  uint32_t min_shard = capacity_;
  for (const auto& s : shards_) {
    min_shard = std::min(min_shard, s->frame_count);
  }
  return std::max<uint32_t>(1, std::min<uint32_t>(32, min_shard));
}

Result<PageGuard> BufferPool::NewPage() {
  DM_ASSIGN_OR_RETURN(const PageId id, disk_->AllocatePage());
  Shard& s = ShardFor(id);
  MutexLock lock(s.mu);
  DM_ASSIGN_OR_RETURN(const uint32_t idx, GetFreeFrameLocked(s));
  Frame& f = s.frames[idx];
  std::fill(f.data.begin(), f.data.end(), 0);
  f.id = id;
  f.pins = 1;
  f.dirty = true;
  f.prefetched = false;
  TableInsert(s, idx);
  return PageGuard(this, id, f.data.data());
}

void BufferPool::Unpin(PageId id) {
  Shard& s = ShardFor(id);
  MutexLock lock(s.mu);
  const uint32_t idx = TableFind(s, id);
  DM_CHECK(idx != kNoFrame) << "unpin of unmapped page " << id;
  Frame& f = s.frames[idx];
  DM_CHECK(f.pins > 0) << "pin/unpin imbalance on page " << id;
  if (--f.pins == 0) {
    LruPushBack(s, idx);
  }
}

void BufferPool::MarkDirty(PageId id) {
  Shard& s = ShardFor(id);
  MutexLock lock(s.mu);
  const uint32_t idx = TableFind(s, id);
  DM_CHECK(idx != kNoFrame) << "MarkDirty on unmapped page " << id;
  s.frames[idx].dirty = true;
}

Status BufferPool::FlushAll() {
  // Absorb in-flight speculation first: FlushAll's quiescence contract
  // would otherwise race prefetch completions installing frames.
  DrainPrefetchInner(/*block=*/true);
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    MutexLock lock(s.mu);
    for (uint32_t idx = 0; idx < s.frames.size(); ++idx) {
      Frame& f = s.frames[idx];
      if (!f.mapped) continue;
      if (f.dirty) {
        DM_RETURN_NOT_OK(WriteWithStamp(s, f));
        f.dirty = false;
      }
      if (f.pins == 0) {
        if (f.prefetched) {
          f.prefetched = false;
          prefetch_waste_.fetch_add(1, std::memory_order_relaxed);
        }
        if (f.in_lru) {
          LruErase(s, idx);
        }
        TableErase(s, idx);
        f.id = kInvalidPage;
        s.free_list.push_back(idx);
      }
    }
  }
  return Status::OK();
}

void BufferPool::set_async_device(AsyncPageDevice* dev) {
  DrainPrefetchInner(/*block=*/true);
  MutexLock lock(pf_mu_);
  if (pf_group_ != 0) {
    async_->ReleaseGroup(pf_group_);
    pf_group_ = 0;
  }
  async_ = dev;
}

Status BufferPool::FetchRuns(
    const RunRequest* runs, size_t run_count,
    const std::function<void(size_t, Status, std::vector<PageGuard>*)>&
        on_run) {
  if (run_count == 0) return Status::OK();
  TryDrainPrefetch();

  const uint32_t page_size = disk_->page_size();
  const uint32_t max_run = MaxRunPages();
  // Slice missing sub-runs into single-page requests when the async
  // device simulates per-page latency: the deadlines of an n-page
  // request stack (n x L), so page-granular requests are what lets a
  // whole batch complete in ~one latency instead of sum-of-run-lengths.
  // At zero latency, or reading synchronously, coalesced scatter-gather
  // wins (fewer syscalls).
  const bool slice =
      async_ != nullptr && disk_->simulated_read_latency_micros() > 0;
  // Window bound on simultaneously pinned + staged pages, so a large
  // batch cannot exhaust the pool: runs stage in index order as the
  // window frees. Synchronous reads complete while their run stages,
  // so without a device the window never holds more than one run.
  const uint32_t budget_pages = std::max(max_run, capacity_ / 2);

  struct RunState {
    std::vector<PageGuard> guards;
    uint32_t pending = 0;  // unfinished read requests (+1 while staging)
    Status status;         // first error, sticky
  };
  struct Req {
    size_t run = 0;
    uint32_t offset = 0;  // page offset within the run
    PageId first = 0;
    uint32_t n = 0;
    uint8_t* buf = nullptr;
    int attempts = 0;
  };
  std::vector<RunState> states(run_count);
  std::vector<Req> reqs;                   // user_data indexes this
  std::vector<std::vector<uint8_t>> bufs;  // async scratch, one per request
  std::vector<uint8_t> sync_buf;  // reused: a sync read finishes in place
  std::vector<uint32_t> missing;  // offsets within the staging run

  const uint64_t group = async_ != nullptr ? async_->NewGroup() : 0;
  size_t next_run = 0;
  size_t delivered = 0;
  uint32_t window_pages = 0;
  int64_t inflight_reqs = 0;
  bool staged_any = false;

  auto deliver = [&](size_t ri) {
    RunState& st = states[ri];
    if (!st.status.ok()) st.guards.clear();  // unpin whatever we held
    on_run(ri, st.status, &st.guards);
    // Ascending page order, so the LRU ends up as a sequence of
    // single-page fetches would have left it.
    for (PageGuard& g : st.guards) g.Release();
    st.guards.clear();
    window_pages -= runs[ri].n;
    ++delivered;
  };

  // Starts (or restarts) request `ud`: staged on the async device
  // (returns false), or read synchronously with the result in `*done`
  // (returns true). Every attempt checks the deadline first (DESIGN.md
  // §16), so an expired budget never touches the device; resident
  // pages cost no wait and are still served.
  auto issue = [&](uint64_t ud, Status* done) {
    const Req& rq = reqs[static_cast<size_t>(ud)];
    if (IoDeadline::Expired()) {
      *done = Status::DeadlineExceeded("read deadline expired before page " +
                                       std::to_string(rq.first));
      return true;
    }
    if (async_ != nullptr) {
      async_->StageRead(group, rq.first, rq.n, rq.buf, ud);
      staged_any = true;
      return false;
    }
    *done = disk_->ReadPages(rq.first, rq.n, rq.buf);
    return true;
  };
  // Completion of request `ud`, async or synchronous alike: retry,
  // verify, install, deliver.
  auto handle = [&](uint64_t ud, Status s) {
    Req& rq = reqs[static_cast<size_t>(ud)];
    // Transient failures get the bounded backoff ladder, then the
    // failure is final. Corruption is never retried, and an expired
    // deadline skips the backoff sleep (it is exactly the wait a
    // deadline exists to bound); the re-issue then fails it.
    while (s.code() == StatusCode::kUnavailable &&
           rq.attempts + 1 < kMaxIoAttempts) {
      if (!IoDeadline::Expired()) {
        io_retries_.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(
            std::chrono::microseconds(kIoBackoffBaseMicros << rq.attempts));
      }
      ++rq.attempts;
      if (!issue(ud, &s)) return;  // re-staged: completes later
    }
    --inflight_reqs;
    RunState& st = states[rq.run];
    if (s.ok()) s = VerifyPages(rq.first, rq.n, rq.buf);
    if (s.ok()) {
      // Install in ascending page order; a page another worker
      // installed meanwhile keeps its copy.
      for (uint32_t r = 0; r < rq.n; ++r) {
        const PageId id = rq.first + r;
        Shard& sh = ShardFor(id);
        MutexLock lock(sh.mu);
        sh.disk_reads.fetch_add(1, std::memory_order_relaxed);
        if (uint8_t* data = PinIfPresentLocked(sh, id)) {
          st.guards[rq.offset + r] = PageGuard(this, id, data);
          continue;
        }
        Result<uint8_t*> res = InstallLocked(
            sh, id, rq.buf + static_cast<size_t>(r) * page_size);
        if (!res.ok()) {
          s = res.status();
          break;
        }
        st.guards[rq.offset + r] = PageGuard(this, id, res.value());
      }
    }
    if (!s.ok() && st.status.ok()) st.status = s;
    if (--st.pending == 0) deliver(rq.run);
  };

  // Deadline-aware completion wait: an async read that lands after the
  // budget expired fails its run with the deadline's class, as if the
  // check before the read had stopped it. Staged reads are reaped
  // either way: their buffers are owned by this frame.
  auto reap = [&](AsyncCompletion& c) {
    if (c.status.ok() && IoDeadline::Expired()) {
      c.status = Status::DeadlineExceeded(
          "read deadline expired waiting for page " +
          std::to_string(reqs[static_cast<size_t>(c.user_data)].first));
    }
    handle(c.user_data, std::move(c.status));
  };

  while (delivered < run_count) {
    while (next_run < run_count &&
           (window_pages == 0 ||
            window_pages + runs[next_run].n <= budget_pages)) {
      const size_t ri = next_run++;
      const RunRequest& rr = runs[ri];
      DM_CHECK(rr.n > 0 && rr.n <= max_run)
          << "FetchRuns run of " << rr.n << " pages exceeds the pin budget";
      CountRun(rr.n);
      window_pages += rr.n;
      RunState& st = states[ri];
      st.guards.resize(rr.n);
      // Pass 1: pin resident pages, collect missing offsets.
      missing.clear();
      for (uint32_t i = 0; i < rr.n; ++i) {
        const PageId id = rr.first + i;
        Shard& sh = ShardFor(id);
        MutexLock lock(sh.mu);
        sh.logical_fetches.fetch_add(1, std::memory_order_relaxed);
        if (uint8_t* data = PinIfPresentLocked(sh, id)) {
          st.guards[i] = PageGuard(this, id, data);
        } else {
          missing.push_back(i);
        }
      }
      // Pass 2: issue each maximal missing sub-run (or each page when
      // slicing). The staging hold keeps a synchronous completion from
      // delivering the run before its last sub-run is issued; a failed
      // sub-run ends the run's reads.
      ++st.pending;
      for (size_t m = 0; m < missing.size() && st.status.ok();) {
        size_t end = m + 1;
        if (!slice) {
          while (end < missing.size() &&
                 missing[end] == missing[end - 1] + 1) {
            ++end;
          }
        }
        const uint32_t len = static_cast<uint32_t>(end - m);
        const size_t bytes = static_cast<size_t>(len) * page_size;
        uint8_t* buf;
        if (async_ != nullptr) {
          bufs.emplace_back(bytes);
          buf = bufs.back().data();
        } else {
          sync_buf.resize(bytes);
          buf = sync_buf.data();
        }
        reqs.push_back(
            Req{ri, missing[m], rr.first + missing[m], len, buf, 0});
        ++st.pending;
        ++inflight_reqs;
        Status done;
        if (issue(reqs.size() - 1, &done)) {
          handle(reqs.size() - 1, std::move(done));
        }
        m = end;
      }
      if (--st.pending == 0) deliver(ri);
    }
    if (staged_any) {
      async_->SubmitStaged();
      staged_any = false;
    }
    if (delivered == run_count) break;
    DM_CHECK(inflight_reqs > 0) << "FetchRuns stalled with undelivered runs";
    AsyncCompletion c = async_->WaitOne(group);
    reap(c);
    while (async_->PollOne(group, &c)) reap(c);
  }
  if (async_ != nullptr) async_->ReleaseGroup(group);
  return Status::OK();
}

void BufferPool::Prefetch(PageId first, uint32_t n) {
  if (async_ == nullptr || n == 0) return;
  n = std::min(n, MaxRunPages());
  // Trim to the missing span; a fully resident run costs nothing.
  uint32_t lo = n;
  uint32_t hi = 0;
  for (uint32_t i = 0; i < n; ++i) {
    Shard& s = ShardFor(first + i);
    MutexLock lock(s.mu);
    if (TableFind(s, first + i) == kNoFrame) {
      lo = std::min(lo, i);
      hi = i + 1;
    }
  }
  if (lo >= hi) return;
  first += lo;
  n = hi - lo;
  MutexLock lock(pf_mu_);
  if (async_ == nullptr) return;
  if (pf_group_ == 0) {
    pf_group_ = async_->NewGroup();
    pf_slots_.resize(kPrefetchSlots);
  }
  size_t slot_idx = pf_slots_.size();
  for (size_t i = 0; i < pf_slots_.size(); ++i) {
    if (!pf_slots_[i].busy) {
      slot_idx = i;
      break;
    }
  }
  if (slot_idx == pf_slots_.size()) return;  // saturated: drop, advisory
  PrefetchSlot& slot = pf_slots_[slot_idx];
  slot.first = first;
  slot.n = n;
  slot.busy = true;
  slot.buf.resize(static_cast<size_t>(n) * disk_->page_size());
  async_->StageRead(pf_group_, first, n, slot.buf.data(),
                    static_cast<uint64_t>(slot_idx));
  async_->SubmitStaged();
  ++pf_inflight_;
  prefetch_reads_.fetch_add(n, std::memory_order_relaxed);
  pf_active_.store(true, std::memory_order_relaxed);
}

void BufferPool::DrainPrefetch() { DrainPrefetchInner(/*block=*/true); }

void BufferPool::DrainPrefetchInner(bool block) {
  MutexLock lock(pf_mu_);
  DrainLoopLocked(block);
}

void BufferPool::TryDrainPrefetch() {
  if (!pf_active_.load(std::memory_order_relaxed)) return;
  if (!pf_mu_.try_lock()) return;  // someone else is draining
  DrainLoopLocked(/*block=*/false);
  pf_mu_.unlock();
}

void BufferPool::DrainLoopLocked(bool block) {
  if (async_ == nullptr || pf_group_ == 0) return;
  AsyncCompletion c;
  while (pf_inflight_ > 0) {
    if (block) {
      c = async_->WaitOne(pf_group_);
    } else if (!async_->PollOne(pf_group_, &c)) {
      return;
    }
    --pf_inflight_;
    PrefetchSlot& slot = pf_slots_[static_cast<size_t>(c.user_data)];
    InstallPrefetched(slot, c.status);
    slot.busy = false;
  }
  pf_active_.store(false, std::memory_order_relaxed);
}

void BufferPool::InstallPrefetched(const PrefetchSlot& slot,
                                   const Status& st) {
  if (!st.ok()) {
    // A failed speculative read is pure waste; demand fetches will
    // re-read and surface the error if it persists.
    prefetch_waste_.fetch_add(slot.n, std::memory_order_relaxed);
    return;
  }
  const uint32_t page_size = disk_->page_size();
  for (uint32_t i = 0; i < slot.n; ++i) {
    const PageId id = slot.first + i;
    const uint8_t* data = slot.buf.data() + static_cast<size_t>(i) * page_size;
    if (verify_checksums_) {
      const Status v = VerifyPageTrailer(data, page_size, id);
      if (!v.ok()) {
        // Count the corruption (the zero-silent-escape audit sums
        // corrupt_pages) and drop the page; the demand fetch that
        // would have hit it re-reads and reports.
        corrupt_pages_.fetch_add(1, std::memory_order_relaxed);
        prefetch_waste_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    }
    Shard& s = ShardFor(id);
    MutexLock lock(s.mu);
    if (TableFind(s, id) != kNoFrame) {
      // A demand fetch beat us to it.
      prefetch_waste_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Low-priority frame claim: free frames, else another unused
    // prefetch (coldest first) — never a demand-fetched frame.
    uint32_t idx = kNoFrame;
    if (!s.free_list.empty()) {
      idx = s.free_list.back();
      s.free_list.pop_back();
    } else {
      for (uint32_t v = s.lru_head; v != kNoFrame; v = s.frames[v].lru_next) {
        if (s.frames[v].prefetched) {
          idx = v;
          break;
        }
      }
      if (idx != kNoFrame) {
        prefetch_waste_.fetch_add(1, std::memory_order_relaxed);
        s.frames[idx].prefetched = false;
        LruErase(s, idx);
        TableErase(s, idx);
      }
    }
    if (idx == kNoFrame) {
      prefetch_waste_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Frame& f = s.frames[idx];
    std::copy(data, data + page_size, f.data.begin());
    f.id = id;
    f.pins = 0;
    f.dirty = false;
    f.prefetched = true;
    TableInsert(s, idx);
    LruPushFront(s, idx);
  }
}

Status BufferPool::FlushDirty() {
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    MutexLock lock(s.mu);
    for (uint32_t idx = 0; idx < s.frames.size(); ++idx) {
      Frame& f = s.frames[idx];
      if (!f.mapped || !f.dirty || f.pins > 0) continue;
      DM_RETURN_NOT_OK(WriteWithStamp(s, f));
      f.dirty = false;
    }
  }
  return Status::OK();
}

}  // namespace dm
