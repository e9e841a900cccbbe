#include "storage/buffer_pool.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/check.h"
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
    // An expired deadline skips the backoff sleep (it is exactly the
    // wait a deadline exists to bound); the next pass then fails it.
    if (IoDeadline::Expired()) continue;
    io_retries_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::microseconds(kIoBackoffBaseMicros << attempt));
  }
  DM_RETURN_NOT_OK(st);
  return VerifyPages(first, n, out);
}

Status BufferPool::VerifyPages(PageId first, uint32_t n, const uint8_t* buf) {
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
  TableInsert(s, idx);
  return f.data.data();
}

Result<PageGuard> BufferPool::Fetch(PageId id) {
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

Status BufferPool::FetchRuns(
    const RunRequest* runs, size_t run_count,
    const std::function<void(size_t, Status, std::vector<PageGuard>*)>&
        on_run) {
  const uint32_t page_size = disk_->page_size();
  const uint32_t max_run = MaxRunPages();
  std::vector<PageGuard> guards;
  std::vector<uint8_t> buf;  // one missing sub-run, reused
  for (size_t ri = 0; ri < run_count; ++ri) {
    const RunRequest& rr = runs[ri];
    DM_CHECK(rr.n > 0 && rr.n <= max_run)
        << "FetchRuns run of " << rr.n << " pages exceeds the pin budget";
    CountRun(rr.n);
    guards.clear();
    guards.resize(rr.n);
    // Pin the resident pages first.
    for (uint32_t i = 0; i < rr.n; ++i) {
      const PageId id = rr.first + i;
      Shard& sh = ShardFor(id);
      MutexLock lock(sh.mu);
      sh.logical_fetches.fetch_add(1, std::memory_order_relaxed);
      if (uint8_t* data = PinIfPresentLocked(sh, id)) {
        guards[i] = PageGuard(this, id, data);
      }
    }
    // Then read each maximal missing sub-run with one request; a
    // failed sub-run ends the run's reads.
    Status st;
    for (uint32_t i = 0; i < rr.n && st.ok();) {
      if (guards[i].valid()) {
        ++i;
        continue;
      }
      uint32_t end = i + 1;
      while (end < rr.n && !guards[end].valid()) ++end;
      const PageId first = rr.first + i;
      const uint32_t len = end - i;
      buf.resize(static_cast<size_t>(len) * page_size);
      st = ReadWithRetry(first, len, buf.data());
      // Install in ascending page order; a page another thread
      // installed meanwhile keeps its copy.
      for (uint32_t r = 0; r < len && st.ok(); ++r) {
        const PageId id = first + r;
        Shard& sh = ShardFor(id);
        MutexLock lock(sh.mu);
        sh.disk_reads.fetch_add(1, std::memory_order_relaxed);
        uint8_t* data = PinIfPresentLocked(sh, id);
        if (data == nullptr) {
          Result<uint8_t*> res = InstallLocked(
              sh, id, buf.data() + static_cast<size_t>(r) * page_size);
          if (!res.ok()) {
            st = res.status();
            break;
          }
          data = res.value();
        }
        guards[i + r] = PageGuard(this, id, data);
      }
      i = end;
    }
    if (!st.ok()) guards.clear();  // unpin whatever the run held
    on_run(ri, std::move(st), &guards);
    // Ascending page order, so the LRU ends up as a sequence of
    // single-page fetches would have left it.
    for (PageGuard& g : guards) g.Release();
  }
  return Status::OK();
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
