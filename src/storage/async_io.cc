#include "storage/async_io.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/thread_annotations.h"

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#define DM_HAS_URING 1
#include <linux/io_uring.h>
#include <linux/time_types.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace dm {

namespace {

/// A group's delivery state: completions ready to collect, plus how
/// many staged-or-submitted requests have not been collected yet (the
/// WaitOne liveness check).
struct GroupState {
  std::deque<AsyncCompletion> ready;
  int64_t outstanding = 0;
};

// ---------------------------------------------------------------------------
// Thread-pool backend: ServiceThreads workers draining a guarded queue
// through chain->ReadPages. The whole sync device stack runs per
// request on a worker, so simulated latency, fault injection, and the
// EINTR/short-read handling of DiskManager all apply unchanged.
// ---------------------------------------------------------------------------

class ThreadPoolAsyncDevice final : public AsyncPageDevice {
 public:
  // Sized for read/decode overlap, not CPU parallelism: at 150 µs
  // simulated latency one query keeps about a dozen 1-page reads in
  // flight, so the pool is deliberately wider than the core count.
  static constexpr int kIoThreads = 4;

  explicit ThreadPoolAsyncDevice(PageDevice* chain) : chain_(chain) {
    threads_.Start(kIoThreads, [this](int) { WorkerLoop(); });
  }

  ~ThreadPoolAsyncDevice() override {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    work_cv_.NotifyAll();
    threads_.Join();
  }

  const char* backend_name() const override { return "threadpool"; }

  uint64_t NewGroup() override {
    MutexLock lock(mu_);
    const uint64_t id = next_group_++;
    groups_.emplace(id, GroupState{});
    return id;
  }

  void ReleaseGroup(uint64_t group) override {
    MutexLock lock(mu_);
    auto it = groups_.find(group);
    DM_CHECK(it != groups_.end()) << "ReleaseGroup of unknown group " << group;
    DM_CHECK(it->second.outstanding == 0)
        << "ReleaseGroup with " << it->second.outstanding
        << " uncollected requests";
    groups_.erase(it);
  }

  void StageRead(uint64_t group, PageId first, uint32_t n, uint8_t* out,
                 uint64_t user_data) override {
    MutexLock lock(mu_);
    staged_.push_back(Request{group, user_data, first, n, out});
    groups_.at(group).outstanding++;
  }

  uint64_t SubmitStaged() override {
    MutexLock lock(mu_);
    if (staged_.empty()) return 0;
    const uint64_t total = staged_.size();
    for (Request& r : staged_) queue_.push_back(std::move(r));
    staged_.clear();
    NoteSubmission(static_cast<int64_t>(total));
    work_cv_.NotifyAll();
    return total;
  }

  AsyncCompletion WaitOne(uint64_t group) override {
    MutexLock lock(mu_);
    GroupState& gs = groups_.at(group);
    while (gs.ready.empty()) {
      DM_CHECK(gs.outstanding > 0)
          << "WaitOne on group " << group << " with nothing submitted";
      comp_cv_.Wait(mu_);
    }
    AsyncCompletion c = std::move(gs.ready.front());
    gs.ready.pop_front();
    gs.outstanding--;
    NoteCompletion();
    return c;
  }

  bool PollOne(uint64_t group, AsyncCompletion* out) override {
    MutexLock lock(mu_);
    GroupState& gs = groups_.at(group);
    if (gs.ready.empty()) return false;
    *out = std::move(gs.ready.front());
    gs.ready.pop_front();
    gs.outstanding--;
    NoteCompletion();
    return true;
  }

 private:
  struct Request {
    uint64_t group = 0;
    uint64_t user_data = 0;
    PageId first = 0;
    uint32_t n = 0;
    uint8_t* out = nullptr;
  };

  void WorkerLoop() {
    MutexLock lock(mu_);
    for (;;) {
      while (queue_.empty() && !stop_) work_cv_.Wait(mu_);
      // Drain everything already queued even when stopping: a
      // submitted request must complete before its buffer dies.
      if (queue_.empty()) return;
      const Request req = queue_.front();
      queue_.pop_front();
      lock.Unlock();
      Status st = chain_->ReadPages(req.first, req.n, req.out);
      lock.Lock();
      groups_.at(req.group).ready.push_back(
          AsyncCompletion{req.user_data, std::move(st)});
      comp_cv_.NotifyAll();
    }
  }

  PageDevice* const chain_;
  Mutex mu_;
  CondVar work_cv_;
  CondVar comp_cv_;
  bool stop_ DM_GUARDED_BY(mu_) = false;
  std::vector<Request> staged_ DM_GUARDED_BY(mu_);
  std::deque<Request> queue_ DM_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, GroupState> groups_ DM_GUARDED_BY(mu_);
  uint64_t next_group_ DM_GUARDED_BY(mu_) = 1;
  ServiceThreads threads_;  // last member: joined before state dies
};

// ---------------------------------------------------------------------------
// io_uring backend (raw syscalls; liburing is not a dependency).
// ---------------------------------------------------------------------------

#ifdef DM_HAS_URING

int SysUringSetup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, p));
}

int SysUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                  unsigned flags, const void* arg, size_t argsz) {
  return static_cast<int>(syscall(__NR_io_uring_enter, fd, to_submit,
                                  min_complete, flags, arg, argsz));
}

/// io_uring over the chain's readable_fd(). The kernel transfers the
/// bytes; classification (negative res, short read) and the chain's
/// FinishAsyncRead hook (fault injection) run per CQE on whichever
/// thread reaps it, outside the device mutex.
///
/// Simulated latency: the kernel completes container-page reads in
/// microseconds, so to honour chain->simulated_read_latency_micros()
/// each request carries a release deadline (submit time + n pages × L)
/// and reaped completions are *held* in a deadline min-heap until due.
/// This models a disk with unbounded queue parallelism — exactly the
/// overlap an async read path is supposed to buy — while the sync path
/// sleeps n×L inline per run.
class UringAsyncDevice final : public AsyncPageDevice {
 public:
  static std::unique_ptr<UringAsyncDevice> TryCreate(PageDevice* chain) {
    if (chain->readable_fd() < 0) return nullptr;
    std::unique_ptr<UringAsyncDevice> dev(new UringAsyncDevice(chain));
    if (!dev->Init()) return nullptr;
    return dev;
  }

  ~UringAsyncDevice() override {
    {
      // The kernel writes into caller buffers: never tear down with
      // reads in flight. Uncollected completions are discarded (the
      // pool drains its groups before destroying the env).
      MutexLock lock(mu_);
      std::vector<RawCqe> raw;
      while (kernel_inflight_ > 0) {
        ReapKernelLocked(&raw);
        if (!raw.empty()) {
          for (const RawCqe& c : raw) free_slots_.push_back(c.slot);
          raw.clear();
          continue;
        }
        lock.Unlock();
        Enter(0, 1, IORING_ENTER_GETEVENTS, 10 * 1000 * 1000);
        lock.Lock();
      }
    }
    if (sqes_ != nullptr) munmap(sqes_, sqes_len_);
    if (cq_mmap_len_ > 0) munmap(cq_mmap_, cq_mmap_len_);
    if (sq_mmap_ != nullptr) munmap(sq_mmap_, sq_mmap_len_);
    if (fd_ring_ >= 0) close(fd_ring_);
  }

  const char* backend_name() const override { return "uring"; }

  uint64_t NewGroup() override {
    MutexLock lock(mu_);
    const uint64_t id = next_group_++;
    groups_.emplace(id, GroupState{});
    return id;
  }

  void ReleaseGroup(uint64_t group) override {
    MutexLock lock(mu_);
    auto it = groups_.find(group);
    DM_CHECK(it != groups_.end()) << "ReleaseGroup of unknown group " << group;
    DM_CHECK(it->second.outstanding == 0)
        << "ReleaseGroup with " << it->second.outstanding
        << " uncollected requests";
    groups_.erase(it);
  }

  void StageRead(uint64_t group, PageId first, uint32_t n, uint8_t* out,
                 uint64_t user_data) override {
    MutexLock lock(mu_);
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<uint32_t>(reqs_.size());
      reqs_.emplace_back();
    }
    Request& r = reqs_[slot];
    r.group = group;
    r.user_data = user_data;
    r.first = first;
    r.n = n;
    r.out = out;
    staged_.push_back(slot);
    groups_.at(group).outstanding++;
  }

  uint64_t SubmitStaged() override {
    MutexLock lock(mu_);
    if (staged_.empty()) return 0;
    // Claim the whole batch: the lock drops inside the loop (backstop
    // reaping), and a concurrent submitter must not see these slots.
    std::vector<uint32_t> batch;
    batch.swap(staged_);
    const uint64_t total = batch.size();
    const uint32_t latency = chain_->simulated_read_latency_micros();
    std::vector<RawCqe> raw;
    size_t next = 0;
    while (next < batch.size()) {
      const unsigned head = __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE);
      const unsigned sq_free = sq_entries_ - (*sq_tail_ - head);
      const uint64_t cq_free =
          cq_entries_ > kernel_inflight_ ? cq_entries_ - kernel_inflight_ : 0;
      const unsigned can = static_cast<unsigned>(std::min<uint64_t>(
          {sq_free, cq_free, batch.size() - next}));
      if (can == 0) {
        // Ring saturated: make room by reaping before pushing more.
        ReapKernelLocked(&raw);
        if (raw.empty()) {
          lock.Unlock();
          Enter(0, 1, IORING_ENTER_GETEVENTS, 1 * 1000 * 1000);
          lock.Lock();
        } else {
          ProcessRaw(lock, &raw);
          ReleaseDueLocked(std::chrono::steady_clock::now());
        }
        continue;
      }
      const auto now = std::chrono::steady_clock::now();
      unsigned tail = *sq_tail_;
      for (unsigned i = 0; i < can; ++i, ++next, ++tail) {
        const uint32_t slot = batch[next];
        Request& r = reqs_[slot];
        r.release = now + std::chrono::microseconds(
                              static_cast<uint64_t>(latency) * r.n);
        const unsigned idx = tail & *sq_mask_;
        io_uring_sqe* sqe = &sqes_[idx];
        std::memset(sqe, 0, sizeof(*sqe));
        sqe->opcode = IORING_OP_READ;
        sqe->fd = fd_file_;
        sqe->addr = reinterpret_cast<uint64_t>(r.out);
        sqe->len = r.n * page_size_;
        sqe->off = static_cast<uint64_t>(r.first) * page_size_;
        sqe->user_data = slot;
        sq_array_[idx] = idx;
      }
      __atomic_store_n(sq_tail_, tail, __ATOMIC_RELEASE);
      unsigned submitted = 0;
      while (submitted < can) {
        const int ret = Enter(can - submitted, 0, 0, /*timeout_ns=*/-1);
        if (ret < 0) {
          if (errno == EINTR || errno == EAGAIN) continue;
          if (errno == EBUSY) {
            // CQ saturated despite our cap (shouldn't happen); drain.
            ReapKernelLocked(&raw);
            if (!raw.empty()) ProcessRaw(lock, &raw);
            continue;
          }
          DM_CHECK(false) << "io_uring_enter(submit) failed: "
                          << std::strerror(errno);
        }
        submitted += static_cast<unsigned>(ret);
        kernel_inflight_ += static_cast<uint64_t>(ret);
      }
    }
    NoteSubmission(static_cast<int64_t>(total));
    return total;
  }

  AsyncCompletion WaitOne(uint64_t group) override {
    MutexLock lock(mu_);
    std::vector<RawCqe> raw;
    for (;;) {
      GroupState& gs = groups_.at(group);
      if (!gs.ready.empty()) {
        AsyncCompletion c = std::move(gs.ready.front());
        gs.ready.pop_front();
        gs.outstanding--;
        NoteCompletion();
        return c;
      }
      DM_CHECK(gs.outstanding > 0)
          << "WaitOne on group " << group << " with nothing submitted";
      ReapKernelLocked(&raw);
      if (!raw.empty()) {
        ProcessRaw(lock, &raw);
        ReleaseDueLocked(std::chrono::steady_clock::now());
        continue;
      }
      const auto now = std::chrono::steady_clock::now();
      if (ReleaseDueLocked(now) > 0) continue;
      if (!held_.empty()) {
        // Sleep until the next deadline, capped at 1ms so CQEs landing
        // meanwhile (which could carry an *earlier* deadline) are
        // reaped promptly.
        const auto wait = std::min<std::chrono::nanoseconds>(
            held_.front().release - now, std::chrono::milliseconds(1));
        if (kernel_inflight_ > 0) {
          lock.Unlock();
          Enter(0, 1, IORING_ENTER_GETEVENTS, wait.count() + 1);
          lock.Lock();
        } else {
          comp_cv_.WaitFor(mu_, wait);
        }
      } else if (kernel_inflight_ > 0) {
        // Nothing held, requests in the kernel: block for a CQE. The
        // timeout bounds the wait because another thread may reap "our"
        // CQE during this unlocked window and hold it on a deadline.
        lock.Unlock();
        Enter(0, 1, IORING_ENTER_GETEVENTS, 1 * 1000 * 1000);
        lock.Lock();
      } else {
        // outstanding > 0 but nothing in kernel and nothing held:
        // another thread is mid-ProcessRaw with the lock dropped (its
        // relock will notify), or the caller staged without submitting.
        comp_cv_.WaitFor(mu_, std::chrono::microseconds(100));
      }
    }
  }

  bool PollOne(uint64_t group, AsyncCompletion* out) override {
    MutexLock lock(mu_);
    std::vector<RawCqe> raw;
    for (int pass = 0; pass < 2; ++pass) {
      GroupState& gs = groups_.at(group);
      if (!gs.ready.empty()) {
        *out = std::move(gs.ready.front());
        gs.ready.pop_front();
        gs.outstanding--;
        NoteCompletion();
        return true;
      }
      if (pass == 1) break;
      ReapKernelLocked(&raw);
      if (!raw.empty()) ProcessRaw(lock, &raw);
      ReleaseDueLocked(std::chrono::steady_clock::now());
    }
    return false;
  }

 private:
  struct Request {
    uint64_t group = 0;
    uint64_t user_data = 0;
    PageId first = 0;
    uint32_t n = 0;
    uint8_t* out = nullptr;
    std::chrono::steady_clock::time_point release;
  };
  struct RawCqe {
    uint32_t slot = 0;
    int32_t res = 0;
  };
  /// A completed request withheld until its simulated-latency deadline.
  struct Held {
    std::chrono::steady_clock::time_point release;
    uint32_t slot;
    Status status;
  };
  struct HeldLater {
    bool operator()(const Held& a, const Held& b) const {
      return a.release > b.release;
    }
  };

  static constexpr unsigned kRingEntries = 256;

  explicit UringAsyncDevice(PageDevice* chain) : chain_(chain) {}

  bool Init() {
    fd_file_ = chain_->readable_fd();
    page_size_ = chain_->page_size();
    io_uring_params p;
    std::memset(&p, 0, sizeof(p));
    fd_ring_ = SysUringSetup(kRingEntries, &p);
    if (fd_ring_ < 0) return false;
    ext_arg_ = (p.features & IORING_FEAT_EXT_ARG) != 0;
    sq_entries_ = p.sq_entries;
    cq_entries_ = p.cq_entries;

    size_t sq_len = p.sq_off.array + p.sq_entries * sizeof(uint32_t);
    size_t cq_len = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
    if ((p.features & IORING_FEAT_SINGLE_MMAP) != 0) {
      sq_len = cq_len = std::max(sq_len, cq_len);
    }
    void* sq = mmap(nullptr, sq_len, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, fd_ring_, IORING_OFF_SQ_RING);
    if (sq == MAP_FAILED) return false;
    sq_mmap_ = sq;
    sq_mmap_len_ = sq_len;
    void* cq = sq;
    if ((p.features & IORING_FEAT_SINGLE_MMAP) == 0) {
      cq = mmap(nullptr, cq_len, PROT_READ | PROT_WRITE,
                MAP_SHARED | MAP_POPULATE, fd_ring_, IORING_OFF_CQ_RING);
      if (cq == MAP_FAILED) return false;
      cq_mmap_ = cq;
      cq_mmap_len_ = cq_len;
    }
    void* sqes =
        mmap(nullptr, p.sq_entries * sizeof(io_uring_sqe),
             PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE, fd_ring_,
             IORING_OFF_SQES);
    if (sqes == MAP_FAILED) return false;
    sqes_ = static_cast<io_uring_sqe*>(sqes);
    sqes_len_ = p.sq_entries * sizeof(io_uring_sqe);

    auto* sqb = static_cast<uint8_t*>(sq);
    sq_head_ = reinterpret_cast<unsigned*>(sqb + p.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(sqb + p.sq_off.tail);
    sq_mask_ = reinterpret_cast<unsigned*>(sqb + p.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<unsigned*>(sqb + p.sq_off.array);
    auto* cqb = static_cast<uint8_t*>(cq);
    cq_head_ = reinterpret_cast<unsigned*>(cqb + p.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(cqb + p.cq_off.tail);
    cq_mask_ = reinterpret_cast<unsigned*>(cqb + p.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe*>(cqb + p.cq_off.cqes);
    return true;
  }

  /// io_uring_enter with an optional timed wait. timeout_ns < 0 means
  /// no timeout argument. Without IORING_FEAT_EXT_ARG (pre-5.11) a
  /// timed wait degrades to a bounded sleep + non-blocking flush; only
  /// to_submit == 0 callers pass a timeout, so nothing is lost.
  int Enter(unsigned to_submit, unsigned min_complete, unsigned flags,
            int64_t timeout_ns) {
    if (timeout_ns < 0) {
      return SysUringEnter(fd_ring_, to_submit, min_complete, flags, nullptr,
                           0);
    }
    if (!ext_arg_) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<int64_t>(timeout_ns, 200 * 1000)));
      return SysUringEnter(fd_ring_, to_submit, 0,
                           flags & ~unsigned{IORING_ENTER_GETEVENTS}, nullptr,
                           0);
    }
    io_uring_getevents_arg arg;
    std::memset(&arg, 0, sizeof(arg));
    __kernel_timespec ts;
    ts.tv_sec = timeout_ns / (1000 * 1000 * 1000);
    ts.tv_nsec = timeout_ns % (1000 * 1000 * 1000);
    arg.ts = reinterpret_cast<uint64_t>(&ts);
    return SysUringEnter(fd_ring_, to_submit, min_complete,
                         flags | IORING_ENTER_EXT_ARG, &arg, sizeof(arg));
  }

  /// Drains every available CQE into `out` (appends). Does not block.
  void ReapKernelLocked(std::vector<RawCqe>* out) DM_REQUIRES(mu_) {
    unsigned head = *cq_head_;
    const unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
    const unsigned count = tail - head;
    for (; head != tail; ++head) {
      const io_uring_cqe& cqe = cqes_[head & *cq_mask_];
      out->push_back(
          RawCqe{static_cast<uint32_t>(cqe.user_data), cqe.res});
    }
    if (count > 0) {
      __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
      kernel_inflight_ -= count;
    }
  }

  /// Classifies one CQE and runs the chain's per-completion hook.
  /// Called without the device mutex (the hook may sleep or mutate the
  /// buffer).
  Status FinishOne(int32_t res, PageId first, uint32_t n, uint8_t* out) {
    if (res < 0) {
      const int err = -res;
      if (err == EINTR || err == EAGAIN) {
        return Status::Unavailable(std::string("io_uring read: ") +
                                   std::strerror(err));
      }
      return Status::IOError(std::string("io_uring read: ") +
                             std::strerror(err));
    }
    const uint64_t want = static_cast<uint64_t>(n) * page_size_;
    if (static_cast<uint64_t>(res) != want) {
      return Status::IOError(
          "io_uring short read: got " + std::to_string(res) + " of " +
          std::to_string(want) + " bytes at page " + std::to_string(first));
    }
    return chain_->FinishAsyncRead(first, n, out);
  }

  /// Finishes freshly reaped CQEs (classification + chain hook) and
  /// heaps them on their release deadlines. Clears `raw`. Opens an
  /// unlock window around the chain call by taking the caller's scoped
  /// lock by reference — a capability transfer the static analysis
  /// cannot track, hence the escape hatch; the lock is held on entry
  /// and exit, and every guarded access happens in the held regions.
  void ProcessRaw(MutexLock& lock,
                  std::vector<RawCqe>* raw) DM_NO_THREAD_SAFETY_ANALYSIS {
    struct Work {
      uint32_t slot;
      PageId first;
      uint32_t n;
      uint8_t* out;
      int32_t res;
    };
    std::vector<Work> work;
    work.reserve(raw->size());
    for (const RawCqe& c : *raw) {
      const Request& r = reqs_[c.slot];
      work.push_back(Work{c.slot, r.first, r.n, r.out, c.res});
    }
    raw->clear();
    lock.Unlock();
    std::vector<Status> statuses;
    statuses.reserve(work.size());
    for (const Work& w : work) {
      statuses.push_back(FinishOne(w.res, w.first, w.n, w.out));
    }
    lock.Lock();
    for (size_t i = 0; i < work.size(); ++i) {
      held_.push_back(Held{reqs_[work[i].slot].release, work[i].slot,
                           std::move(statuses[i])});
      std::push_heap(held_.begin(), held_.end(), HeldLater());
    }
  }

  /// Moves every held completion whose deadline passed to its group's
  /// ready queue and recycles the slot. Returns how many moved.
  int ReleaseDueLocked(std::chrono::steady_clock::time_point now)
      DM_REQUIRES(mu_) {
    int moved = 0;
    while (!held_.empty() && held_.front().release <= now) {
      std::pop_heap(held_.begin(), held_.end(), HeldLater());
      Held h = std::move(held_.back());
      held_.pop_back();
      const Request& r = reqs_[h.slot];
      groups_.at(r.group).ready.push_back(
          AsyncCompletion{r.user_data, std::move(h.status)});
      free_slots_.push_back(h.slot);
      ++moved;
    }
    if (moved > 0) comp_cv_.NotifyAll();
    return moved;
  }

  PageDevice* const chain_;
  int fd_ring_ = -1;
  int fd_file_ = -1;
  uint32_t page_size_ = 0;
  bool ext_arg_ = false;

  void* sq_mmap_ = nullptr;
  size_t sq_mmap_len_ = 0;
  void* cq_mmap_ = nullptr;  // null when IORING_FEAT_SINGLE_MMAP
  size_t cq_mmap_len_ = 0;
  io_uring_sqe* sqes_ = nullptr;
  size_t sqes_len_ = 0;
  unsigned sq_entries_ = 0;
  unsigned cq_entries_ = 0;
  // Ring pointers into the shared mappings. The kernel-owned ends
  // (sq_head_, cq_tail_) are read with acquire loads; our ends are
  // published with release stores. All our-side read-modify-writes
  // happen under mu_, so plain reads of our own ends are fine.
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_mask_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned* cq_mask_ = nullptr;
  io_uring_cqe* cqes_ = nullptr;

  Mutex mu_;
  CondVar comp_cv_;
  std::vector<Request> reqs_ DM_GUARDED_BY(mu_);
  std::vector<uint32_t> free_slots_ DM_GUARDED_BY(mu_);
  std::vector<uint32_t> staged_ DM_GUARDED_BY(mu_);
  std::vector<Held> held_ DM_GUARDED_BY(mu_);  // min-heap by release
  std::unordered_map<uint64_t, GroupState> groups_ DM_GUARDED_BY(mu_);
  uint64_t next_group_ DM_GUARDED_BY(mu_) = 1;
  uint64_t kernel_inflight_ DM_GUARDED_BY(mu_) = 0;
};

#endif  // DM_HAS_URING

}  // namespace

bool UringSupported() {
#ifdef DM_HAS_URING
  static const bool supported = [] {
    io_uring_params p;
    std::memset(&p, 0, sizeof(p));
    const int fd = SysUringSetup(1, &p);
    if (fd < 0) return false;
    close(fd);
    return true;
  }();
  return supported;
#else
  return false;
#endif
}

std::unique_ptr<AsyncPageDevice> CreateAsyncPageDevice(
    PageDevice* chain, const std::string& backend) {
#ifdef DM_HAS_URING
  if (backend == "uring" || backend == "auto" || backend.empty()) {
    if (UringSupported()) {
      auto dev = UringAsyncDevice::TryCreate(chain);
      if (dev != nullptr) return dev;
    }
  }
#endif
  return std::make_unique<ThreadPoolAsyncDevice>(chain);
}

}  // namespace dm
