#ifndef DIRECTMESH_STORAGE_ASYNC_IO_H_
#define DIRECTMESH_STORAGE_ASYNC_IO_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace dm {

/// Submission/completion counters of an AsyncPageDevice, surfaced by
/// `dmctl io-stats` next to the buffer pool's IoStats.
struct AsyncIoStats {
  /// SubmitStaged calls that pushed at least one request to the
  /// device (ring doorbells / queue publishes, not requests).
  int64_t submissions = 0;
  /// Read requests submitted.
  int64_t requests = 0;
  /// Completions handed back to waiters.
  int64_t completions = 0;
  /// High-water mark of requests in flight at once — how deep the
  /// batched read path actually drives the device queue.
  int64_t inflight_hwm = 0;
};

/// One completed request. `status` carries the per-request failure
/// taxonomy (DESIGN.md §11) so the buffer pool's retry/CRC machinery
/// applies per completion exactly as it does per synchronous read:
/// kUnavailable completions are retried with backoff, anything else is
/// final, and OK bytes still face trailer verification.
struct AsyncCompletion {
  /// Caller cookie passed to StageRead (io_uring's user_data model):
  /// the consumer indexes its own request table with it, so neither
  /// side needs a token map.
  uint64_t user_data = 0;
  Status status;
};

/// Asynchronous page-read interface beneath the buffer pool: stage any
/// number of reads, submit them as one batch, then collect completions
/// in whatever order the device finishes them.
///
/// Completion groups isolate concurrent consumers sharing one device
/// (query workers, the pool's prefetcher): every staged read names a
/// group, and WaitOne/PollOne only deliver that group's completions
/// while still pumping the device on behalf of everyone. A group is a
/// cheap handle — open one per batched fetch, release it drained.
///
/// Thread-safe. Implementations must guarantee that every staged and
/// submitted request eventually completes (no lost wakeups), and that
/// requests of one SubmitStaged batch reach the device in staging
/// order (completion order is unconstrained).
class AsyncPageDevice {
 public:
  virtual ~AsyncPageDevice() = default;

  /// "uring" or "threadpool".
  virtual const char* backend_name() const = 0;

  /// Opens a fresh completion group.
  virtual uint64_t NewGroup() = 0;

  /// Closes a group. All of its requests must have been collected.
  virtual void ReleaseGroup(uint64_t group) = 0;

  /// Stages a read of pages [first, first + n) into `out`
  /// (n * page_size bytes, which must stay valid until the completion
  /// is collected). Nothing reaches the device until SubmitStaged.
  virtual void StageRead(uint64_t group, PageId first, uint32_t n,
                         uint8_t* out, uint64_t user_data) = 0;

  /// Submits every staged request as one batch — one ring doorbell on
  /// the io_uring backend, one queue publish on the thread pool.
  /// Returns the number of requests submitted.
  virtual uint64_t SubmitStaged() = 0;

  /// Blocks until a completion of `group` is available and returns it.
  /// The group must have a submitted request outstanding.
  virtual AsyncCompletion WaitOne(uint64_t group) = 0;

  /// Non-blocking WaitOne: false when nothing of `group` is ready.
  virtual bool PollOne(uint64_t group, AsyncCompletion* out) = 0;

  AsyncIoStats stats() const {
    AsyncIoStats s;
    s.submissions = submissions_.load(std::memory_order_relaxed);
    s.requests = requests_.load(std::memory_order_relaxed);
    s.completions = completions_.load(std::memory_order_relaxed);
    s.inflight_hwm = inflight_hwm_.load(std::memory_order_relaxed);
    return s;
  }
  void ResetStats() {
    submissions_.store(0, std::memory_order_relaxed);
    requests_.store(0, std::memory_order_relaxed);
    completions_.store(0, std::memory_order_relaxed);
    inflight_hwm_.store(0, std::memory_order_relaxed);
  }

 protected:
  void NoteSubmission(int64_t n) {
    submissions_.fetch_add(1, std::memory_order_relaxed);
    requests_.fetch_add(n, std::memory_order_relaxed);
    const int64_t inflight =
        inflight_.fetch_add(n, std::memory_order_relaxed) + n;
    int64_t hwm = inflight_hwm_.load(std::memory_order_relaxed);
    while (inflight > hwm &&
           !inflight_hwm_.compare_exchange_weak(hwm, inflight,
                                                std::memory_order_relaxed)) {
    }
  }
  void NoteCompletion() {
    completions_.fetch_add(1, std::memory_order_relaxed);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> submissions_{0};
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> completions_{0};
  std::atomic<int64_t> inflight_{0};
  std::atomic<int64_t> inflight_hwm_{0};
};

/// True when this kernel accepts io_uring_setup (probed once; false on
/// non-Linux builds, old kernels, and kernels with io_uring disabled
/// by sysctl or seccomp).
bool UringSupported();

/// Builds the async device for `chain` (the same PageDevice the buffer
/// pool reads through, so fault injection and simulated latency keep
/// their place in the stack). `backend`:
///   "uring"      — io_uring when the kernel supports it AND the chain
///                  exposes a raw fd; silently falls back to the
///                  thread pool otherwise (runtime detection).
///   "auto"       — same as "uring".
///   "threadpool" — portable pread pool over chain->ReadPages.
std::unique_ptr<AsyncPageDevice> CreateAsyncPageDevice(
    PageDevice* chain, const std::string& backend);

}  // namespace dm

#endif  // DIRECTMESH_STORAGE_ASYNC_IO_H_
