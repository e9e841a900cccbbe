#ifndef DIRECTMESH_STORAGE_DISK_MANAGER_H_
#define DIRECTMESH_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/page.h"

namespace dm {

/// Narrow interface between the buffer pool and whatever supplies
/// pages: the real `DiskManager`, or a `FaultInjectingDevice`
/// (fault_env.h) wrapped around it for fault drills. Implementations
/// must be thread-safe; status classes follow the failure taxonomy in
/// DESIGN.md §11 (kUnavailable = transient/retryable, kIOError =
/// permanent, kCorruption = bad bytes).
class PageDevice {
 public:
  virtual ~PageDevice() = default;

  virtual uint32_t page_size() const = 0;
  virtual PageId num_pages() const = 0;
  virtual Result<PageId> AllocatePage() = 0;
  virtual Status ReadPage(PageId id, uint8_t* out) = 0;
  virtual Status ReadPages(PageId first, uint32_t n, uint8_t* out) = 0;
  virtual Status WritePage(PageId id, const uint8_t* data) = 0;
};

/// Fixed-size-page file storage. One DiskManager per database file;
/// all structures of a dataset share it (one "tablespace"), so the
/// buffer pool above it sees the union of their page traffic — the
/// same accounting granularity as the Oracle statistics report the
/// paper measures disk accesses from.
///
/// Thread-safe: reads and writes use positioned I/O (`pread`/`pwrite`)
/// on a shared file descriptor, so concurrent calls from the sharded
/// buffer pool never interleave a seek with another thread's transfer.
/// `AllocatePage` serializes on an internal mutex.
class DiskManager final : public PageDevice {
 public:
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;
  ~DiskManager() override;

  /// Creates (truncating) or opens a page file.
  static Result<std::unique_ptr<DiskManager>> Open(const std::string& path,
                                                   uint32_t page_size,
                                                   bool truncate);

  uint32_t page_size() const override { return page_size_; }
  PageId num_pages() const override {
    return num_pages_.load(std::memory_order_relaxed);
  }

  /// Extends the file by one zeroed page and returns its id.
  /// Distinguishes a full disk (ENOSPC, with errno text) from a short
  /// write, so operators can tell "add storage" from "kernel bug".
  Result<PageId> AllocatePage() override;

  /// Reads page `id` into `out` (page_size bytes).
  Status ReadPage(PageId id, uint8_t* out) override;

  /// Reads `n` consecutive pages starting at `first` into `out`
  /// (n * page_size bytes) with a single positioned read — the
  /// scatter-gather path the batched heap fetch uses to cut syscalls
  /// on large cubes. Falls back to a per-page `pread` loop when the
  /// kernel returns a short read.
  Status ReadPages(PageId first, uint32_t n, uint8_t* out) override;

  /// Writes page `id` from `data` (page_size bytes).
  Status WritePage(PageId id, const uint8_t* data) override;

  /// Adds a fixed sleep of `micros` per page read, modelling the
  /// disk-bound regime the paper measures (its datasets dwarf RAM;
  /// ours sit in the OS page cache, where a pread costs microseconds).
  /// Throughput benches use this so I/O overlap across worker threads
  /// is observable; 0 (the default) turns it off and is the paper-
  /// exact configuration. Not thread-safe; set before serving starts.
  void set_simulated_read_latency_micros(uint32_t micros) {
    simulated_read_latency_micros_ = micros;
  }

 private:
  DiskManager(int fd, uint32_t page_size, PageId num_pages)
      : fd_(fd), page_size_(page_size), num_pages_(num_pages) {}

  int fd_;
  uint32_t page_size_;
  std::atomic<PageId> num_pages_;
  /// Serializes file extension: the zero-fill pwrite and the
  /// num_pages_ bump must be atomic with respect to other allocators
  /// (readers only need the atomic).
  Mutex alloc_mu_;
  uint32_t simulated_read_latency_micros_ = 0;
};

}  // namespace dm

#endif  // DIRECTMESH_STORAGE_DISK_MANAGER_H_
