#ifndef DIRECTMESH_STORAGE_FAULT_ENV_H_
#define DIRECTMESH_STORAGE_FAULT_ENV_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "storage/disk_manager.h"

namespace dm {

/// A reproducible fault schedule. Rates are per *operation* (one
/// ReadPage/ReadPages/WritePage/AllocatePage call counts as one op);
/// which ops fail is fully determined by `seed` and the op sequence,
/// so a failing sweep replays exactly from its seed. `trigger_after_n`
/// arms injection only from the Nth op on (0 = from the start), which
/// lets a test build a clean store and then torture only the query
/// phase.
struct FaultPlan {
  uint64_t seed = 0;

  /// Permanent read failure (EIO-class): ReadPage/ReadPages returns
  /// kIOError without transferring bytes.
  double read_error_rate = 0.0;
  /// Transient read failure (EINTR/EAGAIN storm): returns kUnavailable.
  /// A bounded retry loop above must absorb these.
  double read_transient_rate = 0.0;
  /// Short read: only the first half of the first affected page is
  /// transferred, rest of the buffer untouched; returns kIOError.
  double short_read_rate = 0.0;
  /// Single-bit flip in one read page: the read "succeeds" but one bit
  /// of the returned buffer is inverted. Only checksums catch this.
  double bit_flip_rate = 0.0;
  /// Write failure (EIO-class / disk-full): returns kIOError without
  /// writing.
  double write_error_rate = 0.0;
  /// Torn multi-page/partial write: for WritePage, the first half of
  /// the page is written and the rest left stale; returns kIOError
  /// (the device knows the write failed — the torn bytes model what a
  /// crash leaves on the platter).
  double torn_write_rate = 0.0;
  /// Latency spike: the op sleeps `latency_spike_micros` first, then
  /// proceeds normally. Exercises deadlines, not error paths.
  double latency_spike_rate = 0.0;
  uint32_t latency_spike_micros = 2000;

  /// Ops before injection arms. Ops below this threshold (and the
  /// draw consumed for them) still advance the schedule so the fault
  /// sequence depends only on (seed, op index).
  uint64_t trigger_after_n = 0;

  bool AnyFaults() const {
    return read_error_rate > 0 || read_transient_rate > 0 ||
           short_read_rate > 0 || bit_flip_rate > 0 ||
           write_error_rate > 0 || torn_write_rate > 0 ||
           latency_spike_rate > 0;
  }
};

/// Counters for what the shim actually injected, so tests can assert
/// "every injected corruption was detected" structurally instead of
/// hoping.
struct FaultStats {
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> read_errors{0};
  std::atomic<uint64_t> read_transients{0};
  std::atomic<uint64_t> short_reads{0};
  std::atomic<uint64_t> bit_flips{0};
  std::atomic<uint64_t> write_errors{0};
  std::atomic<uint64_t> torn_writes{0};
  std::atomic<uint64_t> latency_spikes{0};

  uint64_t injected_total() const {
    return read_errors.load() + read_transients.load() + short_reads.load() +
           bit_flips.load() + write_errors.load() + torn_writes.load();
  }
};

/// Deterministic fault-injection shim between the buffer pool and the
/// real DiskManager. All fault decisions come from one xoshiro256**
/// stream guarded by a mutex: the Nth device op always draws the Nth
/// random values, so a schedule is reproducible for a fixed seed and
/// op sequence (single-threaded tests replay bit-for-bit; concurrent
/// tests still get a deterministic *set* of faults per run length).
///
/// The shim never fabricates success: an injected error returns a
/// non-OK Status, and an injected corruption (bit flip, torn write)
/// produces bytes the checksum layer must catch. "Silent escape" in
/// tests means a bit flip that a successful fetch returned without
/// kCorruption.
class FaultInjectingDevice final : public PageDevice {
 public:
  explicit FaultInjectingDevice(PageDevice* base)
      : base_(base), rng_(0) {}

  /// Installs a new plan and rewinds the schedule to op 0 with the
  /// plan's seed. Not thread-safe against in-flight ops; swap plans
  /// only between query batches.
  void set_plan(const FaultPlan& plan);
  const FaultPlan& plan() const { return plan_; }

  FaultStats& stats() { return stats_; }
  void ResetStats();

  uint32_t page_size() const override { return base_->page_size(); }
  PageId num_pages() const override { return base_->num_pages(); }
  Result<PageId> AllocatePage() override;
  Status ReadPage(PageId id, uint8_t* out) override;
  Status ReadPages(PageId first, uint32_t n, uint8_t* out) override;
  Status WritePage(PageId id, const uint8_t* data) override;

 private:
  /// One decision per op class, drawn under the schedule lock.
  enum class Fault : uint8_t {
    kNone,
    kReadError,
    kReadTransient,
    kShortRead,
    kBitFlip,
    kWriteError,
    kTornWrite,
    kLatencySpike,
  };

  /// Draws the next scheduled fault for a read (`is_read`) or write
  /// op; advances the op counter either way. `detail` receives the
  /// draw used to pick the victim bit/offset so corruption placement
  /// is deterministic too.
  Fault NextFault(bool is_read, uint64_t* detail);

  PageDevice* base_;
  /// Written only by set_plan between query batches (see its contract)
  /// and read concurrently by the op paths; deliberately not guarded —
  /// guarding it here would serialize every fault draw against plan
  /// reads that are immutable while ops are in flight.
  FaultPlan plan_;
  FaultStats stats_;
  /// Guards the deterministic schedule: the rng stream and op counter
  /// must advance together so the Nth op always draws the Nth values.
  Mutex mu_;
  Rng rng_ DM_GUARDED_BY(mu_);
  uint64_t op_index_ DM_GUARDED_BY(mu_) = 0;
};

}  // namespace dm

#endif  // DIRECTMESH_STORAGE_FAULT_ENV_H_
