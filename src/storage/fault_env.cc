#include "storage/fault_env.h"

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/check.h"

namespace dm {

void FaultInjectingDevice::set_plan(const FaultPlan& plan) {
  MutexLock lock(mu_);
  plan_ = plan;
  rng_.Seed(plan.seed);
  op_index_ = 0;
}

void FaultInjectingDevice::ResetStats() {
  stats_.ops.store(0);
  stats_.read_errors.store(0);
  stats_.read_transients.store(0);
  stats_.short_reads.store(0);
  stats_.bit_flips.store(0);
  stats_.write_errors.store(0);
  stats_.torn_writes.store(0);
  stats_.latency_spikes.store(0);
}

FaultInjectingDevice::Fault FaultInjectingDevice::NextFault(
    bool is_read, uint64_t* detail) {
  MutexLock lock(mu_);
  const uint64_t op = op_index_++;
  stats_.ops.fetch_add(1, std::memory_order_relaxed);
  // Always draw the same two values per op so the schedule depends
  // only on (seed, op index), not on which faults earlier ops hit.
  const double roll = rng_.NextDouble();
  *detail = rng_.Next();
  if (!plan_.AnyFaults() || op < plan_.trigger_after_n) return Fault::kNone;

  // Stack the rates into one cumulative ladder per op class; a single
  // roll picks at most one fault, so rates compose predictably.
  double acc = 0.0;
  if (is_read) {
    if (roll < (acc += plan_.read_error_rate)) return Fault::kReadError;
    if (roll < (acc += plan_.read_transient_rate)) {
      return Fault::kReadTransient;
    }
    if (roll < (acc += plan_.short_read_rate)) return Fault::kShortRead;
    if (roll < (acc += plan_.bit_flip_rate)) return Fault::kBitFlip;
  } else {
    if (roll < (acc += plan_.write_error_rate)) return Fault::kWriteError;
    if (roll < (acc += plan_.torn_write_rate)) return Fault::kTornWrite;
  }
  if (roll < acc + plan_.latency_spike_rate) return Fault::kLatencySpike;
  return Fault::kNone;
}

Result<PageId> FaultInjectingDevice::AllocatePage() {
  uint64_t detail = 0;
  const Fault fault = NextFault(/*is_read=*/false, &detail);
  switch (fault) {
    case Fault::kWriteError:
      stats_.write_errors.fetch_add(1, std::memory_order_relaxed);
      return Status::IOError("injected EIO extending file");
    case Fault::kLatencySpike:
      stats_.latency_spikes.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::microseconds(plan_.latency_spike_micros));
      break;
    default:
      break;  // torn writes do not apply to zero-extension
  }
  return base_->AllocatePage();
}

Status FaultInjectingDevice::ReadPage(PageId id, uint8_t* out) {
  return ReadPages(id, 1, out);
}

Status FaultInjectingDevice::ReadPages(PageId first, uint32_t n,
                                       uint8_t* out) {
  if (n == 0) return base_->ReadPages(first, n, out);
  uint64_t detail = 0;
  const Fault fault = NextFault(/*is_read=*/true, &detail);
  const uint32_t page_size = base_->page_size();
  // The victim page within the run (for multi-page reads the fault
  // hits one page, like a single bad sector under a large pread).
  const uint32_t victim = static_cast<uint32_t>(detail % n);
  switch (fault) {
    case Fault::kReadError:
      stats_.read_errors.fetch_add(1, std::memory_order_relaxed);
      return Status::IOError("injected EIO reading page " +
                             std::to_string(first + victim));
    case Fault::kReadTransient:
      stats_.read_transients.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("injected EINTR storm reading page " +
                                 std::to_string(first + victim));
    case Fault::kShortRead: {
      stats_.short_reads.fetch_add(1, std::memory_order_relaxed);
      // Transfer everything before the victim, half the victim page,
      // nothing after — what a pread hitting a bad sector returns.
      DM_RETURN_NOT_OK(base_->ReadPages(first, victim, out));
      std::memset(out + static_cast<size_t>(victim) * page_size, 0,
                  static_cast<size_t>(n - victim) * page_size);
      std::vector<uint8_t> whole(page_size);
      DM_RETURN_NOT_OK(base_->ReadPage(first + victim, whole.data()));
      std::memcpy(out + static_cast<size_t>(victim) * page_size,
                  whole.data(), page_size / 2);
      return Status::IOError("injected short read of page " +
                             std::to_string(first + victim));
    }
    case Fault::kBitFlip: {
      stats_.bit_flips.fetch_add(1, std::memory_order_relaxed);
      DM_RETURN_NOT_OK(base_->ReadPages(first, n, out));
      const uint64_t bit =
          (detail >> 8) % (static_cast<uint64_t>(page_size) * 8);
      uint8_t* page = out + static_cast<size_t>(victim) * page_size;
      page[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      return Status::OK();  // silent on the wire; CRC must catch it
    }
    case Fault::kLatencySpike:
      stats_.latency_spikes.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::microseconds(plan_.latency_spike_micros));
      break;
    default:
      break;
  }
  return base_->ReadPages(first, n, out);
}

Status FaultInjectingDevice::WritePage(PageId id, const uint8_t* data) {
  uint64_t detail = 0;
  const Fault fault = NextFault(/*is_read=*/false, &detail);
  switch (fault) {
    case Fault::kWriteError:
      stats_.write_errors.fetch_add(1, std::memory_order_relaxed);
      return Status::IOError("injected EIO writing page " +
                             std::to_string(id));
    case Fault::kTornWrite: {
      stats_.torn_writes.fetch_add(1, std::memory_order_relaxed);
      // First half of the new bytes land, the rest keeps whatever the
      // page held before — the on-platter state after a mid-write
      // crash. The caller is told the write failed.
      const uint32_t page_size = base_->page_size();
      std::vector<uint8_t> torn(page_size);
      DM_RETURN_NOT_OK(base_->ReadPage(id, torn.data()));
      std::memcpy(torn.data(), data, page_size / 2);
      DM_RETURN_NOT_OK(base_->WritePage(id, torn.data()));
      return Status::IOError("injected torn write of page " +
                             std::to_string(id));
    }
    case Fault::kLatencySpike:
      stats_.latency_spikes.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::microseconds(plan_.latency_spike_micros));
      break;
    default:
      break;
  }
  return base_->WritePage(id, data);
}

}  // namespace dm
