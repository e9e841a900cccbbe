#ifndef DIRECTMESH_STORAGE_IO_DEADLINE_H_
#define DIRECTMESH_STORAGE_IO_DEADLINE_H_

#include <algorithm>
#include <chrono>

namespace dm {

/// Thread-local absolute I/O deadline (DESIGN.md §16).
///
/// The query layer arms a deadline before descending into storage;
/// every blocking storage wait — the retry loop in
/// BufferPool::ReadWithRetry and each read BufferPool::FetchRuns
/// issues or re-issues — polls it and gives up with kDeadlineExceeded
/// instead of holding a worker past its budget. Thread-local rather
/// than threaded through every signature because the deadline crosses
/// *seven* layers (router → processor → store → heap → pool → async
/// backend → device) of which only the two endpoints care.
///
/// The value is an absolute steady_clock time_point; `time_point::max()`
/// means "unarmed". Nesting takes the minimum of the outer and inner
/// deadlines, so a hedged attempt's short per-attempt budget can only
/// tighten the query's end-to-end deadline, never extend it.
class IoDeadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// The unarmed sentinel.
  static constexpr Clock::time_point kNone = Clock::time_point::max();

  /// The deadline currently armed on this thread (kNone if none).
  static Clock::time_point current() { return tls(); }

  static bool armed() { return tls() != kNone; }

  /// True when a deadline is armed and already in the past. The hot
  /// paths call this once per blocking operation — one thread-local
  /// load plus (when armed) one clock read.
  static bool Expired() {
    const Clock::time_point d = tls();
    return d != kNone && Clock::now() >= d;
  }

 private:
  friend class ScopedIoDeadline;

  static Clock::time_point& tls() {
    thread_local Clock::time_point deadline = kNone;
    return deadline;
  }
};

/// RAII guard arming a deadline for the current scope. Nested guards
/// tighten (min of outer and inner); the destructor restores the outer
/// deadline exactly, so the guard is safe around recursive fetches.
class ScopedIoDeadline {
 public:
  explicit ScopedIoDeadline(IoDeadline::Clock::time_point deadline)
      : saved_(IoDeadline::tls()) {
    IoDeadline::tls() = std::min(saved_, deadline);
  }
  ~ScopedIoDeadline() { IoDeadline::tls() = saved_; }

  ScopedIoDeadline(const ScopedIoDeadline&) = delete;
  ScopedIoDeadline& operator=(const ScopedIoDeadline&) = delete;

 private:
  IoDeadline::Clock::time_point saved_;
};

}  // namespace dm

#endif  // DIRECTMESH_STORAGE_IO_DEADLINE_H_
