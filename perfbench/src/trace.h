// Span recording for the traced benchmark run (README.md, "Traced
// run"). Spans are timed from the benchmark's own code around calls
// into each layer's public functions; nothing inside the library is
// instrumented. They are kept in per-thread memory buffers and written
// out once, when the run ends.
#ifndef DIRECTMESH_PERFBENCH_TRACE_H_
#define DIRECTMESH_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "dm/node_source.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One timed interval at a layer boundary. `parent` is the span that
/// caused it (-1 for a request's root span) and `request` the id every
/// span of one query shares (-1 until the span is adopted by one).
struct Span {
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = -1;
  const char* name = "";  // string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Process-wide span store. Recording is off until set_enabled(true),
/// so untimed phases and untraced blocks cost one relaxed load.
class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Nanoseconds since the tracer was created.
  int64_t NowNs() const { return ToNs(Clock::now()); }
  int64_t ToNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Appends a finished span to the calling thread's buffer.
  void Record(const Span& span);

  /// Gives every span this thread recorded since its last Adopt call
  /// that has no request yet to `request`, and parents the ones
  /// without a parent to `parent`. Query workers run one request at a
  /// time, so a completion callback (which runs on the worker that
  /// executed the query) adopts exactly that query's fetch spans.
  void Adopt(int64_t request, int64_t parent);

  /// The calling thread's innermost open ScopedSpan and current request
  /// (both -1 when none).
  static int64_t& CurrentParent();
  static int64_t& CurrentRequest();

  /// Writes every recorded span as tab-separated lines
  /// `id parent request name start_ns end_ns`. Call after all
  /// recording threads have finished.
  dm::Status WriteTsv(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::vector<Span> spans;
    size_t adopted = 0;
  };
  Tracer() : epoch_(Clock::now()) {}
  ThreadBuffer* LocalBuffer();

  const Clock::time_point epoch_;
  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_id_{0};
  mutable dm::Mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ DM_GUARDED_BY(mu_);
};

/// Times the enclosing scope as one span when tracing is on, parented
/// to the thread's innermost open span.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
  Span span_;
  int64_t saved_parent_ = -1;
};

/// Exact per-call layer counters, summed over the traced queries.
struct LayerCounters {
  std::atomic<int64_t> rids{0};
  std::atomic<int64_t> index_disk_reads{0};
  std::atomic<int64_t> heap_disk_reads{0};
  std::atomic<int64_t> cache_hits{0};
  std::atomic<int64_t> cache_misses{0};
};

/// DmDataSource decorator over one DmStore. With tracing off it
/// forwards to the store's own DmStoreSource. With tracing on it
/// composes the public calls DmStoreSource::FetchBox makes — R*-tree
/// RangeQuery, sort, DmStore::FetchNodes — with speculative prefetch
/// off, timing each as its own span (dm_fetch > index, dm_store). The
/// benchmark checks the traced geometry byte-identical to the
/// untraced run's.
class TracedSource final : public dm::DmDataSource {
 public:
  /// `counters` (caller-owned, may be shared by several sources)
  /// receives the traced calls' exact counts.
  TracedSource(dm::DmStore* store, LayerCounters* counters)
      : store_(store), plain_(store), counters_(counters) {}

  dm::Status FetchBox(const dm::Box& box, bool allow_degraded,
                      TimePoint deadline, NodeSink* sink,
                      dm::BoxFetchStats* stats) override;
  dm::IoStats io_stats() const override { return plain_.io_stats(); }
  dm::CostModelInputs cost_inputs() const override {
    return plain_.cost_inputs();
  }

 private:
  dm::DmStore* store_;
  dm::DmStoreSource plain_;
  LayerCounters* counters_;
};

}  // namespace perfbench

#endif  // DIRECTMESH_PERFBENCH_TRACE_H_
