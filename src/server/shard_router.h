#ifndef DIRECTMESH_SERVER_SHARD_ROUTER_H_
#define DIRECTMESH_SERVER_SHARD_ROUTER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "dm/cost_model.h"
#include "dm/node_source.h"
#include "server/shard_set.h"

namespace dm {

/// Injectable time source: tests drive breaker recovery and hedge
/// timeouts with a manual clock instead of sleeping.
using RouterClock = std::function<std::chrono::steady_clock::time_point()>;

struct CircuitBreakerOptions {
  /// Rolling outcome window per replica.
  int window = 16;
  /// No tripping before this many samples are in the window.
  int min_samples = 4;
  /// Failure fraction over the window that trips the breaker.
  double error_threshold = 0.5;
  /// Open hold time before one half-open probe is admitted.
  int64_t open_millis = 200;
};

/// Per-replica error breaker: closed -> open (error rate over a rolling
/// window) -> half-open (one probe after `open_millis`) -> closed on a
/// probe success, back to open on a probe failure.
///
/// Deliberately an *error* breaker: hedge trips (slow reads) never feed
/// it — slowness is the hedging policy's problem — so its transition
/// counts stay deterministic for a fixed fault schedule even when I/O
/// latency is not.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker(const CircuitBreakerOptions& options, RouterClock clock)
      : options_(options), clock_(std::move(clock)) {}

  /// May this replica be attempted? Transitions open -> half-open once
  /// the hold time has elapsed; half-open admits exactly one in-flight
  /// probe.
  bool Allow();
  void RecordSuccess();
  void RecordFailure();

  State state() const;
  /// Cumulative closed/half-open -> open transitions.
  int64_t opens() const;

 private:
  void TripLocked() DM_REQUIRES(mu_);
  void PushOutcomeLocked(bool ok) DM_REQUIRES(mu_);

  const CircuitBreakerOptions options_;
  const RouterClock clock_;
  mutable Mutex mu_;
  State state_ DM_GUARDED_BY(mu_) = State::kClosed;
  std::vector<bool> ring_ DM_GUARDED_BY(mu_);
  size_t next_ DM_GUARDED_BY(mu_) = 0;
  size_t count_ DM_GUARDED_BY(mu_) = 0;
  size_t failures_ DM_GUARDED_BY(mu_) = 0;
  bool probe_inflight_ DM_GUARDED_BY(mu_) = false;
  std::chrono::steady_clock::time_point opened_at_ DM_GUARDED_BY(mu_);
  int64_t opens_ DM_GUARDED_BY(mu_) = 0;
};

/// Rolling window of recent attempt latencies; P95 drives the adaptive
/// hedge timeout. Until the window has samples it reports
/// `default_millis` so cold replicas are not hedged on a zero estimate.
class LatencyTracker {
 public:
  explicit LatencyTracker(size_t window = 64, double default_millis = 20.0)
      : default_millis_(default_millis) {
    ring_.resize(window, 0.0);
  }

  void Record(double millis);
  double P95Millis() const;

 private:
  mutable Mutex mu_;
  std::vector<double> ring_ DM_GUARDED_BY(mu_);
  size_t next_ DM_GUARDED_BY(mu_) = 0;
  size_t count_ DM_GUARDED_BY(mu_) = 0;
  const double default_millis_;
};

/// Global retry budget: secondary attempts (hedges and failovers) may
/// not exceed `burst + ratio * first_attempts`, so a mass outage cannot
/// amplify load by the replica count.
class RetryBudget {
 public:
  RetryBudget(double ratio, int64_t burst) : ratio_(ratio), burst_(burst) {}

  /// A first (non-retry) attempt: grows the budget.
  void NoteAttempt() { attempts_.fetch_add(1, std::memory_order_relaxed); }
  /// Try to spend one retry/hedge attempt.
  bool TryAcquire();

  int64_t spent() const { return spent_.load(std::memory_order_relaxed); }

 private:
  const double ratio_;
  const int64_t burst_;
  std::atomic<int64_t> attempts_{0};
  std::atomic<int64_t> spent_{0};
};

struct ShardRouterOptions {
  CircuitBreakerOptions breaker;
  /// Hedge timeout = clamp(hedge_factor * p95, min, max), applied to an
  /// attempt only when a fallback replica exists.
  double hedge_factor = 3.0;
  int64_t hedge_min_millis = 5;
  int64_t hedge_max_millis = 200;
  double retry_ratio = 0.1;
  int64_t retry_burst = 8;
  size_t latency_window = 64;
  double default_latency_millis = 20.0;
  /// Defaults to std::chrono::steady_clock::now.
  RouterClock clock;
};

/// Monotonic router counters; snapshot for reporting.
struct RouterCounters {
  int64_t fanouts = 0;     // FetchBox calls
  int64_t attempts = 0;    // replica fetch attempts issued
  int64_t hedges = 0;      // attempts abandoned at the hedge timeout
  int64_t failovers = 0;   // attempts that failed (error/corrupt) and moved on
  int64_t breaker_opens = 0;
  int64_t breaker_short_circuits = 0;  // replicas skipped while open
  int64_t budget_denied = 0;           // retries refused by the budget
  int64_t shards_missed = 0;           // shard fetches with zero contribution
  int64_t degraded_merges = 0;         // shard fetches settled on a lossy result
};

/// Fans a box fetch out over the shards whose MBRs intersect it and
/// merges per-shard results into one delivery stream (DESIGN.md §16).
///
/// Per shard it walks the replicas in rotation order under a
/// per-replica circuit breaker, hedging an attempt after an adaptive
/// p95-based timeout when a sibling exists, spending the global retry
/// budget on every secondary attempt, and falling back to the least
/// lossy degraded result — or counting the whole region as missed —
/// when no replica yields a clean read. The clean path delivers exactly
/// the union of per-shard range queries, which equals the single-store
/// result set (see ShardSet), so downstream refinement is byte-identical.
///
/// Thread-safe: all mutable state is the breakers/latency windows
/// (mutex'd), the retry budget and counters (atomics), and the replica
/// stores' own thread-safe read paths.
class ShardRouter final : public DmDataSource {
 public:
  ShardRouter(ShardSet* shards, const ShardRouterOptions& options = {});

  Status FetchBox(const Box& box, bool allow_degraded, TimePoint deadline,
                  NodeSink* sink, BoxFetchStats* stats) override;
  IoStats io_stats() const override;
  CostModelInputs cost_inputs() const override;

  RouterCounters counters() const;
  CircuitBreaker& breaker(int s, int r) {
    return *runtime_[IdxOf(s, r)].breaker;
  }
  int64_t inflight(int s, int r) const {
    return runtime_[IdxOf(s, r)].inflight.load(std::memory_order_acquire);
  }

  /// Graceful drain: stop routing new attempts to (s, r), wait for
  /// in-flight ones to finish, then mark it down.
  Status Drain(int s, int r);

 private:
  struct ReplicaRuntime {
    std::unique_ptr<CircuitBreaker> breaker;
    std::unique_ptr<LatencyTracker> latency;
    std::atomic<int64_t> inflight{0};
  };

  size_t IdxOf(int s, int r) const {
    return static_cast<size_t>(s) * static_cast<size_t>(replicas_) +
           static_cast<size_t>(r);
  }
  Status FetchShard(int s, const Box& box, bool allow_degraded,
                    TimePoint deadline, NodeSink* sink, BoxFetchStats* stats);

  ShardSet* shards_;
  ShardRouterOptions options_;
  RouterClock clock_;
  int replicas_ = 0;
  std::vector<ReplicaRuntime> runtime_;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> shard_rr_;
  RetryBudget budget_;

  std::atomic<int64_t> fanouts_{0};
  std::atomic<int64_t> attempts_{0};
  std::atomic<int64_t> hedges_{0};
  std::atomic<int64_t> failovers_{0};
  std::atomic<int64_t> breaker_short_circuits_{0};
  std::atomic<int64_t> budget_denied_{0};
  std::atomic<int64_t> shards_missed_{0};
  std::atomic<int64_t> degraded_merges_{0};

  /// Merged catalog for the multi-base optimizer: concatenated
  /// per-shard node extents (the cost model sums over nodes, so a
  /// forest of K trees is the sum of its parts), merged segment
  /// sample, global data space.
  std::vector<RTreeNodeExtent> merged_extents_;
  CostModelInputs merged_inputs_;
  /// Pointwise max of the shards' parent-reach tables; empty (no
  /// bounded fetch) when any shard lacks one.
  ReachTable merged_reach_;
};

}  // namespace dm

#endif  // DIRECTMESH_SERVER_SHARD_ROUTER_H_
