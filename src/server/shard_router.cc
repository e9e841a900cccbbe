#include "server/shard_router.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace dm {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// CircuitBreaker

bool CircuitBreaker::Allow() {
  MutexLock lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (clock_() - opened_at_ >=
          std::chrono::milliseconds(options_.open_millis)) {
        state_ = State::kHalfOpen;
        probe_inflight_ = true;
        return true;
      }
      return false;
    case State::kHalfOpen:
      if (probe_inflight_) return false;
      probe_inflight_ = true;
      return true;
  }
  return false;
}

void CircuitBreaker::RecordSuccess() {
  MutexLock lock(mu_);
  if (state_ == State::kHalfOpen) {
    // Probe succeeded: close with a clean window.
    state_ = State::kClosed;
    probe_inflight_ = false;
    count_ = 0;
    failures_ = 0;
    next_ = 0;
    return;
  }
  PushOutcomeLocked(true);
}

void CircuitBreaker::RecordFailure() {
  MutexLock lock(mu_);
  if (state_ == State::kHalfOpen) {
    // Probe failed: straight back to open for another hold period.
    probe_inflight_ = false;
    TripLocked();
    return;
  }
  if (state_ == State::kOpen) return;  // stale outcome from before the trip
  PushOutcomeLocked(false);
  if (count_ >= static_cast<size_t>(options_.min_samples) &&
      static_cast<double>(failures_) >=
          options_.error_threshold * static_cast<double>(count_)) {
    TripLocked();
  }
}

void CircuitBreaker::TripLocked() {
  state_ = State::kOpen;
  opened_at_ = clock_();
  ++opens_;
  count_ = 0;
  failures_ = 0;
  next_ = 0;
}

void CircuitBreaker::PushOutcomeLocked(bool ok) {
  if (ring_.size() != static_cast<size_t>(options_.window)) {
    ring_.assign(static_cast<size_t>(options_.window), true);
  }
  if (count_ == ring_.size()) {
    if (!ring_[next_]) --failures_;  // evict the oldest outcome
  } else {
    ++count_;
  }
  ring_[next_] = ok;
  if (!ok) ++failures_;
  next_ = (next_ + 1) % ring_.size();
}

CircuitBreaker::State CircuitBreaker::state() const {
  MutexLock lock(mu_);
  return state_;
}

int64_t CircuitBreaker::opens() const {
  MutexLock lock(mu_);
  return opens_;
}

// ---------------------------------------------------------------------------
// LatencyTracker

void LatencyTracker::Record(double millis) {
  MutexLock lock(mu_);
  ring_[next_] = millis;
  next_ = (next_ + 1) % ring_.size();
  if (count_ < ring_.size()) ++count_;
}

double LatencyTracker::P95Millis() const {
  MutexLock lock(mu_);
  if (count_ == 0) return default_millis_;
  std::vector<double> sorted(ring_.begin(),
                             ring_.begin() + static_cast<ptrdiff_t>(count_));
  std::sort(sorted.begin(), sorted.end());
  const size_t idx =
      std::min(count_ - 1, static_cast<size_t>(0.95 * count_));
  return sorted[idx];
}

// ---------------------------------------------------------------------------
// RetryBudget

bool RetryBudget::TryAcquire() {
  const double allowed =
      static_cast<double>(burst_) +
      ratio_ * static_cast<double>(attempts_.load(std::memory_order_relaxed));
  int64_t s = spent_.load(std::memory_order_relaxed);
  while (static_cast<double>(s + 1) <= allowed) {
    if (spent_.compare_exchange_weak(s, s + 1, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// ShardRouter

ShardRouter::ShardRouter(ShardSet* shards, const ShardRouterOptions& options)
    : shards_(shards),
      options_(options),
      clock_(options.clock ? options.clock : [] { return Clock::now(); }),
      replicas_(shards->replicas_per_shard()),
      budget_(options.retry_ratio, options.retry_burst) {
  const int K = shards_->num_shards();
  runtime_ = std::vector<ReplicaRuntime>(
      static_cast<size_t>(K) * static_cast<size_t>(replicas_));
  for (ReplicaRuntime& rt : runtime_) {
    rt.breaker = std::make_unique<CircuitBreaker>(options_.breaker, clock_);
    rt.latency = std::make_unique<LatencyTracker>(
        options_.latency_window, options_.default_latency_millis);
  }
  shard_rr_.reserve(static_cast<size_t>(K));
  for (int s = 0; s < K; ++s) {
    shard_rr_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  }

  // Merged catalog: the Kamel-Faloutsos estimate sums per-node terms,
  // so the K disjoint trees contribute exactly their concatenated
  // extents; data space and record totals are global (every shard meta
  // carries the source bounds).
  bool missing_reach = false;
  CostCatalog::Stats merged;
  for (int s = 0; s < K; ++s) {
    const DmStore& store = *shards_->shard(s).replicas[0]->store;
    const CostCatalog::Stats& shard = store.cost_catalog().stats();
    merged.nodes.insert(merged.nodes.end(), shard.nodes.begin(),
                        shard.nodes.end());
    const CostModelInputs ci = store.cost_inputs();
    if (ci.reach != nullptr) {
      merged_reach_ = MergeReachTables(merged_reach_, *ci.reach);
    } else {
      missing_reach = true;
    }
    merged.segment_sample.insert(merged.segment_sample.end(),
                                 shard.segment_sample.begin(),
                                 shard.segment_sample.end());
    if (s == 0) {
      merged.data_space = shard.data_space;
      merged.records_per_page = shard.records_per_page;
    }
  }
  // Thin the merged segment sample back to the single-store cap so the
  // catalog stays the size of one store's.
  constexpr size_t kMaxSample = 8192;
  if (merged.segment_sample.size() > kMaxSample) {
    std::vector<std::pair<double, double>> thinned;
    thinned.reserve(kMaxSample);
    const size_t n = merged.segment_sample.size();
    for (size_t i = 0; i < kMaxSample; ++i) {
      thinned.push_back(merged.segment_sample[i * n / kMaxSample]);
    }
    merged.segment_sample = std::move(thinned);
  }
  merged.e_map = EAxisMap::FromNodeExtents(merged.nodes);
  merged.total_records = shards_->source_meta().num_nodes;
  merged_catalog_ = std::make_shared<const CostCatalog>(std::move(merged));
  // A bound is only valid if it covers every shard's links.
  if (missing_reach) merged_reach_.clear();
}

Status ShardRouter::FetchBox(const Box& box, bool allow_degraded,
                             TimePoint deadline, NodeSink* sink,
                             BoxFetchStats* stats) {
  fanouts_.fetch_add(1, std::memory_order_relaxed);
  const int K = shards_->num_shards();
  for (int s = 0; s < K; ++s) {
    if (!shards_->shard(s).mbr.Intersects(box)) continue;
    if (deadline != kNoDeadline && clock_() >= deadline) {
      // Out of time before this region was even attempted.
      if (!allow_degraded) {
        return Status::DeadlineExceeded(
            "fetch deadline expired before shard " + std::to_string(s));
      }
      ++stats->shards_missed;
      shards_missed_.fetch_add(1, std::memory_order_relaxed);
      stats->deadline_hit = true;
      continue;
    }
    DM_RETURN_NOT_OK(
        FetchShard(s, box, allow_degraded, deadline, sink, stats));
  }
  return Status::OK();
}

Status ShardRouter::FetchShard(int s, const Box& box, bool allow_degraded,
                               TimePoint deadline, NodeSink* sink,
                               BoxFetchStats* stats) {
  ShardSet::Shard& shard = shards_->shard(s);
  const uint64_t start =
      shard_rr_[static_cast<size_t>(s)]->fetch_add(1,
                                                   std::memory_order_relaxed);
  budget_.NoteAttempt();

  BoxFetchStats best;  // least lossy degraded outcome so far
  bool have_degraded = false;
  bool attempted_any = false;
  bool query_deadline_hit = false;
  Status last_error;

  for (int k = 0; k < replicas_; ++k) {
    const int r = static_cast<int>((start + static_cast<uint64_t>(k)) %
                                   static_cast<uint64_t>(replicas_));
    ShardSet::Replica& rep = *shard.replicas[static_cast<size_t>(r)];
    ReplicaRuntime& rt = runtime_[IdxOf(s, r)];
    if (rep.admin_state() != ReplicaState::kUp) continue;
    if (!rt.breaker->Allow()) {
      breaker_short_circuits_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (attempted_any && !budget_.TryAcquire()) {
      budget_denied_.fetch_add(1, std::memory_order_relaxed);
      break;
    }

    // Hedge: shorten this attempt's deadline when a sibling could take
    // over, so one slow replica costs a timeout, not the whole budget.
    TimePoint attempt_deadline = deadline;
    bool fallback_exists = false;
    for (int j = k + 1; j < replicas_ && !fallback_exists; ++j) {
      const int rj = static_cast<int>((start + static_cast<uint64_t>(j)) %
                                      static_cast<uint64_t>(replicas_));
      fallback_exists =
          shard.replicas[static_cast<size_t>(rj)]->admin_state() ==
          ReplicaState::kUp;
    }
    if (fallback_exists) {
      const double p95 = rt.latency->P95Millis();
      const int64_t hedge_ms = std::clamp(
          static_cast<int64_t>(options_.hedge_factor * p95),
          options_.hedge_min_millis, options_.hedge_max_millis);
      const TimePoint hedged =
          clock_() + std::chrono::milliseconds(hedge_ms);
      if (hedged < attempt_deadline) attempt_deadline = hedged;
    }

    attempts_.fetch_add(1, std::memory_order_relaxed);
    rt.inflight.fetch_add(1, std::memory_order_acq_rel);
    const Clock::time_point t0 = clock_();
    BoxFetchStats sub;
    const Status st =
        rep.source->FetchBox(box, allow_degraded, attempt_deadline, sink, &sub);
    const Clock::time_point t1 = clock_();
    rt.inflight.fetch_sub(1, std::memory_order_acq_rel);
    attempted_any = true;

    // I/O effort counters accumulate across attempts (the work really
    // happened); loss counters are settled once the shard's outcome is.
    stats->range_queries += sub.range_queries;
    stats->index_io += sub.index_io;
    stats->nodes_fetched += sub.nodes_fetched;
    stats->cache_hits += sub.cache_hits;
    stats->cache_misses += sub.cache_misses;

    const bool clean = st.ok() && sub.records_failed == 0 &&
                       sub.shards_missed == 0 && !sub.deadline_hit;
    if (clean) {
      rt.breaker->RecordSuccess();
      rt.latency->Record(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      return Status::OK();
    }

    const bool deadline_related =
        (!st.ok() && st.code() == StatusCode::kDeadlineExceeded) ||
        sub.deadline_hit;
    if (deadline_related) {
      if (deadline == kNoDeadline || clock_() < deadline) {
        // The *hedge* timeout tripped, not the query's: abandon this
        // attempt and let a sibling take over. Slowness never feeds
        // the error breaker.
        hedges_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // The query's own deadline expired mid-attempt. Keep whatever
      // this attempt salvaged and stop retrying.
      query_deadline_hit = true;
      if (st.ok()) {
        if (!have_degraded || sub.records_failed < best.records_failed) {
          best = sub;
        }
        have_degraded = true;
      } else {
        last_error = st;
      }
      break;
    }

    if (!st.ok()) {
      rt.breaker->RecordFailure();
      failovers_.fetch_add(1, std::memory_order_relaxed);
      last_error = st;
      continue;
    }

    // OK but lossy (unreadable pages): real replica damage. Remember
    // the least lossy outcome and fail over hoping for a clean read.
    rt.breaker->RecordFailure();
    failovers_.fetch_add(1, std::memory_order_relaxed);
    if (!have_degraded || sub.records_failed < best.records_failed) {
      best = sub;
    }
    have_degraded = true;
  }

  if (query_deadline_hit && !allow_degraded) {
    return Status::DeadlineExceeded("fetch deadline expired in shard " +
                                    std::to_string(s));
  }
  if (have_degraded && allow_degraded) {
    stats->records_failed += best.records_failed;
    stats->pages_failed += best.pages_failed;
    stats->shards_missed += best.shards_missed;
    if (best.deadline_hit || query_deadline_hit) stats->deadline_hit = true;
    degraded_merges_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  if (allow_degraded) {
    // Every replica was down, short-circuited, failing, or out of
    // time: the whole region is missing from this cut.
    ++stats->shards_missed;
    shards_missed_.fetch_add(1, std::memory_order_relaxed);
    if (query_deadline_hit) stats->deadline_hit = true;
    return Status::OK();
  }
  if (!last_error.ok()) return last_error;
  return Status::Unavailable("shard " + std::to_string(s) +
                             ": no replica available");
}

IoStats ShardRouter::io_stats() const {
  IoStats sum;
  const int K = shards_->num_shards();
  for (int s = 0; s < K; ++s) {
    for (const auto& rep : shards_->shard(s).replicas) {
      const IoStats st = rep->env->stats();
      sum.logical_fetches += st.logical_fetches;
      sum.disk_reads += st.disk_reads;
      sum.disk_writes += st.disk_writes;
      sum.evictions += st.evictions;
      sum.io_retries += st.io_retries;
      sum.corrupt_pages += st.corrupt_pages;
      sum.fetch_runs += st.fetch_runs;
      sum.fetch_run_pages += st.fetch_run_pages;
      for (int b = 0; b < IoStats::kRunBuckets; ++b) {
        sum.run_length_hist[b] += st.run_length_hist[b];
      }
    }
  }
  return sum;
}

CostModelInputs ShardRouter::cost_inputs() const {
  return {merged_catalog_, merged_reach_.empty() ? nullptr : &merged_reach_};
}

RouterCounters ShardRouter::counters() const {
  RouterCounters c;
  c.fanouts = fanouts_.load(std::memory_order_relaxed);
  c.attempts = attempts_.load(std::memory_order_relaxed);
  c.hedges = hedges_.load(std::memory_order_relaxed);
  c.failovers = failovers_.load(std::memory_order_relaxed);
  c.breaker_short_circuits =
      breaker_short_circuits_.load(std::memory_order_relaxed);
  c.budget_denied = budget_denied_.load(std::memory_order_relaxed);
  c.shards_missed = shards_missed_.load(std::memory_order_relaxed);
  c.degraded_merges = degraded_merges_.load(std::memory_order_relaxed);
  for (const ReplicaRuntime& rt : runtime_) {
    c.breaker_opens += rt.breaker->opens();
  }
  return c;
}

Status ShardRouter::Drain(int s, int r) {
  shards_->set_replica_state(s, r, ReplicaState::kDraining);
  const ReplicaRuntime& rt = runtime_[IdxOf(s, r)];
  while (rt.inflight.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  shards_->set_replica_state(s, r, ReplicaState::kDown);
  return Status::OK();
}

}  // namespace dm
