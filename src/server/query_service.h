#ifndef DIRECTMESH_SERVER_QUERY_SERVICE_H_
#define DIRECTMESH_SERVER_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "dm/dm_query.h"

namespace dm {

/// One query job for the serving pool: exactly one of the paper's
/// query kinds, selected by `kind`.
struct QueryRequest {
  enum class Kind { kUniform, kView, kPerspective };
  Kind kind = Kind::kView;
  // kUniform: Q(M, roi, e).
  Rect roi;
  double e = 0.0;
  // kView: single- or multi-base viewpoint-dependent query.
  ViewQuery view;
  bool multi_base = false;
  // kPerspective: viewer-driven radial LOD field.
  PerspectiveQuery perspective;
  /// End-to-end deadline measured from Submit (0 = none). Covers queue
  /// wait AND execution: a job whose deadline expired while queued is
  /// shed without executing; one dequeued with time left carries the
  /// remainder into the processor, which bounds every blocking I/O
  /// wait underneath (router attempts, page reads and their retries).
  double deadline_millis = 0.0;
};

/// Where one query's latency went: time spent waiting in the bounded
/// queue vs time executing on a worker. Queue wait dominating under
/// load means the pool is saturated (add workers); execution
/// dominating means per-query cost is the bottleneck (cache/arena).
struct QueryTiming {
  double queue_millis = 0.0;  // Submit -> dequeued by a worker
  double exec_millis = 0.0;   // dequeued -> result ready
};

/// Completion callback; runs on a worker thread.
using QueryCallback =
    std::function<void(const Result<DmQueryResult>&, const QueryTiming&)>;

struct QueryServiceOptions {
  /// Fixed worker count (each worker owns one DmQueryProcessor).
  int num_threads = 4;
  /// Bounded queue depth; Submit blocks when the queue is full
  /// (condition-variable backpressure instead of unbounded growth).
  size_t queue_capacity = 64;
  /// Overload shedding: a job that already waited in the queue longer
  /// than this budget is dropped at dequeue with Status::Unavailable
  /// instead of executing — under saturation the pool sheds the
  /// queries it can no longer serve in time rather than serving all
  /// of them late. 0 disables shedding.
  double max_queue_wait_millis = 0.0;
  /// Per-worker query-processor knobs (arena, degraded mode, deadline).
  DmQueryOptions query;
};

/// Failure-handling counters of a QueryService, either one worker's or
/// the pool-wide sum (DESIGN.md §11).
struct ServiceHealth {
  /// Queries that failed with a non-load status (I/O error after
  /// retries, corruption, bad arguments) — a bug or a bad disk, not
  /// pressure.
  int64_t errors = 0;
  /// Queries that failed under load: Status::Unavailable (transient
  /// not absorbed by retries) or Status::ResourceExhausted (all
  /// buffer-pool frames pinned). Retry-after-backoff territory.
  int64_t sheddable = 0;
  /// Queries dropped at dequeue because their queue wait exceeded
  /// `max_queue_wait_millis` (never executed).
  int64_t shed = 0;
  /// Queries that completed with health.degraded set: a legal mesh,
  /// coarser or sparser than a healthy run's.
  int64_t degraded = 0;
};

/// Runs one request on `proc`: the entry point its kind selects
/// (ViewpointIndependent, SingleBase or MultiBase, Perspective).
Result<DmQueryResult> ExecuteRequest(DmQueryProcessor* proc,
                                     const QueryRequest& request);

/// Fixed-size worker pool serving DM queries against one shared data
/// source (a store is immutable after Open; all mutable state lives in
/// the thread-safe sharded buffer pool). Producers Submit jobs into a
/// bounded MPMC queue; each worker runs its own DmQueryProcessor, so
/// query CPU (refinement + triangulation) and shard-local page I/O
/// overlap across clients.
///
/// Note on per-query stats under concurrency: `disk_accesses` /
/// `index_io` are deltas of the pool's global counters, so with
/// overlapping queries they attribute other workers' reads to this
/// query. Geometry (vertices/positions/triangles) is exact and
/// byte-identical to a serial run; aggregate disk reads are exact at
/// the DbEnv level.
class QueryService {
 public:
  /// Serves from any data source — a single store (DmStoreSource) or
  /// a ShardRouter fanning queries over replicated shards. Each
  /// worker's processor shares the source (sources are stateless per
  /// query).
  explicit QueryService(DmDataSource* source,
                        const QueryServiceOptions& options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues a query, blocking while the queue is at capacity.
  /// `done` runs on a worker thread once the query completes (it must
  /// be its own synchronization domain). Returns false after
  /// Shutdown().
  bool Submit(QueryRequest request, QueryCallback done);

  /// Blocks until every submitted job has completed.
  void Drain();

  /// Drains outstanding jobs, then stops and joins the workers.
  /// Idempotent; called by the destructor.
  void Shutdown();

  int num_threads() const { return options_.num_threads; }
  int64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

  /// One worker's failure counters (worker in [0, num_threads)).
  ServiceHealth worker_health(int worker) const;
  /// Pool-wide sum over all workers.
  ServiceHealth health() const;

 private:
  struct Job {
    QueryRequest request;
    QueryCallback done;
    std::chrono::steady_clock::time_point submitted;
  };

  /// Per-worker counters; each slot is written only by its worker, and
  /// read (relaxed) by health() — totals are exact once the pool is
  /// drained.
  struct WorkerCounters {
    std::atomic<int64_t> errors{0};
    std::atomic<int64_t> sheddable{0};
    std::atomic<int64_t> shed{0};
    std::atomic<int64_t> degraded{0};
  };

  void WorkerLoop(int worker);

  DmDataSource* source_ = nullptr;
  QueryServiceOptions options_;
  /// Sized once in the constructor, never resized (atomics pin it).
  std::vector<WorkerCounters> counters_;
  std::vector<std::thread> workers_;

  mutable Mutex mu_;
  CondVar not_empty_;  // workers wait for jobs
  CondVar not_full_;   // producers wait for space
  CondVar idle_;       // Drain waits for quiescence
  std::deque<Job> queue_ DM_GUARDED_BY(mu_);
  // Dequeued but not yet completed.
  size_t in_flight_ DM_GUARDED_BY(mu_) = 0;
  bool stopping_ DM_GUARDED_BY(mu_) = false;

  std::atomic<int64_t> completed_{0};
};

/// A deterministic mixed serving workload over a store's footprint:
/// `persp_pct`% perspective queries, `mb_pct`% of the remaining view
/// queries multi-base, ROIs of `roi_fraction` of the bounds area at
/// seeded random positions, LOD planes spanning up to half the LOD
/// range. Used by the fault and chaos benches, the concurrency tests
/// and `dmctl cache-stats` / `io-stats`. LODs are percentages of
/// `max_lod`: on crater 385² `e_min` (1%) is far above the 0.5%-cut LOD,
/// so the median request returns 0 vertices. It exercises the serving
/// path, not meshing; perfbench picks its LODs from the cut catalog.
std::vector<QueryRequest> MakeMixedWorkload(const Rect& bounds,
                                            double max_lod, int count,
                                            uint64_t seed,
                                            double roi_fraction = 0.02,
                                            int persp_pct = 40,
                                            int mb_pct = 25);

/// Result of one timed throughput run.
struct ThroughputReport {
  int threads = 0;
  int64_t queries = 0;
  double wall_millis = 0.0;
  double qps = 0.0;
  double p50_millis = 0.0;  // per-query latency, submit -> completion
  double p99_millis = 0.0;
  double p999_millis = 0.0;  // tail beyond p99 (queue bursts)
  // End-to-end latency split into queue wait vs execution (QueryTiming)
  // so saturation and per-query cost regress independently.
  double queue_p50_millis = 0.0;
  double queue_p99_millis = 0.0;
  double exec_p50_millis = 0.0;
  double exec_p99_millis = 0.0;
  int64_t disk_reads = 0;  // aggregate over the run (warm cache)
  /// Real failures (errors + sheddable); shed queries are counted
  /// separately — dropping late work under overload is policy, not
  /// failure.
  int64_t failed = 0;
  int64_t shed = 0;
  int64_t degraded = 0;  // completed with a coarser-than-asked mesh
  int64_t io_retries = 0;  // transient I/O absorbed during the run

  std::string ToString() const;
};

/// Replays `workload` through a QueryService with `threads` workers
/// over `source` (a DmStoreSource or a ShardRouter) and reports
/// throughput and latency percentiles. Aggregate I/O comes from the
/// source's pooled counters. The buffer pool is used as the caller
/// left it: flush it first for a cold run. `query` passes through to
/// QueryServiceOptions so fault benches can run degraded-with-deadline
/// mode.
Result<ThroughputReport> RunThroughput(DmDataSource* source,
                                       const std::vector<QueryRequest>& workload,
                                       int threads,
                                       const DmQueryOptions& query = {});

}  // namespace dm

#endif  // DIRECTMESH_SERVER_QUERY_SERVICE_H_
