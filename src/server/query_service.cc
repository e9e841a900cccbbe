#include "server/query_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>

#include "common/check.h"
#include "common/rng.h"

namespace dm {

QueryService::QueryService(DmStore* store, const QueryServiceOptions& options)
    : store_(store), options_(options) {
  DM_CHECK(store_ != nullptr) << "QueryService needs a store";
  options_.num_threads = std::max(1, options_.num_threads);
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
  counters_ = std::vector<WorkerCounters>(
      static_cast<size_t>(options_.num_threads));
  workers_.reserve(static_cast<size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

QueryService::QueryService(DmDataSource* source,
                           const QueryServiceOptions& options)
    : source_(source), options_(options) {
  DM_CHECK(source_ != nullptr) << "QueryService needs a source";
  options_.num_threads = std::max(1, options_.num_threads);
  options_.queue_capacity = std::max<size_t>(1, options_.queue_capacity);
  counters_ = std::vector<WorkerCounters>(
      static_cast<size_t>(options_.num_threads));
  workers_.reserve(static_cast<size_t>(options_.num_threads));
  for (int i = 0; i < options_.num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ServiceHealth QueryService::worker_health(int worker) const {
  DM_CHECK(worker >= 0 &&
           worker < static_cast<int>(counters_.size()))
      << "worker index out of range";
  const WorkerCounters& c = counters_[static_cast<size_t>(worker)];
  ServiceHealth h;
  h.errors = c.errors.load(std::memory_order_relaxed);
  h.sheddable = c.sheddable.load(std::memory_order_relaxed);
  h.shed = c.shed.load(std::memory_order_relaxed);
  h.degraded = c.degraded.load(std::memory_order_relaxed);
  return h;
}

ServiceHealth QueryService::health() const {
  ServiceHealth total;
  for (int i = 0; i < static_cast<int>(counters_.size()); ++i) {
    const ServiceHealth h = worker_health(i);
    total.errors += h.errors;
    total.sheddable += h.sheddable;
    total.shed += h.shed;
    total.degraded += h.degraded;
  }
  return total;
}

QueryService::~QueryService() { Shutdown(); }

bool QueryService::Submit(QueryRequest request, QueryCallback done) {
  MutexLock lock(mu_);
  while (!stopping_ && queue_.size() >= options_.queue_capacity) {
    not_full_.Wait(mu_);
  }
  if (stopping_) return false;
  queue_.push_back(Job{std::move(request), std::move(done),
                       std::chrono::steady_clock::now()});
  not_empty_.NotifyOne();
  return true;
}

void QueryService::Drain() {
  MutexLock lock(mu_);
  while (!queue_.empty() || in_flight_ != 0) {
    idle_.Wait(mu_);
  }
}

void QueryService::Shutdown() {
  {
    MutexLock lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
    // Workers drain the remaining queue before exiting; producers
    // blocked in Submit give up.
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void QueryService::WorkerLoop(int worker) {
  // One processor per worker: the processor owns per-query scratch
  // (its arena), so giving each worker its own keeps every per-query
  // allocation thread-local.
  std::optional<DmQueryProcessor> proc_storage;
  if (store_ != nullptr) {
    proc_storage.emplace(store_, options_.query);
  } else {
    proc_storage.emplace(source_, options_.query);
  }
  DmQueryProcessor& proc = *proc_storage;
  WorkerCounters& counters = counters_[static_cast<size_t>(worker)];
  for (;;) {
    Job job;
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) {
        not_empty_.Wait(mu_);
      }
      if (queue_.empty()) return;  // stopping, nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      not_full_.NotifyOne();
    }
    const auto dequeued = std::chrono::steady_clock::now();
    QueryTiming timing;
    timing.queue_millis = std::chrono::duration<double, std::milli>(
                              dequeued - job.submitted)
                              .count();
    const bool has_deadline = job.request.deadline_millis > 0;
    const auto job_deadline =
        job.submitted +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(
                job.request.deadline_millis));
    Result<DmQueryResult> result = Status::Internal("unreached");
    if (options_.max_queue_wait_millis > 0 &&
        timing.queue_millis > options_.max_queue_wait_millis) {
      // Overload shed: by the time this job reached a worker it had
      // already blown its wait budget — executing it would only make
      // the queue behind it later still.
      counters.shed.fetch_add(1, std::memory_order_relaxed);
      result = Status::Unavailable(
          "shed: queued " + std::to_string(timing.queue_millis) +
          " ms exceeds the " +
          std::to_string(options_.max_queue_wait_millis) +
          " ms wait budget; retry after backoff");
    } else if (has_deadline && dequeued >= job_deadline) {
      // The client's deadline expired in the queue: executing now
      // could only produce an answer nobody is waiting for.
      counters.shed.fetch_add(1, std::memory_order_relaxed);
      result = Status::DeadlineExceeded(
          "shed: deadline of " +
          std::to_string(job.request.deadline_millis) +
          " ms expired after " + std::to_string(timing.queue_millis) +
          " ms in the queue");
    } else {
      // Deadline propagation: the remaining budget rides into the
      // processor and from there into every I/O wait underneath.
      if (has_deadline) proc.set_deadline(job_deadline);
      result = Execute(&proc, job.request);
      if (has_deadline) proc.clear_deadline();
      if (!result.ok()) {
        const StatusCode code = result.status().code();
        const bool load_failure = code == StatusCode::kUnavailable ||
                                  code == StatusCode::kResourceExhausted ||
                                  code == StatusCode::kDeadlineExceeded;
        (load_failure ? counters.sheddable : counters.errors)
            .fetch_add(1, std::memory_order_relaxed);
      } else if (result.value().health.degraded) {
        counters.degraded.fetch_add(1, std::memory_order_relaxed);
      }
    }
    timing.exec_millis = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - dequeued)
                             .count();
    if (job.done) job.done(result, timing);
    completed_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.NotifyAll();
    }
  }
}

Result<DmQueryResult> QueryService::Execute(DmQueryProcessor* proc,
                                            const QueryRequest& request) const {
  switch (request.kind) {
    case QueryRequest::Kind::kUniform:
      return proc->ViewpointIndependent(request.roi, request.e);
    case QueryRequest::Kind::kView:
      return request.multi_base ? proc->MultiBase(request.view)
                                : proc->SingleBase(request.view);
    case QueryRequest::Kind::kPerspective:
      return proc->Perspective(request.perspective);
  }
  return Status::InvalidArgument("unknown query kind");
}

std::vector<QueryRequest> MakeMixedWorkload(const Rect& bounds, double max_lod,
                                            int count, uint64_t seed,
                                            double roi_fraction, int persp_pct,
                                            int mb_pct) {
  Rng rng(seed);
  const double side = std::sqrt(
      std::max(1e-12, roi_fraction) * std::max(1e-12, bounds.Area()));
  const double lod = std::max(max_lod, 1e-12);
  std::vector<QueryRequest> workload;
  workload.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double x =
        rng.Uniform(bounds.lo_x, std::max(bounds.lo_x, bounds.hi_x - side));
    const double y =
        rng.Uniform(bounds.lo_y, std::max(bounds.lo_y, bounds.hi_y - side));
    const Rect roi = Rect::Of(x, y, std::min(x + side, bounds.hi_x),
                              std::min(y + side, bounds.hi_y));
    QueryRequest req;
    if (static_cast<int>(rng.NextBelow(100)) < persp_pct) {
      req.kind = QueryRequest::Kind::kPerspective;
      req.perspective.roi = roi;
      // Viewer at the center of the near edge, the fig8 convention.
      req.perspective.viewer = Point2{(roi.lo_x + roi.hi_x) / 2, roi.lo_y};
      const double diag =
          std::sqrt(roi.width() * roi.width() + roi.height() * roi.height());
      req.perspective.tolerance =
          (0.2 + 0.5 * rng.NextDouble()) * lod / std::max(diag, 1e-12);
      req.perspective.e_floor = 0.01 * lod;
      req.perspective.e_cap = lod;
    } else {
      req.kind = QueryRequest::Kind::kView;
      req.view.roi = roi;
      req.view.e_min = 0.01 * lod;
      req.view.e_max = (0.1 + 0.4 * rng.NextDouble()) * lod;
      req.view.gradient_along_y = rng.NextBelow(2) == 0;
      req.multi_base = static_cast<int>(rng.NextBelow(100)) < mb_pct;
    }
    workload.push_back(req);
  }
  return workload;
}

std::string ThroughputReport::ToString() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "threads=%d queries=%lld wall=%.1fms qps=%.1f "
                "p50=%.2fms p99=%.2fms p999=%.2fms "
                "queue_p50=%.2fms queue_p99=%.2fms "
                "exec_p50=%.2fms exec_p99=%.2fms "
                "disk_reads=%lld failed=%lld shed=%lld degraded=%lld "
                "io_retries=%lld pf_hits=%lld pf_waste=%lld",
                threads, static_cast<long long>(queries), wall_millis, qps,
                p50_millis, p99_millis, p999_millis, queue_p50_millis,
                queue_p99_millis, exec_p50_millis, exec_p99_millis,
                static_cast<long long>(disk_reads),
                static_cast<long long>(failed), static_cast<long long>(shed),
                static_cast<long long>(degraded),
                static_cast<long long>(io_retries),
                static_cast<long long>(prefetch_hits),
                static_cast<long long>(prefetch_waste));
  return buf;
}

namespace {

double Percentile(std::vector<double> sorted_ascending, double p) {
  if (sorted_ascending.empty()) return 0.0;
  const double rank =
      p * static_cast<double>(sorted_ascending.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted_ascending.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ascending[lo] * (1.0 - frac) + sorted_ascending[hi] * frac;
}

/// Submits `workload`, drains, and fills everything in the report
/// except the I/O deltas (those come from the caller's counters).
void RunWorkload(QueryService& service,
                 const std::vector<QueryRequest>& workload, int threads,
                 ThroughputReport* report) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> latencies(workload.size(), 0.0);
  std::vector<double> queue_waits(workload.size(), 0.0);
  std::vector<double> exec_times(workload.size(), 0.0);
  const auto run_start = Clock::now();
  for (size_t i = 0; i < workload.size(); ++i) {
    const auto submit_time = Clock::now();
    service.Submit(workload[i],
                   [&latencies, &queue_waits, &exec_times, i, submit_time](
                       const Result<DmQueryResult>& r, const QueryTiming& t) {
                     (void)r;  // outcomes come from the worker counters
                     latencies[i] = std::chrono::duration<double, std::milli>(
                                        Clock::now() - submit_time)
                                        .count();
                     queue_waits[i] = t.queue_millis;
                     exec_times[i] = t.exec_millis;
                   });
  }
  service.Drain();
  const auto run_end = Clock::now();
  const ServiceHealth health = service.health();

  report->threads = threads;
  report->queries = static_cast<int64_t>(workload.size());
  report->wall_millis =
      std::chrono::duration<double, std::milli>(run_end - run_start).count();
  report->qps = report->wall_millis > 0
                    ? 1000.0 * static_cast<double>(report->queries) /
                          report->wall_millis
                    : 0.0;
  std::sort(latencies.begin(), latencies.end());
  std::sort(queue_waits.begin(), queue_waits.end());
  std::sort(exec_times.begin(), exec_times.end());
  report->p50_millis = Percentile(latencies, 0.50);
  report->p99_millis = Percentile(latencies, 0.99);
  report->p999_millis = Percentile(latencies, 0.999);
  report->queue_p50_millis = Percentile(queue_waits, 0.50);
  report->queue_p99_millis = Percentile(queue_waits, 0.99);
  report->exec_p50_millis = Percentile(exec_times, 0.50);
  report->exec_p99_millis = Percentile(exec_times, 0.99);
  report->failed = health.errors + health.sheddable;
  report->shed = health.shed;
  report->degraded = health.degraded;
}

}  // namespace

Result<ThroughputReport> RunThroughput(
    DmStore* store, const std::vector<QueryRequest>& workload, int threads,
    const DmQueryOptions& query) {
  // Warm-cache steady state: write back dirt, keep everything
  // resident (the cold-cache FlushAll stays with the paper benches).
  DM_RETURN_NOT_OK(store->env()->FlushDirty());
  const IoStats io0 = store->env()->stats();

  QueryServiceOptions options;
  options.num_threads = threads;
  options.queue_capacity =
      std::max<size_t>(8, 2 * static_cast<size_t>(threads));
  options.query = query;
  ThroughputReport report;
  {
    QueryService service(store, options);
    RunWorkload(service, workload, threads, &report);
    service.Shutdown();
  }

  const IoStats io1 = store->env()->stats();
  report.disk_reads = io1.disk_reads - io0.disk_reads;
  report.io_retries = io1.io_retries - io0.io_retries;
  report.prefetch_hits = io1.prefetch_hits - io0.prefetch_hits;
  report.prefetch_waste = io1.prefetch_waste - io0.prefetch_waste;
  return report;
}

Result<ThroughputReport> RunThroughput(
    DmDataSource* source, const std::vector<QueryRequest>& workload,
    int threads, const DmQueryOptions& query) {
  const IoStats io0 = source->io_stats();

  QueryServiceOptions options;
  options.num_threads = threads;
  options.queue_capacity =
      std::max<size_t>(8, 2 * static_cast<size_t>(threads));
  options.query = query;
  ThroughputReport report;
  {
    QueryService service(source, options);
    RunWorkload(service, workload, threads, &report);
    service.Shutdown();
  }

  const IoStats io1 = source->io_stats();
  report.disk_reads = io1.disk_reads - io0.disk_reads;
  report.io_retries = io1.io_retries - io0.io_retries;
  report.prefetch_hits = io1.prefetch_hits - io0.prefetch_hits;
  report.prefetch_waste = io1.prefetch_waste - io0.prefetch_waste;
  return report;
}

}  // namespace dm
