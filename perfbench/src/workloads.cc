#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "dem/crater.h"
#include "dem/dem_io.h"
#include "dem/fractal.h"
#include "dm/dm_query.h"
#include "pipeline.h"
#include "queries.h"
#include "server/query_service.h"
#include "storage/db_env.h"
#include "trace.h"

namespace perfbench {
namespace {

// The serving terrain (the paper's crater dataset at bench scale) and
// the ingest terrain (the fractal stand-in for the mining dataset).
constexpr int kCraterSide = 385;
constexpr uint64_t kCraterSeed = 4242;
constexpr int kFractalSide = 513;
constexpr uint64_t kFractalSeed = 42;

constexpr int kMaxBuildThreads = 2;
// Set-up repetitions per run (set-up time is their median); each builds
// a store.
constexpr int kSetupRepeats = 3;
// paper_cold: positions per fig6/fig8 sweep point (264 queries a pass).
constexpr int kPaperLocations = 6;
// serve_warm: distinct queries, clients and workers.
constexpr int kServeQueries = 480;
constexpr int kOutstanding = 3;
constexpr int kServiceWorkers = 3;
// ingest: output-check queries per build.
constexpr int kIngestQueries = 1000;
// Every run times at least this many queries, so the p99 latency has ten
// samples beyond it.
constexpr size_t kMinLatencySamples = 1000;
// Traced runs alternate untraced and traced blocks of this length.
constexpr double kTraceBlockSeconds = 1.0;
constexpr size_t kMaxErrors = 5;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Millis(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Peak resident memory of the whole run in MiB (set-up included: a
/// window over the timed phase alone would mostly measure how much freed
/// set-up memory the allocator happened to keep).
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int BuildThreads() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(cores, 1, kMaxBuildThreads);
}

dm::IoStats Delta(const dm::IoStats& a, const dm::IoStats& b) {
  dm::IoStats d;
  d.logical_fetches = b.logical_fetches - a.logical_fetches;
  d.disk_reads = b.disk_reads - a.disk_reads;
  d.disk_writes = b.disk_writes - a.disk_writes;
  d.evictions = b.evictions - a.evictions;
  d.fetch_runs = b.fetch_runs - a.fetch_runs;
  d.fetch_run_pages = b.fetch_run_pages - a.fetch_run_pages;
  return d;
}

void Accumulate(const dm::IoStats& d, dm::IoStats* total) {
  total->logical_fetches += d.logical_fetches;
  total->disk_reads += d.disk_reads;
  total->disk_writes += d.disk_writes;
  total->evictions += d.evictions;
  total->fetch_runs += d.fetch_runs;
  total->fetch_run_pages += d.fetch_run_pages;
}

/// Per-query work summed over the traced queries.
struct QueryTotals {
  int64_t queries = 0;
  int64_t vertices = 0;
  int64_t triangles = 0;
  int64_t splits = 0;
  int64_t range_queries = 0;
  int64_t nodes_fetched = 0;

  void Add(const dm::DmQueryResult& r) {
    ++queries;
    vertices += static_cast<int64_t>(r.vertices.size());
    triangles += static_cast<int64_t>(r.triangles.size());
    splits += r.stats.refinement_splits;
    range_queries += r.stats.range_queries;
    nodes_fetched += r.stats.nodes_fetched;
  }
  void Add(const QueryTotals& o) {
    queries += o.queries;
    vertices += o.vertices;
    triangles += o.triangles;
    splits += o.splits;
    range_queries += o.range_queries;
    nodes_fetched += o.nodes_fetched;
  }
};

/// A store reopened from disk for querying.
struct OpenStore {
  std::unique_ptr<dm::DbEnv> env;
  std::unique_ptr<dm::DmStore> store;
};

dm::Result<OpenStore> Open(const BuiltStore& built, dm::DbOptions options) {
  options.truncate = false;
  options.async_backend = kAsyncBackend;
  OpenStore out;
  DM_ASSIGN_OR_RETURN(out.env, dm::DbEnv::Open(built.db_path, options));
  DM_ASSIGN_OR_RETURN(dm::DmStore store,
                      dm::DmStore::Open(out.env.get(), built.meta));
  out.store = std::make_unique<dm::DmStore>(std::move(store));
  return out;
}

/// Fetches every node once, with one box over all of (x, y, LOD)
/// space, so that a pool and node cache sized to the store hold all of
/// it whatever the queries touch.
dm::Status LoadWholeStore(dm::DmStore* store) {
  class Discard final : public dm::DmDataSource::NodeSink {
   public:
    void Deliver(const dm::NodeRef&) override {}
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  dm::DmStoreSource source(store);
  Discard sink;
  dm::BoxFetchStats stats;
  return source.FetchBox(dm::Box::Of(-kInf, -kInf, -kInf, kInf, kInf, kInf),
                         false, dm::DmDataSource::kNoDeadline, &sink, &stats);
}

dm::Result<BuiltStore> BuildCrater(const RunOptions& opt) {
  return BuildStore(
      []() -> dm::Result<dm::DemGrid> {
        dm::CraterParams p;
        p.side = kCraterSide;
        p.seed = kCraterSeed;
        return dm::GenerateCraterDem(p);
      },
      opt.work_dir + "/crater", BuildThreads());
}

/// Per-stage build times (median over `builds`) and the build-side
/// layer metrics.
void ReportBuildLayers(const std::vector<BuildStages>& builds,
                       Report* report) {
  auto median_of = [&builds](double BuildStages::*field) {
    std::vector<double> v;
    for (const BuildStages& b : builds) v.push_back(b.*field);
    return Median(v);
  };
  report->layer["dem.ms"] = median_of(&BuildStages::dem_ms);
  report->layer["mesh.triangulate_ms"] =
      median_of(&BuildStages::triangulate_ms);
  report->layer["simplify.ms"] = median_of(&BuildStages::simplify_ms);
  report->layer["pm.build_ms"] = median_of(&BuildStages::pm_ms);
  report->layer["connectivity.ms"] = median_of(&BuildStages::connectivity_ms);
  report->layer["connectivity.mean_list_len"] =
      builds.empty() ? 0.0 : builds.back().mean_list_len;
  report->layer["dm_store.build_ms"] = median_of(&BuildStages::store_ms);
  report->layer["storage.pages_written"] =
      builds.empty() ? 0.0 : static_cast<double>(builds.back().pages_written);
}

/// Query-side layer metrics of the traced queries.
void ReportQueryLayers(const QueryTotals& q, const LayerCounters& c,
                       const dm::IoStats& io, Report* report) {
  const double n = static_cast<double>(q.queries);
  auto& L = report->layer;
  L["dm_query.refinement_splits_per_query"] = Ratio(q.splits, n);
  L["dm_query.range_queries_per_query"] = Ratio(q.range_queries, n);
  L["dm_query.vertices_per_query"] = Ratio(q.vertices, n);
  L["dm_query.triangles_per_query"] = Ratio(q.triangles, n);
  L["dm_fetch.nodes_per_query"] = Ratio(q.nodes_fetched, n);
  L["dm_fetch.useful_ratio"] = Ratio(q.vertices, q.nodes_fetched);
  L["index.disk_reads_per_query"] = Ratio(c.index_disk_reads.load(), n);
  L["index.rids_per_query"] = Ratio(c.rids.load(), n);
  const double hits = static_cast<double>(c.cache_hits.load());
  L["dm_store.cache_hit_ratio"] =
      Ratio(hits, hits + static_cast<double>(c.cache_misses.load()));
  L["dm_store.heap_reads_per_query"] = Ratio(c.heap_disk_reads.load(), n);
  // Storage counts are run totals over the traced queries: per-query
  // pool deltas leak between concurrent workers.
  L["storage.logical_fetches_per_query"] = Ratio(io.logical_fetches, n);
  L["storage.hit_ratio"] =
      io.logical_fetches > 0
          ? 1.0 - static_cast<double>(io.disk_reads) /
                      static_cast<double>(io.logical_fetches)
          : 0.0;
  L["storage.evictions_per_query"] = Ratio(io.evictions, n);
  L["storage.pages_per_run"] = Ratio(io.fetch_run_pages, io.fetch_runs);
}

void MedianVerticesByKind(const std::vector<dm::QueryRequest>& queries,
                          const std::vector<int64_t>& vertices,
                          Report* report) {
  std::map<std::string, std::vector<double>> by_kind;
  for (size_t i = 0; i < queries.size(); ++i) {
    by_kind[KindName(KindOf(queries[i]))].push_back(
        static_cast<double>(vertices[i]));
  }
  for (const auto& [kind, v] : by_kind) {
    const double median = Median(v);
    report->kind_median_vertices[kind] = median;
    if (median <= 0) {
      report->Fail(std::string("median mesh of ") + kind +
                   " queries is empty");
    }
  }
}

/// Compares every uniform query's vertex set with the brute-force cut
/// of the in-memory PM tree. Returns the number of mismatches.
int64_t CheckUniformCuts(const BuiltStore& built,
                         const std::vector<dm::QueryRequest>& queries,
                         const std::vector<std::vector<dm::VertexId>>& got,
                         Report* report) {
  int64_t bad = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const dm::QueryRequest& q = queries[i];
    if (q.kind != dm::QueryRequest::Kind::kUniform) continue;
    if (got[i] != BruteForceCut(built.tree, q.roi, q.e)) {
      ++bad;
      report->Fail("uniform query " + std::to_string(i) +
                   " differs from the brute-force cut");
    }
  }
  return bad;
}

/// One serial pass over the untraced store: geometry hashes, disk reads
/// and vertex sets the timed phase is checked against.
struct Reference {
  std::vector<uint64_t> hash;
  std::vector<int64_t> disk_reads;
  std::vector<std::vector<dm::VertexId>> vertices;
};

dm::Result<Reference> ReferencePass(dm::DmStore* store,
                                    const std::vector<dm::QueryRequest>& qs,
                                    bool cold) {
  Reference ref;
  dm::DmQueryProcessor proc(store);
  for (const dm::QueryRequest& q : qs) {
    if (cold) DM_RETURN_NOT_OK(store->env()->FlushAll());
    const dm::IoStats io0 = store->env()->stats();
    DM_ASSIGN_OR_RETURN(dm::DmQueryResult r, RunQuery(&proc, q));
    ref.disk_reads.push_back(store->env()->stats().disk_reads - io0.disk_reads);
    ref.hash.push_back(HashGeometry(r));
    ref.vertices.push_back(std::move(r.vertices));
  }
  return ref;
}

/// The reference's own checks: non-empty median meshes per kind and
/// uniform cuts equal to the brute-force cut.
void CheckReference(const BuiltStore& built,
                    const std::vector<dm::QueryRequest>& qs,
                    const Reference& ref, Report* report) {
  std::vector<int64_t> sizes;
  for (const auto& v : ref.vertices) {
    sizes.push_back(static_cast<int64_t>(v.size()));
  }
  MedianVerticesByKind(qs, sizes, report);
  report->failed += CheckUniformCuts(built, qs, ref.vertices, report);
}

/// Cold serial queries: FlushAll before each, one processor, checked
/// against `ref`. Returns the wall time of the pass (without checks).
dm::Result<double> ColdPass(dm::DmQueryProcessor* proc, dm::DbEnv* env,
                            const std::vector<dm::QueryRequest>& qs,
                            const std::vector<size_t>& order,
                            const Reference& ref, bool traced,
                            Report* report, QueryTotals* totals,
                            dm::IoStats* io_total) {
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(traced);
  const auto pass_start = Clock::now();
  for (size_t i : order) {
    DM_RETURN_NOT_OK(env->FlushAll());
    const dm::IoStats io0 = env->stats();
    Tracer::CurrentRequest() = traced ? tracer.NewId() : -1;
    const auto t0 = Clock::now();
    dm::Result<dm::DmQueryResult> r = dm::Status::Internal("unreached");
    {
      ScopedSpan span("dm_query");
      r = RunQuery(proc, qs[i]);
    }
    const auto t1 = Clock::now();
    const dm::IoStats io = Delta(io0, env->stats());
    ++report->attempted;
    if (!r.ok()) {
      ++report->failed;
      report->Fail("query " + std::to_string(i) + ": " +
                   r.status().ToString());
      continue;
    }
    if (HashGeometry(r.value()) != ref.hash[i] ||
        io.disk_reads != ref.disk_reads[i]) {
      ++report->failed;
      report->Fail("query " + std::to_string(i) +
                   " differs from the reference pass");
    }
    if (traced) {
      totals->Add(r.value());
      Accumulate(io, io_total);
    } else {
      report->latency_ms.push_back(Millis(t0, t1));
      report->page_fetches += io.logical_fetches;
      report->disk_reads += io.disk_reads;
    }
  }
  Tracer::CurrentRequest() = -1;
  tracer.set_enabled(false);
  return SecondsSince(pass_start);
}

/// Whether the timed phase goes on: it lasts `seconds`, and longer
/// until the p99 latency is supported (and, when tracing, until a
/// traced block has run).
bool KeepTiming(double elapsed, const RunOptions& opt, const Report& r) {
  return elapsed < opt.seconds || r.latency_ms.size() < kMinLatencySamples ||
         (opt.trace && r.traced_queries == 0);
}

std::vector<size_t> Shuffled(size_t n, dm::Rng* rng) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng->NextBelow(i)]);
  }
  return order;
}

/// Closed-loop client over a QueryService: keeps `kOutstanding`
/// requests in flight from one generator thread, each next request
/// sent when one completes.
class ClosedLoop {
 public:
  ClosedLoop(const std::vector<dm::QueryRequest>& queries,
             const Reference& ref, uint64_t seed)
      : queries_(queries), ref_(ref), rng_(seed) {}

  /// Sends every query once per round, each round in a fresh seeded
  /// order, so the served mix is the same in every run.
  size_t NextQuery() {
    if (next_ == order_.size()) {
      order_ = Shuffled(queries_.size(), &rng_);
      next_ = 0;
    }
    return order_[next_++];
  }

  struct Block {
    int64_t completed = 0;
    int64_t failed = 0;
    double wall_s = 0.0;
    std::vector<double> latency_ms, queue_ms, exec_ms;
    QueryTotals totals;
  };

  /// Runs until `seconds` have passed, then drains.
  Block Run(dm::QueryService* service, double seconds, bool traced) {
    Tracer::Get().set_enabled(traced);
    Block block;
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    for (;;) {
      {
        dm::MutexLock lock(mu_);
        while (outstanding_ >= kOutstanding) cv_.Wait(mu_);
        if (Clock::now() >= stop) break;
        ++outstanding_;
      }
      const size_t idx = NextQuery();
      const auto submitted = Clock::now();
      const bool accepted = service->Submit(
          queries_[idx],
          [this, idx, submitted, traced, &block](
              const dm::Result<dm::DmQueryResult>& r,
              const dm::QueryTiming& timing) {
            OnDone(idx, submitted, traced, r, timing, &block);
          });
      if (!accepted) {  // the service shut down under us
        dm::MutexLock lock(mu_);
        --outstanding_;
        break;
      }
    }
    {
      dm::MutexLock lock(mu_);
      while (outstanding_ > 0) cv_.Wait(mu_);
    }
    block.wall_s = SecondsSince(start);
    Tracer::Get().set_enabled(false);
    return block;
  }

 private:
  void OnDone(size_t idx, Clock::time_point submitted, bool traced,
              const dm::Result<dm::DmQueryResult>& r,
              const dm::QueryTiming& timing, Block* block) {
    const auto done = Clock::now();
    const bool ok = r.ok() && HashGeometry(r.value()) == ref_.hash[idx];
    if (traced) {
      // Request > (server.queue, dm_query > fetch spans recorded on
      // this worker while it ran the query).
      Tracer& t = Tracer::Get();
      const int64_t done_ns = t.ToNs(done);
      const int64_t submit_ns = t.ToNs(submitted);
      const auto ms_to_ns = [](double ms) {
        return static_cast<int64_t>(ms * 1e6);
      };
      Span request{t.NewId(), -1, -1, "request", submit_ns, done_ns};
      request.request = request.id;
      Span queue{t.NewId(), request.id, request.id, "server.queue", submit_ns,
                 submit_ns + ms_to_ns(timing.queue_millis)};
      Span query{t.NewId(), request.id, request.id, "dm_query",
                 done_ns - ms_to_ns(timing.exec_millis), done_ns};
      t.Adopt(request.id, query.id);
      t.Record(request);
      t.Record(queue);
      t.Record(query);
    }
    dm::MutexLock lock(mu_);
    ++block->completed;
    if (!ok) ++block->failed;
    block->latency_ms.push_back(Millis(submitted, done));
    if (traced) {
      block->queue_ms.push_back(timing.queue_millis);
      block->exec_ms.push_back(timing.exec_millis);
      if (r.ok()) block->totals.Add(r.value());
    }
    --outstanding_;
    cv_.NotifyOne();
  }

  const std::vector<dm::QueryRequest>& queries_;
  const Reference& ref_;
  // Generator thread only.
  dm::Rng rng_;
  std::vector<size_t> order_;
  size_t next_ = 0;
  dm::Mutex mu_;
  dm::CondVar cv_;
  int outstanding_ DM_GUARDED_BY(mu_) = 0;
};

}  // namespace

void Report::Fail(const std::string& what) {
  if (errors.size() < kMaxErrors) errors.push_back(what);
  else if (errors.size() == kMaxErrors) errors.push_back("...");
}

dm::Status RunPaperCold(const RunOptions& opt, Report* report) {
  report->build_threads = BuildThreads();
  // Set-up: build the crater store and reopen it with the paper's
  // settings (one pool shard, default pool, node cache off).
  std::optional<BuiltStore> built;
  OpenStore db;
  std::vector<BuildStages> builds;
  for (int k = 0; k < kSetupRepeats; ++k) {
    // Free the previous repeat's store first, so that every build starts
    // from the same live memory.
    db = OpenStore{};
    built.reset();
    const auto t0 = Clock::now();
    DM_ASSIGN_OR_RETURN(built, BuildCrater(opt));
    DM_ASSIGN_OR_RETURN(db, Open(*built, dm::DbOptions{}));
    report->setup_s.push_back(SecondsSince(t0));
    report->build_s.push_back(built->stages.total_s);
    builds.push_back(built->stages);
  }
  report->store_bytes =
      static_cast<int64_t>(std::filesystem::file_size(built->db_path));
  report->points = built->points;
  ReportBuildLayers(builds, report);

  const std::vector<dm::QueryRequest> qs = PaperGrid(*built, kPaperLocations);
  DM_ASSIGN_OR_RETURN(const Reference ref,
                      ReferencePass(db.store.get(), qs, /*cold=*/true));
  CheckReference(*built, qs, ref, report);

  LayerCounters counters;
  TracedSource traced_source(db.store.get(), &counters);
  dm::DmQueryProcessor plain(db.store.get());
  dm::DmQueryProcessor traced(&traced_source);
  dm::Rng rng(opt.seed);
  QueryTotals totals;
  dm::IoStats io_total;
  // Whole passes only, so every run averages the same query set. A
  // traced run alternates untraced and traced passes.
  double elapsed = 0.0;
  for (int pass = 0; KeepTiming(elapsed, opt, *report); ++pass) {
    const bool trace_pass = opt.trace && pass % 2 == 1;
    const std::vector<size_t> order = Shuffled(qs.size(), &rng);
    DM_ASSIGN_OR_RETURN(
        const double wall,
        ColdPass(trace_pass ? &traced : &plain, db.env.get(), qs, order, ref,
                 trace_pass, report, &totals, &io_total));
    elapsed += wall;
    if (trace_pass) {
      report->traced_queries += static_cast<int64_t>(qs.size());
      report->traced_wall_s += wall;
    } else {
      report->queries += static_cast<int64_t>(qs.size());
      report->query_wall_s += wall;
    }
  }
  if (opt.trace) {
    ReportQueryLayers(totals, counters, io_total, report);
  }
  report->peak_rss_mb = PeakRssMb();
  return dm::Status::OK();
}

dm::Status RunServeWarm(const RunOptions& opt, Report* report) {
  report->build_threads = BuildThreads();
  report->clients = kOutstanding;
  report->service_workers = kServiceWorkers;
  // Set-up: build the crater store and reopen it with the pool and the
  // decoded-node cache sized to hold all of it.
  std::optional<BuiltStore> built;
  OpenStore db;
  std::vector<BuildStages> builds;
  for (int k = 0; k < kSetupRepeats; ++k) {
    // Free the previous repeat's store first, so that every build starts
    // from the same live memory.
    db = OpenStore{};
    built.reset();
    const auto t0 = Clock::now();
    DM_ASSIGN_OR_RETURN(built, BuildCrater(opt));
    const auto file_bytes = std::filesystem::file_size(built->db_path);
    dm::DbOptions options;
    options.pool_pages =
        static_cast<uint32_t>(file_bytes / dm::kDefaultPageSize) + 64;
    options.pool_shards = dm::BufferPool::kDefaultShards;
    options.node_cache_bytes = size_t{512} << 20;
    DM_ASSIGN_OR_RETURN(db, Open(*built, options));
    report->setup_s.push_back(SecondsSince(t0));
    report->build_s.push_back(built->stages.total_s);
    builds.push_back(built->stages);
  }
  report->store_bytes =
      static_cast<int64_t>(std::filesystem::file_size(built->db_path));
  report->points = built->points;
  ReportBuildLayers(builds, report);

  // Warm-up is part of set-up: load the whole store, then the serial
  // pass that records every query's result.
  const std::vector<dm::QueryRequest> qs =
      ServeMix(*built, kServeQueries);
  const auto warm0 = Clock::now();
  DM_RETURN_NOT_OK(LoadWholeStore(db.store.get()));
  DM_ASSIGN_OR_RETURN(const Reference ref,
                      ReferencePass(db.store.get(), qs, /*cold=*/false));
  report->warm_s = SecondsSince(warm0);
  for (double& s : report->setup_s) s += report->warm_s;
  CheckReference(*built, qs, ref, report);

  LayerCounters counters;
  TracedSource traced_source(db.store.get(), &counters);
  dm::DmStoreSource plain_source(db.store.get());
  dm::QueryServiceOptions service_options;
  service_options.num_threads = kServiceWorkers;
  dm::QueryService service(
      opt.trace ? static_cast<dm::DmDataSource*>(&traced_source)
                : static_cast<dm::DmDataSource*>(&plain_source),
      service_options);
  ClosedLoop loop(qs, ref, opt.seed ^ 0x10adULL);

  const dm::IoStats io0 = db.env->stats();
  dm::IoStats traced_io;
  QueryTotals totals;
  double elapsed = 0.0;
  for (int block = 0; KeepTiming(elapsed, opt, *report); ++block) {
    const bool traced = opt.trace && block % 2 == 1;
    const double length = opt.trace ? kTraceBlockSeconds : opt.seconds;
    const dm::IoStats b0 = db.env->stats();
    ClosedLoop::Block b = loop.Run(&service, length, traced);
    const dm::IoStats bio = Delta(b0, db.env->stats());
    elapsed += b.wall_s;
    report->attempted += b.completed;
    report->failed += b.failed;
    if (b.failed > 0) {
      report->Fail(std::to_string(b.failed) +
                   " served results differ from the warm-up pass");
    }
    if (traced) {
      report->traced_queries += b.completed;
      report->traced_wall_s += b.wall_s;
      report->queue_ms.insert(report->queue_ms.end(), b.queue_ms.begin(),
                              b.queue_ms.end());
      report->exec_ms.insert(report->exec_ms.end(), b.exec_ms.begin(),
                             b.exec_ms.end());
      Accumulate(bio, &traced_io);
      totals.Add(b.totals);
    } else {
      report->queries += b.completed;
      report->query_wall_s += b.wall_s;
      report->latency_ms.insert(report->latency_ms.end(),
                                b.latency_ms.begin(), b.latency_ms.end());
      report->page_fetches += bio.logical_fetches;
      report->disk_reads += bio.disk_reads;
    }
  }
  service.Shutdown();
  const dm::IoStats run_io = Delta(io0, db.env->stats());
  if (run_io.disk_reads != 0) {
    report->Fail("the warm timed phase read " +
                 std::to_string(run_io.disk_reads) + " pages from disk");
  }
  if (opt.trace) {
    ReportQueryLayers(totals, counters, traced_io, report);
  }
  report->peak_rss_mb = PeakRssMb();
  return dm::Status::OK();
}

dm::Status RunIngest(const RunOptions& opt, Report* report) {
  report->build_threads = BuildThreads();
  // Set-up: the input a user brings, a DEM in the Esri ASCII format,
  // and the reference store the timed builds are checked against, built
  // from that file by the same pipeline.
  const std::string dem_path = opt.work_dir + "/fractal.asc";
  const auto read_dem = [&dem_path] { return dm::ReadEsriAsciiGrid(dem_path); };
  std::optional<BuiltStore> reference;
  for (int k = 0; k < kSetupRepeats; ++k) {
    reference.reset();
    const auto t0 = Clock::now();
    dm::FractalParams p;
    p.side = kFractalSide;
    p.seed = kFractalSeed;
    DM_RETURN_NOT_OK(WriteEsriAsciiGrid(dm::GenerateFractalDem(p), dem_path));
    DM_ASSIGN_OR_RETURN(reference, BuildStore(read_dem,
                                              opt.work_dir + "/reference",
                                              BuildThreads()));
    report->setup_s.push_back(SecondsSince(t0));
  }
  // The reference answers, checked against the PM tree. Every timed
  // build must reproduce them exactly.
  const std::vector<dm::QueryRequest> qs =
      UniformChecks(*reference, kIngestQueries);
  Reference ref;
  {
    DM_ASSIGN_OR_RETURN(OpenStore db, Open(*reference, dm::DbOptions{}));
    DM_ASSIGN_OR_RETURN(ref, ReferencePass(db.store.get(), qs, /*cold=*/true));
  }
  CheckReference(*reference, qs, ref, report);
  std::vector<size_t> order(qs.size());
  std::iota(order.begin(), order.end(), size_t{0});

  std::vector<BuildStages> builds;
  QueryTotals totals;
  dm::IoStats traced_io;
  LayerCounters counters;
  double elapsed = 0.0;
  while (KeepTiming(elapsed, opt, *report)) {
    // Timed: DEM file to a closed store on disk.
    ++report->attempted;
    DM_ASSIGN_OR_RETURN(
        BuiltStore built,
        BuildStore(read_dem, opt.work_dir + "/ingest", BuildThreads()));
    elapsed += built.stages.total_s;
    report->build_s.push_back(built.stages.total_s);
    builds.push_back(built.stages);
    report->store_bytes =
        static_cast<int64_t>(std::filesystem::file_size(built.db_path));
    report->points = built.points;

    // Reopen the store cold; its check queries (timed for the latency
    // metrics) must reproduce the reference answers.
    DM_ASSIGN_OR_RETURN(OpenStore db, Open(built, dm::DbOptions{}));
    dm::DmQueryProcessor plain(db.store.get());
    DM_ASSIGN_OR_RETURN(const double wall,
                        ColdPass(&plain, db.env.get(), qs, order, ref, false,
                                 report, &totals, &traced_io));
    elapsed += wall;
    report->queries += static_cast<int64_t>(qs.size());
    report->query_wall_s += wall;
    if (opt.trace) {
      TracedSource traced_source(db.store.get(), &counters);
      dm::DmQueryProcessor traced(&traced_source);
      DM_ASSIGN_OR_RETURN(const double twall,
                          ColdPass(&traced, db.env.get(), qs, order, ref,
                                   true, report, &totals, &traced_io));
      report->traced_queries += static_cast<int64_t>(qs.size());
      report->traced_wall_s += twall;
    }
  }
  if (opt.trace) ReportQueryLayers(totals, counters, traced_io, report);
  ReportBuildLayers(builds, report);
  report->peak_rss_mb = PeakRssMb();
  return dm::Status::OK();
}

}  // namespace perfbench
