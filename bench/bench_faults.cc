// Fault-sweep serving benchmark: replays a deterministic mixed
// workload (MakeMixedWorkload) through the QueryService while the
// fault-injection shim (storage/fault_env.h) fails a growing fraction
// of device reads, and reports what graceful degradation costs.
//
// Each configuration arms one read-fault rate (split evenly between
// permanent EIO and transient EINTR-storm faults, so both the retry
// loop and the degraded-fetch path are exercised), flushes the buffer
// pool so the timed run actually reads the device, and runs with
// `allow_degraded` on — lost heap pages coarsen the mesh instead of
// failing the query. Reported per rate: qps, latency percentiles
// (retries and degradation inflate the tail first), the fraction of
// queries that degraded, queries that failed outright (index-page
// faults are always fatal), and transient faults absorbed by retries.
//
// The zero-rate configuration doubles as the regression anchor: it
// must finish with failed == 0 and degraded == 0, and its qps is
// comparable against the committed baseline.
//
// Usage: bench_faults [--tiny] [--threads=N] [--queries=N]
//                     [--read-latency-us=N] [--pool-pages=N]
//                     [--out=BENCH_faults.json]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "server/query_service.h"
#include "storage/buffer_pool.h"
#include "storage/fault_env.h"

namespace dm::bench {
namespace {

struct CliOptions {
  bool tiny = false;
  int threads = 4;
  int queries = 120;
  int read_latency_us = 150;
  // Below the working set so the timed runs keep missing; a pool that
  // holds everything would absorb the fault rates after the first pass.
  int pool_pages = 64;
  std::string out = "BENCH_faults.json";
};

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--tiny") == 0) {
      opts->tiny = true;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      opts->threads = std::atoi(arg + 10);
      if (opts->threads <= 0 || opts->threads > 256) {
        std::fprintf(stderr, "bad --threads: %s\n", arg + 10);
        return false;
      }
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      opts->queries = std::atoi(arg + 10);
      if (opts->queries <= 0) {
        std::fprintf(stderr, "bad --queries: %s\n", arg + 10);
        return false;
      }
    } else if (std::strncmp(arg, "--read-latency-us=", 18) == 0) {
      opts->read_latency_us = std::atoi(arg + 18);
      if (opts->read_latency_us < 0) {
        std::fprintf(stderr, "bad --read-latency-us: %s\n", arg + 18);
        return false;
      }
    } else if (std::strncmp(arg, "--pool-pages=", 13) == 0) {
      opts->pool_pages = std::atoi(arg + 13);
      if (opts->pool_pages < 16) {
        std::fprintf(stderr, "bad --pool-pages (min 16): %s\n", arg + 13);
        return false;
      }
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      opts->out = arg + 6;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: bench_faults [--tiny] "
                   "[--threads=N] [--queries=N] [--read-latency-us=N] "
                   "[--pool-pages=N] [--out=FILE]\n",
                   arg);
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  CliOptions opts;
  if (!ParseArgs(argc, argv, &opts)) return 2;

  DatasetSpec spec = SmallDatasetSpec();
  if (opts.tiny) {
    spec.name = "tiny";
    spec.side = 65;
  }
  DbOptions db_options;
  db_options.pool_shards = BufferPool::kDefaultShards;
  db_options.pool_pages = static_cast<uint32_t>(opts.pool_pages);
  db_options.enable_fault_injection = true;
  std::fprintf(stderr, "[bench] preparing dataset '%s' (%d x %d)...\n",
               spec.name.c_str(), spec.side, spec.side);
  auto ctx_or = BenchContext::Create(BenchDataDir(), spec, db_options);
  if (!ctx_or.ok()) {
    std::fprintf(stderr, "dataset build failed: %s\n",
                 ctx_or.status().ToString().c_str());
    return 1;
  }
  BenchContext ctx = std::move(ctx_or).value();
  BuiltDataset& ds = ctx.mutable_dataset();
  DmStoreSource source(&ds.dm.value());
  FaultInjectingDevice* device = ds.dm_env->fault_device();
  if (device == nullptr) {
    std::fprintf(stderr, "fault device missing despite injection enabled\n");
    return 1;
  }
  ds.dm_env->disk().set_simulated_read_latency_micros(
      static_cast<uint32_t>(opts.read_latency_us));

  const std::vector<QueryRequest> workload =
      MakeMixedWorkload(ds.bounds, ds.max_lod, opts.queries, /*seed=*/12345);
  DmQueryOptions query;
  query.allow_degraded = true;

  const double kRates[] = {0.0, 0.001, 0.01};
  BenchJsonWriter writer("bench_faults");
  writer.Add("queries", static_cast<double>(opts.queries));
  writer.Add("threads", static_cast<double>(opts.threads));
  writer.Add("dataset_side", static_cast<double>(spec.side));
  writer.Add("read_latency_us", static_cast<double>(opts.read_latency_us));
  writer.Add("pool_pages", static_cast<double>(opts.pool_pages));
  bool clean_run_ok = true;
  for (size_t i = 0; i < sizeof(kRates) / sizeof(kRates[0]); ++i) {
    const double rate = kRates[i];
    // Cold pool per configuration: with everything resident no read
    // would touch the device and the fault rate would measure nothing.
    auto flush = ds.dm_env->FlushAll();
    if (!flush.ok()) {
      std::fprintf(stderr, "flush failed: %s\n",
                   flush.ToString().c_str());
      return 1;
    }
    FaultPlan plan;
    plan.seed = 0xFA171000 + i;  // fixed per rate: reruns replay exactly
    plan.read_error_rate = rate / 2;
    plan.read_transient_rate = rate / 2;
    device->ResetStats();
    device->set_plan(plan);

    auto report_or =
        RunThroughput(&source, workload, opts.threads, query);
    if (!report_or.ok()) {
      std::fprintf(stderr, "run (rate=%g) failed: %s\n", rate,
                   report_or.status().ToString().c_str());
      return 1;
    }
    const ThroughputReport& r = report_or.value();
    const double degraded_fraction =
        r.queries > 0 ? static_cast<double>(r.degraded) /
                            static_cast<double>(r.queries)
                      : 0.0;
    std::printf("rate=%g %s degraded_fraction=%.3f injected=%llu\n", rate,
                r.ToString().c_str(), degraded_fraction,
                static_cast<unsigned long long>(
                    device->stats().injected_total()));
    char rbuf[32];
    std::snprintf(rbuf, sizeof(rbuf), "%g", rate);
    const std::string prefix = std::string("rate_") + rbuf + "/";
    writer.Add(prefix + "qps", r.qps);
    writer.Add(prefix + "p50_millis", r.p50_millis);
    writer.Add(prefix + "p99_millis", r.p99_millis);
    writer.Add(prefix + "p999_millis", r.p999_millis);
    writer.Add(prefix + "wall_millis", r.wall_millis);
    writer.Add(prefix + "disk_reads", static_cast<double>(r.disk_reads));
    writer.Add(prefix + "failed", static_cast<double>(r.failed));
    writer.Add(prefix + "degraded", static_cast<double>(r.degraded));
    writer.Add(prefix + "degraded_fraction", degraded_fraction);
    writer.Add(prefix + "io_retries", static_cast<double>(r.io_retries));
    writer.Add(prefix + "injected_faults",
               static_cast<double>(device->stats().injected_total()));
    if (rate == 0.0 && (r.failed > 0 || r.degraded > 0)) {
      clean_run_ok = false;
      std::fprintf(stderr,
                   "zero-rate run not clean: failed=%lld degraded=%lld\n",
                   static_cast<long long>(r.failed),
                   static_cast<long long>(r.degraded));
    }
  }
  // Disarm before teardown flushes.
  device->set_plan(FaultPlan{});
  if (!writer.WriteFile(opts.out)) return 1;
  return clean_run_ok ? 0 : 1;
}

}  // namespace
}  // namespace dm::bench

int main(int argc, char** argv) { return dm::bench::Main(argc, argv); }
