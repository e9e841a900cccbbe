// Chaos-serving benchmark: a seeded shard-level fault schedule runs
// against the resilient serving stack (ShardSet + ShardRouter +
// QueryService) under the deterministic mixed workload, and the bench
// reports what availability the failover/hedging/breaker machinery
// actually delivers.
//
// The schedule, at fixed fractions of the query stream:
//   [10%, 40%)  replica kill: shard 0 replica 0 admin-down, restarted
//               (cold cache) at 40% — failover territory;
//   [30%, end)  persistent corruption: shard 1 replica 0 flips a bit
//               in every device read — CRC failures drive the circuit
//               breaker open, after which the replica is
//               short-circuited without touching the device;
//   [55%, 70%)  latency storm: shard 2 replica 0 spikes every read —
//               hedged reads abandon it at the adaptive p95 timeout
//               (timing-driven, so hedge counts are reported but
//               excluded from the determinism gate);
//   [75%, 85%)  full shard outage: both replicas of the last shard
//               admin-down — graceful degradation territory (region
//               missing from the cut, query legal and degraded).
//
// Before any chaos, the first identity-window queries are run twice —
// through the router and through the original single store — and the
// resulting meshes must be byte-identical (the spatial fan-out must be
// invisible in geometry). The whole schedule then runs twice and the
// error-driven counters {errors, degraded, shards_missed, failovers,
// breaker_opens} must agree exactly (`deterministic_ok`): the chaos
// harness replays from its seed.
//
// Usage: bench_chaos [--tiny] [--queries=N] [--threads=N]
//                    [--shards=K] [--out=BENCH_chaos.json]
// DM_FAULT_SEED overrides the schedule seed.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "server/query_service.h"
#include "server/shard_router.h"
#include "server/shard_set.h"
#include "storage/buffer_pool.h"
#include "storage/fault_env.h"

namespace dm::bench {
namespace {

struct CliOptions {
  bool tiny = false;
  int queries = 240;
  int threads = 1;
  int shards = 4;
  std::string out = "BENCH_chaos.json";
};

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--tiny") == 0) {
      opts->tiny = true;
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      opts->queries = std::atoi(arg + 10);
      if (opts->queries < 20) {
        std::fprintf(stderr, "bad --queries (min 20): %s\n", arg + 10);
        return false;
      }
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      opts->threads = std::atoi(arg + 10);
      if (opts->threads <= 0 || opts->threads > 64) {
        std::fprintf(stderr, "bad --threads: %s\n", arg + 10);
        return false;
      }
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      opts->shards = std::atoi(arg + 9);
      if (opts->shards < 4 || opts->shards > 64) {
        std::fprintf(stderr, "bad --shards (min 4): %s\n", arg + 9);
        return false;
      }
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      opts->out = arg + 6;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: bench_chaos [--tiny] "
                   "[--queries=N] [--threads=N] [--shards=K] [--out=FILE]\n",
                   arg);
      return false;
    }
  }
  return true;
}

bool SameMesh(const DmQueryResult& a, const DmQueryResult& b) {
  return a.vertices.size() == b.vertices.size() &&
         a.triangles.size() == b.triangles.size() &&
         std::memcmp(a.vertices.data(), b.vertices.data(),
                     a.vertices.size() * sizeof(VertexId)) == 0 &&
         std::memcmp(a.positions.data(), b.positions.data(),
                     a.positions.size() * sizeof(Point3)) == 0 &&
         std::memcmp(a.triangles.data(), b.triangles.data(),
                     a.triangles.size() * sizeof(Triangle)) == 0;
}

/// Error-driven outcome of one chaos run; the fields compared by the
/// determinism gate, plus the timing-driven extras for reporting.
struct ChaosOutcome {
  int64_t errors = 0;
  int64_t degraded = 0;
  int64_t shed = 0;
  RouterCounters counters;
  std::vector<double> latencies;
  double wall_millis = 0.0;

  bool SameDeterministicCounters(const ChaosOutcome& o) const {
    return errors == o.errors && degraded == o.degraded &&
           shed == o.shed &&
           counters.shards_missed == o.counters.shards_missed &&
           counters.failovers == o.counters.failovers &&
           counters.breaker_opens == o.counters.breaker_opens;
  }
};

/// Resets every replica to a cold, healthy, fault-free state so a
/// repeated run starts from exactly the state the first one did.
Status ResetShards(ShardSet& shards) {
  for (int s = 0; s < shards.num_shards(); ++s) {
    for (int r = 0; r < shards.replicas_per_shard(); ++r) {
      ShardSet::Replica& rep = *shards.shard(s).replicas[r];
      if (FaultInjectingDevice* dev = rep.env->fault_device()) {
        dev->set_plan(FaultPlan{});
        dev->ResetStats();
      }
      DM_RETURN_NOT_OK(rep.env->FlushAll());
      rep.env->ResetStats();
      shards.set_replica_state(s, r, ReplicaState::kUp);
    }
  }
  return Status::OK();
}

/// Arms `plan` on replica (s, r) with a cold cache, so subsequent
/// reads actually traverse the fault device.
Status ArmFaults(ShardSet& shards, int s, int r, const FaultPlan& plan) {
  ShardSet::Replica& rep = *shards.shard(s).replicas[r];
  DM_RETURN_NOT_OK(rep.env->FlushAll());
  FaultInjectingDevice* dev = rep.env->fault_device();
  if (dev == nullptr) {
    return Status::InvalidArgument("replica has no fault device");
  }
  dev->set_plan(plan);
  return Status::OK();
}

Result<ChaosOutcome> RunChaosSchedule(
    ShardSet& shards, const std::vector<QueryRequest>& workload,
    const ShardRouterOptions& router_options, int threads, uint64_t seed,
    double deadline_millis) {
  using Clock = std::chrono::steady_clock;
  DM_RETURN_NOT_OK(ResetShards(shards));
  ShardRouter router(&shards, router_options);

  QueryServiceOptions service_options;
  service_options.num_threads = threads;
  service_options.query.allow_degraded = true;
  QueryService service(&router, service_options);

  const int last = shards.num_shards() - 1;
  const size_t n = workload.size();
  const size_t kill_start = n / 10, kill_end = 2 * n / 5;
  const size_t corrupt_start = 3 * n / 10;
  const size_t storm_start = 11 * n / 20, storm_end = 7 * n / 10;
  const size_t outage_start = 3 * n / 4, outage_end = 17 * n / 20;

  ChaosOutcome out;
  out.latencies.reserve(n);
  const auto run_start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    // Scenario transitions happen at query boundaries (the per-query
    // Drain below guarantees no attempt is in flight on a replica
    // whose plan or admin state changes).
    if (i == kill_start) shards.set_replica_state(0, 0, ReplicaState::kDown);
    if (i == kill_end) DM_RETURN_NOT_OK(shards.RestartReplica(0, 0));
    if (i == corrupt_start) {
      FaultPlan plan;
      plan.seed = seed ^ 0xBADC0DE;
      plan.bit_flip_rate = 1.0;  // every read of this replica is corrupt
      DM_RETURN_NOT_OK(ArmFaults(shards, 1, 0, plan));
    }
    if (i == storm_start) {
      FaultPlan plan;
      plan.seed = seed ^ 0x51055;
      plan.latency_spike_rate = 1.0;
      plan.latency_spike_micros = 20000;
      DM_RETURN_NOT_OK(ArmFaults(shards, 2, 0, plan));
    }
    if (i == storm_end) DM_RETURN_NOT_OK(ArmFaults(shards, 2, 0, FaultPlan{}));
    if (i == outage_start) {
      shards.set_replica_state(last, 0, ReplicaState::kDown);
      shards.set_replica_state(last, 1, ReplicaState::kDown);
    }
    if (i == outage_end) {
      DM_RETURN_NOT_OK(shards.RestartReplica(last, 0));
      DM_RETURN_NOT_OK(shards.RestartReplica(last, 1));
    }

    QueryRequest req = workload[i];
    req.deadline_millis = deadline_millis;
    const auto submit_time = Clock::now();
    Status status = Status::OK();
    bool degraded = false;
    service.Submit(req, [&status, &degraded](const Result<DmQueryResult>& r,
                                             const QueryTiming&) {
      if (!r.ok()) {
        status = r.status();
      } else {
        degraded = r.value().health.degraded;
      }
    });
    service.Drain();
    out.latencies.push_back(std::chrono::duration<double, std::milli>(
                                Clock::now() - submit_time)
                                .count());
    if (!status.ok()) {
      if (status.code() == StatusCode::kDeadlineExceeded ||
          status.code() == StatusCode::kUnavailable) {
        ++out.shed;
      } else {
        ++out.errors;
        std::fprintf(stderr, "query %zu failed: %s\n", i,
                     status.ToString().c_str());
      }
    } else if (degraded) {
      ++out.degraded;
    }
  }
  out.wall_millis = std::chrono::duration<double, std::milli>(Clock::now() -
                                                              run_start)
                        .count();
  out.counters = router.counters();
  service.Shutdown();
  // Disarm before the next run (or teardown) flushes dirty pages.
  DM_RETURN_NOT_OK(ResetShards(shards));
  return out;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

int Main(int argc, char** argv) {
  CliOptions opts;
  if (!ParseArgs(argc, argv, &opts)) return 2;
  uint64_t seed = 0xC4A05;
  if (const char* s = std::getenv("DM_FAULT_SEED")) {
    seed = std::strtoull(s, nullptr, 0);
  }

  DatasetSpec spec = SmallDatasetSpec();
  if (opts.tiny) {
    spec.name = "tiny";
    spec.side = 65;
  }
  std::fprintf(stderr, "[bench] preparing dataset '%s' (%d x %d)...\n",
               spec.name.c_str(), spec.side, spec.side);
  auto ctx_or = BenchContext::Create(BenchDataDir(), spec, DbOptions{});
  if (!ctx_or.ok()) {
    std::fprintf(stderr, "dataset build failed: %s\n",
                 ctx_or.status().ToString().c_str());
    return 1;
  }
  BenchContext ctx = std::move(ctx_or).value();
  BuiltDataset& ds = ctx.mutable_dataset();
  DmStore* store = &ds.dm.value();

  ShardSetOptions shard_options;
  shard_options.shards = opts.shards;
  shard_options.replicas = 2;
  shard_options.db.enable_fault_injection = true;
  shard_options.db.pool_shards = BufferPool::kDefaultShards;
  std::fprintf(stderr, "[bench] sharding into %d x %d replicas...\n",
               shard_options.shards, shard_options.replicas);
  auto shards_or = ShardSet::Build(
      *store, BenchDataDir() + "/chaos_" + spec.name, shard_options);
  if (!shards_or.ok()) {
    std::fprintf(stderr, "shard build failed: %s\n",
                 shards_or.status().ToString().c_str());
    return 1;
  }
  ShardSet& shards = *shards_or.value();

  const std::vector<QueryRequest> workload =
      MakeMixedWorkload(ds.bounds, ds.max_lod, opts.queries, /*seed=*/12345);

  ShardRouterOptions router_options;
  // The breaker opens once on the persistently corrupt replica and
  // stays open for the whole run: deterministic transition counts, and
  // the short-circuit path (not half-open probing) is what this bench
  // measures.
  router_options.breaker.open_millis = 1000L * 1000 * 1000;
  router_options.hedge_min_millis = 5;
  router_options.hedge_max_millis = 100;

  // Identity gate: with every replica healthy, the routed mesh must be
  // byte-identical to the single store's for every query kind.
  const size_t identity_window = std::min<size_t>(8, workload.size());
  bool identity_ok = true;
  {
    ShardRouter router(&shards, router_options);
    DmQueryProcessor routed(&router);
    DmQueryProcessor direct(store);
    for (size_t i = 0; i < identity_window; ++i) {
      auto a = ExecuteRequest(&routed, workload[i]);
      auto b = ExecuteRequest(&direct, workload[i]);
      if (!a.ok() || !b.ok() || !SameMesh(a.value(), b.value())) {
        identity_ok = false;
        std::fprintf(stderr, "identity mismatch on query %zu (%s vs %s)\n", i,
                     a.ok() ? "ok" : a.status().ToString().c_str(),
                     b.ok() ? "ok" : b.status().ToString().c_str());
      }
    }
  }

  // Two identical chaos runs; error-driven counters must replay.
  const double kDeadlineMillis = 500.0;
  auto run1_or = RunChaosSchedule(shards, workload, router_options,
                                  opts.threads, seed, kDeadlineMillis);
  if (!run1_or.ok()) {
    std::fprintf(stderr, "chaos run 1 failed: %s\n",
                 run1_or.status().ToString().c_str());
    return 1;
  }
  auto run2_or = RunChaosSchedule(shards, workload, router_options,
                                  opts.threads, seed, kDeadlineMillis);
  if (!run2_or.ok()) {
    std::fprintf(stderr, "chaos run 2 failed: %s\n",
                 run2_or.status().ToString().c_str());
    return 1;
  }
  const ChaosOutcome& run = run1_or.value();
  const bool deterministic_ok =
      opts.threads == 1
          ? run.SameDeterministicCounters(run2_or.value())
          : true;  // cross-thread interleaving is out of scope
  if (!deterministic_ok) {
    std::fprintf(
        stderr,
        "determinism mismatch: run1 errors=%lld degraded=%lld shed=%lld "
        "missed=%lld failovers=%lld opens=%lld | run2 errors=%lld "
        "degraded=%lld shed=%lld missed=%lld failovers=%lld opens=%lld\n",
        static_cast<long long>(run.errors),
        static_cast<long long>(run.degraded),
        static_cast<long long>(run.shed),
        static_cast<long long>(run.counters.shards_missed),
        static_cast<long long>(run.counters.failovers),
        static_cast<long long>(run.counters.breaker_opens),
        static_cast<long long>(run2_or.value().errors),
        static_cast<long long>(run2_or.value().degraded),
        static_cast<long long>(run2_or.value().shed),
        static_cast<long long>(run2_or.value().counters.shards_missed),
        static_cast<long long>(run2_or.value().counters.failovers),
        static_cast<long long>(run2_or.value().counters.breaker_opens));
  }

  const double q = static_cast<double>(opts.queries);
  const double availability = (q - static_cast<double>(run.errors) -
                               static_cast<double>(run.shed)) /
                              q;
  const double degraded_fraction = static_cast<double>(run.degraded) / q;
  const double qps =
      run.wall_millis > 0 ? 1000.0 * q / run.wall_millis : 0.0;

  std::printf(
      "chaos: queries=%d availability=%.4f errors=%lld degraded=%lld "
      "(%.3f) shed=%lld missed=%lld failovers=%lld hedges=%lld "
      "breaker_opens=%lld short_circuits=%lld budget_denied=%lld "
      "p50=%.2fms p99=%.2fms p999=%.2fms qps=%.1f identity=%d "
      "deterministic=%d\n",
      opts.queries, availability, static_cast<long long>(run.errors),
      static_cast<long long>(run.degraded), degraded_fraction,
      static_cast<long long>(run.shed),
      static_cast<long long>(run.counters.shards_missed),
      static_cast<long long>(run.counters.failovers),
      static_cast<long long>(run.counters.hedges),
      static_cast<long long>(run.counters.breaker_opens),
      static_cast<long long>(run.counters.breaker_short_circuits),
      static_cast<long long>(run.counters.budget_denied),
      Percentile(run.latencies, 0.50), Percentile(run.latencies, 0.99),
      Percentile(run.latencies, 0.999), qps, identity_ok ? 1 : 0,
      deterministic_ok ? 1 : 0);

  BenchJsonWriter writer("bench_chaos");
  writer.Add("queries", static_cast<double>(opts.queries));
  writer.Add("threads", static_cast<double>(opts.threads));
  writer.Add("shards", static_cast<double>(opts.shards));
  writer.Add("replicas", 2.0);
  writer.Add("dataset_side", static_cast<double>(spec.side));
  writer.Add("seed", static_cast<double>(seed));
  writer.Add("availability", availability);
  writer.Add("errors", static_cast<double>(run.errors));
  writer.Add("shed", static_cast<double>(run.shed));
  writer.Add("degraded", static_cast<double>(run.degraded));
  writer.Add("degraded_fraction", degraded_fraction);
  writer.Add("shards_missed", static_cast<double>(run.counters.shards_missed));
  writer.Add("failovers", static_cast<double>(run.counters.failovers));
  writer.Add("hedges", static_cast<double>(run.counters.hedges));
  writer.Add("breaker_opens",
             static_cast<double>(run.counters.breaker_opens));
  writer.Add("breaker_short_circuits",
             static_cast<double>(run.counters.breaker_short_circuits));
  writer.Add("budget_denied",
             static_cast<double>(run.counters.budget_denied));
  writer.Add("attempts", static_cast<double>(run.counters.attempts));
  writer.Add("fanouts", static_cast<double>(run.counters.fanouts));
  writer.Add("p50_millis", Percentile(run.latencies, 0.50));
  writer.Add("p99_millis", Percentile(run.latencies, 0.99));
  writer.Add("p999_millis", Percentile(run.latencies, 0.999));
  writer.Add("qps", qps);
  writer.Add("identity_ok", identity_ok ? 1.0 : 0.0);
  writer.Add("deterministic_ok", deterministic_ok ? 1.0 : 0.0);
  if (!writer.WriteFile(opts.out)) return 1;
  return identity_ok && deterministic_ok && run.errors == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dm::bench

int main(int argc, char** argv) { return dm::bench::Main(argc, argv); }
