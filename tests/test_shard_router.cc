#include "server/shard_router.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dm/dm_query.h"
#include "dm/dm_store.h"
#include "dm/invariants.h"
#include "server/query_service.h"
#include "server/shard_set.h"
#include "storage/fault_env.h"
#include "test_util.h"

namespace dm {
namespace {

using testing::MakeScene;
using testing::OpenTempEnv;
using testing::Scene;

using steady = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// CircuitBreaker under a manual clock: the full state machine without
// a single sleep.

struct ManualClock {
  steady::time_point now{};
  RouterClock fn() {
    return [this] { return now; };
  }
  void AdvanceMillis(int64_t ms) { now += std::chrono::milliseconds(ms); }
};

TEST(CircuitBreakerTest, TripsAfterMinSamplesAtThreshold) {
  ManualClock clk;
  CircuitBreakerOptions opt;
  opt.window = 8;
  opt.min_samples = 4;
  opt.error_threshold = 0.5;
  CircuitBreaker b(opt, clk.fn());

  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  // Three failures: below min_samples, still closed.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(b.Allow());
    b.RecordFailure();
  }
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  // Fourth failure reaches min_samples with a 100% error rate: open.
  b.RecordFailure();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.opens(), 1);
  EXPECT_FALSE(b.Allow());
}

TEST(CircuitBreakerTest, SuccessesBelowThresholdKeepItClosed) {
  ManualClock clk;
  CircuitBreakerOptions opt;
  opt.window = 8;
  opt.min_samples = 4;
  opt.error_threshold = 0.5;
  CircuitBreaker b(opt, clk.fn());

  // The trip condition is failures >= threshold * count, so exactly
  // 50% errors trips; a 1-in-4 failure pattern stays strictly below
  // at every prefix and across window eviction.
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(b.Allow());
    if (i % 4 == 0) {
      b.RecordFailure();
    } else {
      b.RecordSuccess();
    }
    EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed) << "i = " << i;
  }
  EXPECT_EQ(b.opens(), 0);
}

TEST(CircuitBreakerTest, HalfOpenProbeSuccessCloses) {
  ManualClock clk;
  CircuitBreakerOptions opt;
  opt.window = 8;
  opt.min_samples = 2;
  opt.error_threshold = 0.5;
  opt.open_millis = 100;
  CircuitBreaker b(opt, clk.fn());

  b.RecordFailure();
  b.RecordFailure();
  ASSERT_EQ(b.state(), CircuitBreaker::State::kOpen);

  // Hold time not yet elapsed: still short-circuiting.
  clk.AdvanceMillis(99);
  EXPECT_FALSE(b.Allow());
  // Hold time elapsed: exactly one probe is admitted.
  clk.AdvanceMillis(1);
  EXPECT_TRUE(b.Allow());
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(b.Allow()) << "second probe admitted while one is in flight";

  b.RecordSuccess();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.opens(), 1);
  // The window was wiped on close: old failures must not linger.
  EXPECT_TRUE(b.Allow());
  b.RecordFailure();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens) {
  ManualClock clk;
  CircuitBreakerOptions opt;
  opt.window = 8;
  opt.min_samples = 2;
  opt.error_threshold = 0.5;
  opt.open_millis = 50;
  CircuitBreaker b(opt, clk.fn());

  b.RecordFailure();
  b.RecordFailure();
  ASSERT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.opens(), 1);

  clk.AdvanceMillis(50);
  EXPECT_TRUE(b.Allow());
  b.RecordFailure();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(b.opens(), 2);
  // A fresh hold period: closed again only via a later probe success.
  EXPECT_FALSE(b.Allow());
  clk.AdvanceMillis(50);
  EXPECT_TRUE(b.Allow());
  b.RecordSuccess();
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, StaleFailureWhileOpenIsIgnored) {
  ManualClock clk;
  CircuitBreakerOptions opt;
  opt.min_samples = 2;
  opt.error_threshold = 0.5;
  opt.open_millis = 100;
  CircuitBreaker b(opt, clk.fn());

  b.RecordFailure();
  b.RecordFailure();
  ASSERT_EQ(b.state(), CircuitBreaker::State::kOpen);
  // An attempt that was in flight when the breaker tripped reports its
  // failure late: it must not restart the hold period or re-count.
  b.RecordFailure();
  EXPECT_EQ(b.opens(), 1);
  clk.AdvanceMillis(100);
  EXPECT_TRUE(b.Allow());
}

TEST(RetryBudgetTest, BurstThenRatio) {
  RetryBudget budget(0.5, 2);
  // Burst only: two retries allowed with zero first attempts.
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());
  // Four first attempts grow the allowance by ratio * 4 = 2.
  for (int i = 0; i < 4; ++i) budget.NoteAttempt();
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_TRUE(budget.TryAcquire());
  EXPECT_FALSE(budget.TryAcquire());
  EXPECT_EQ(budget.spent(), 4);
}

TEST(LatencyTrackerTest, DefaultUntilSamplesThenP95) {
  LatencyTracker t(/*window=*/8, /*default_millis=*/20.0);
  EXPECT_DOUBLE_EQ(t.P95Millis(), 20.0);
  for (double ms : {1.0, 2.0, 3.0, 4.0, 100.0}) t.Record(ms);
  // 5 samples, idx = min(4, size_t(4.75)) = 4 -> the slowest.
  EXPECT_DOUBLE_EQ(t.P95Millis(), 100.0);
  // The window evicts: eight fast samples push the spike out.
  for (int i = 0; i < 8; ++i) t.Record(2.0);
  EXPECT_DOUBLE_EQ(t.P95Millis(), 2.0);
}

// ---------------------------------------------------------------------------
// Router over a real ShardSet: geometry identity, failover, outage
// degradation, hedging, drain, and counter determinism.

constexpr int kShards = 4;
constexpr int kReplicas = 2;

class ShardRouterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scene_ = new Scene(MakeScene(33));
    env_ = OpenTempEnv("shard_router_src").release();
    auto store_or =
        DmStore::Build(env_, scene_->base, scene_->tree, scene_->sr);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    store_ = new DmStore(std::move(store_or).value());

    ShardSetOptions opt;
    opt.shards = kShards;
    opt.replicas = kReplicas;
    opt.db.enable_fault_injection = true;
    const char* tmp = std::getenv("TMPDIR");
    const std::string base = std::string(tmp != nullptr ? tmp : "/tmp") +
                             "/dm_test_shardset_" +
                             std::to_string(::getpid());
    auto set_or = ShardSet::Build(*store_, base, opt);
    ASSERT_TRUE(set_or.ok()) << set_or.status().ToString();
    shards_ = set_or.value().release();
  }
  static void TearDownTestSuite() {
    delete shards_;
    delete store_;
    delete env_;
    delete scene_;
  }

  // Every test starts from a healthy fleet: all replicas up, fault
  // plans disarmed, replica caches cold, fault/IO stats rewound.
  void SetUp() override {
    for (int s = 0; s < shards_->num_shards(); ++s) {
      for (int r = 0; r < shards_->replicas_per_shard(); ++r) {
        auto& rep = *shards_->shard(s).replicas[r];
        if (auto* dev = rep.env->fault_device()) {
          dev->set_plan(FaultPlan{});
          dev->ResetStats();
        }
        ASSERT_TRUE(rep.env->FlushAll().ok());
        rep.env->ResetStats();
        shards_->set_replica_state(s, r, ReplicaState::kUp);
      }
    }
  }

  static Rect Roi(double f0x, double f0y, double f1x, double f1y) {
    const Rect b = scene_->tree.bounds();
    return Rect::Of(b.lo_x + f0x * b.width(), b.lo_y + f0y * b.height(),
                    b.lo_x + f1x * b.width(), b.lo_y + f1y * b.height());
  }

  // The four query kinds over most of the footprint (intersecting all
  // shards), exercised by every identity test.
  static std::vector<QueryRequest> IdentityWorkload() {
    std::vector<QueryRequest> w;
    const double max_lod = scene_->tree.max_lod();
    QueryRequest uni;
    uni.kind = QueryRequest::Kind::kUniform;
    uni.roi = Roi(0.05, 0.05, 0.95, 0.95);
    uni.e = 0.05 * max_lod;
    w.push_back(uni);

    QueryRequest view;
    view.kind = QueryRequest::Kind::kView;
    view.view.roi = Roi(0.1, 0.1, 0.9, 0.9);
    view.view.e_min = 0.01 * max_lod;
    view.view.e_max = 0.5 * max_lod;
    w.push_back(view);

    QueryRequest mb = view;
    mb.multi_base = true;
    w.push_back(mb);

    QueryRequest persp;
    persp.kind = QueryRequest::Kind::kPerspective;
    persp.perspective.roi = Roi(0.0, 0.0, 1.0, 1.0);
    const Rect b = scene_->tree.bounds();
    persp.perspective.viewer = {b.lo_x + 0.3 * b.width(),
                                b.lo_y + 0.4 * b.height()};
    persp.perspective.tolerance = 0.05;
    persp.perspective.e_cap = max_lod;
    w.push_back(persp);
    return w;
  }

  static void ExpectSameMesh(const DmQueryResult& a, const DmQueryResult& b,
                             const char* what) {
    EXPECT_EQ(a.vertices, b.vertices) << what;
    ASSERT_EQ(a.positions.size(), b.positions.size()) << what;
    ASSERT_EQ(a.triangles.size(), b.triangles.size()) << what;
    if (!a.positions.empty()) {
      EXPECT_EQ(std::memcmp(a.positions.data(), b.positions.data(),
                            a.positions.size() * sizeof(Point3)),
                0)
          << what;
    }
    if (!a.triangles.empty()) {
      EXPECT_EQ(std::memcmp(a.triangles.data(), b.triangles.data(),
                            a.triangles.size() * sizeof(Triangle)),
                0)
          << what;
    }
  }

  // Runs the identity workload through `router` and asserts each
  // result is byte-identical to the single-store mesh.
  static void ExpectRoutedIdentity(ShardRouter& router, const char* what) {
    DmQueryProcessor direct(store_);
    DmQueryProcessor routed(&router);
    int i = 0;
    for (const QueryRequest& q : IdentityWorkload()) {
      auto want_or = ExecuteRequest(&direct, q);
      auto got_or = ExecuteRequest(&routed, q);
      ASSERT_TRUE(want_or.ok()) << what << " direct[" << i << "]: "
                                << want_or.status().ToString();
      ASSERT_TRUE(got_or.ok()) << what << " routed[" << i << "]: "
                               << got_or.status().ToString();
      EXPECT_FALSE(got_or.value().health.degraded)
          << what << " query " << i << " degraded";
      ExpectSameMesh(want_or.value(), got_or.value(), what);
      ++i;
    }
  }

  static FaultInjectingDevice* Device(int s, int r) {
    return shards_->shard(s).replicas[r]->env->fault_device();
  }

  // Arms `plan` on replica (s, r); FlushAll first so subsequent reads
  // actually reach the device instead of the warm buffer pool.
  static void ArmFaults(int s, int r, const FaultPlan& plan) {
    auto& rep = *shards_->shard(s).replicas[r];
    ASSERT_TRUE(rep.env->FlushAll().ok());
    Device(s, r)->set_plan(plan);
  }

  static Scene* scene_;
  static DbEnv* env_;
  static DmStore* store_;
  static ShardSet* shards_;
};
Scene* ShardRouterTest::scene_ = nullptr;
DbEnv* ShardRouterTest::env_ = nullptr;
DmStore* ShardRouterTest::store_ = nullptr;
ShardSet* ShardRouterTest::shards_ = nullptr;

TEST_F(ShardRouterTest, BuildPartitionsEveryNodeExactlyOnce) {
  ASSERT_EQ(shards_->num_shards(), kShards);
  ASSERT_EQ(shards_->replicas_per_shard(), kReplicas);
  int64_t total = 0;
  for (int s = 0; s < kShards; ++s) {
    const auto& shard = shards_->shard(s);
    EXPECT_GT(shard.meta.num_nodes, 0) << "shard " << s << " empty";
    EXPECT_EQ(shard.meta.id_space, shards_->source_meta().num_nodes)
        << "shard " << s << " id_space";
    total += shard.meta.num_nodes;
  }
  EXPECT_EQ(total, shards_->source_meta().num_nodes);
}

TEST_F(ShardRouterTest, EveryShardReplicaPassesInvariantAudit) {
  // Partial-store mode (meta.id_space > 0): parent/child/connection
  // targets legitimately cross region boundaries, everything else must
  // hold per shard.
  for (int s = 0; s < kShards; ++s) {
    for (int r = 0; r < kReplicas; ++r) {
      auto report_or = VerifyDmStore(*shards_->shard(s).replicas[r]->store);
      ASSERT_TRUE(report_or.ok())
          << "s" << s << ".r" << r << ": " << report_or.status().ToString();
      EXPECT_TRUE(report_or.value().ok())
          << "s" << s << ".r" << r << ": " << report_or.value().ToString();
    }
  }
}

TEST_F(ShardRouterTest, CleanPathIsByteIdenticalToSingleStore) {
  ShardRouter router(shards_);
  ExpectRoutedIdentity(router, "clean");
  const RouterCounters c = router.counters();
  EXPECT_EQ(c.failovers, 0);
  EXPECT_EQ(c.breaker_opens, 0);
  EXPECT_EQ(c.shards_missed, 0);
  EXPECT_EQ(c.degraded_merges, 0);
  EXPECT_GT(c.fanouts, 0);
  EXPECT_GE(c.attempts, c.fanouts);
}

TEST_F(ShardRouterTest, AdminDownReplicaIsSkippedWithoutFailover) {
  // Kill one replica of every shard: the sibling serves everything,
  // byte-identically, and an administrative skip is not a failover.
  for (int s = 0; s < kShards; ++s) {
    shards_->set_replica_state(s, 0, ReplicaState::kDown);
  }
  ShardRouter router(shards_);
  ExpectRoutedIdentity(router, "one replica down per shard");
  const RouterCounters c = router.counters();
  EXPECT_EQ(c.failovers, 0);
  EXPECT_EQ(c.shards_missed, 0);
}

TEST_F(ShardRouterTest, WholeShardOutageDegradesOrFailsStrict) {
  for (int r = 0; r < kReplicas; ++r) {
    shards_->set_replica_state(0, r, ReplicaState::kDown);
  }
  ShardRouter router(shards_);

  QueryRequest q;
  q.kind = QueryRequest::Kind::kUniform;
  q.roi = Roi(0.0, 0.0, 1.0, 1.0);
  q.e = 0.05 * scene_->tree.max_lod();

  // Strict mode: the missing region fails the query outright.
  {
    DmQueryProcessor proc(&router);
    auto r_or = ExecuteRequest(&proc, q);
    EXPECT_FALSE(r_or.ok());
  }
  // Degraded mode: a legal, sparser mesh with the loss accounted.
  {
    DmQueryOptions opt;
    opt.allow_degraded = true;
    DmQueryProcessor proc(&router, opt);
    auto r_or = ExecuteRequest(&proc, q);
    ASSERT_TRUE(r_or.ok()) << r_or.status().ToString();
    const DmQueryResult& res = r_or.value();
    EXPECT_TRUE(res.health.degraded);
    EXPECT_GE(res.health.shards_missed, 1);
    EXPECT_GT(res.vertices.size(), 0u);
    EXPECT_GT(res.triangles.size(), 0u);
  }
  const RouterCounters c = router.counters();
  EXPECT_GE(c.shards_missed, 1);
}

TEST_F(ShardRouterTest, CorruptReplicaFailsOverByteIdentically) {
  // Persistent single-bit corruption on shard 1, replica 0: every read
  // from it fails its checksum, the router fails over to the sibling,
  // and the merged result stays byte-identical to the single store.
  FaultPlan plan;
  plan.seed = 0xBADC0DE;
  plan.bit_flip_rate = 1.0;
  ArmFaults(1, 0, plan);

  ShardRouterOptions opt;
  opt.breaker.open_millis = 1000L * 1000 * 1000;  // open once, stay open
  // Error failover is the subject here, not hedging: park the
  // wall-clock hedge timeout (and the budget it would spend) out of
  // reach so attempts stay schedule-driven under sanitizer slowdown.
  opt.hedge_min_millis = 1000L * 1000 * 1000;
  opt.hedge_max_millis = 1000L * 1000 * 1000;
  opt.retry_burst = 1 << 20;
  ShardRouter router(shards_, opt);
  // Two passes: replica rotation guarantees the corrupt replica is
  // attempted, and repeated failures trip its error breaker.
  for (int pass = 0; pass < 4; ++pass) {
    ExpectRoutedIdentity(router, "corrupt replica");
  }
  const RouterCounters c = router.counters();
  EXPECT_GE(c.failovers, 1);
  EXPECT_EQ(c.breaker_opens, 1);
  EXPECT_GE(c.breaker_short_circuits, 1);
  EXPECT_EQ(c.shards_missed, 0);
  EXPECT_EQ(router.breaker(1, 0).state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(router.breaker(1, 1).state(), CircuitBreaker::State::kClosed);
}

TEST_F(ShardRouterTest, SlowReplicaIsHedgedToTheSibling) {
  // A 20ms latency spike on every device op of shard 2, replica 0,
  // with a hedge cap of 5ms: any attempt landing there exceeds its
  // per-attempt deadline and is re-issued against the healthy sibling.
  FaultPlan plan;
  plan.seed = 0x51055;
  plan.latency_spike_rate = 1.0;
  plan.latency_spike_micros = 20000;
  ArmFaults(2, 0, plan);

  ShardRouterOptions opt;
  opt.default_latency_millis = 1.0;
  opt.hedge_factor = 1.0;
  opt.hedge_min_millis = 2;
  opt.hedge_max_millis = 5;
  // Under a sanitizer even healthy attempts can exceed the 5ms hedge
  // cap, so every fetch may cost a second attempt; the budget is not
  // this test's subject, so keep it from refusing those retries.
  opt.retry_burst = 1 << 20;
  ShardRouter router(shards_, opt);
  ExpectRoutedIdentity(router, "slow replica");
  ExpectRoutedIdentity(router, "slow replica pass 2");
  const RouterCounters c = router.counters();
  EXPECT_GE(c.hedges, 1);
  // Slowness is the hedge's problem, not the breaker's: hedge trips
  // must never open the error breaker.
  EXPECT_EQ(c.breaker_opens, 0);
  EXPECT_EQ(router.breaker(2, 0).state(), CircuitBreaker::State::kClosed);
}

TEST_F(ShardRouterTest, DrainStopsRoutingThenRestartRejoins) {
  ShardRouter router(shards_);
  ASSERT_TRUE(router.Drain(3, 0).ok());
  EXPECT_EQ(shards_->replica_state(3, 0), ReplicaState::kDown);
  EXPECT_EQ(router.inflight(3, 0), 0);

  ExpectRoutedIdentity(router, "drained replica");
  // No failovers: a drained replica is skipped administratively.
  EXPECT_EQ(router.counters().failovers, 0);

  ASSERT_TRUE(shards_->RestartReplica(3, 0).ok());
  EXPECT_EQ(shards_->replica_state(3, 0), ReplicaState::kUp);
  ExpectRoutedIdentity(router, "restarted replica");
}

TEST_F(ShardRouterTest, FaultCountersAreDeterministicAcrossRuns) {
  // Same fault schedule, same query sequence, fresh router: the
  // deterministic counter set must replay exactly.
  auto run = [&](RouterCounters* out) {
    SetUp();  // rewind fleet state
    FaultPlan plan;
    plan.seed = 0xBADC0DE;
    plan.bit_flip_rate = 1.0;
    ArmFaults(1, 0, plan);
    ShardRouterOptions opt;
    opt.breaker.open_millis = 1000L * 1000 * 1000;
    // Determinism is claimed for the *schedule-driven* counters only:
    // hedge trips are wall-clock-driven (and consume retry budget), so
    // park the hedge timeout and budget out of reach to keep attempt
    // counts replayable under sanitizer slowdown.
    opt.hedge_min_millis = 1000L * 1000 * 1000;
    opt.hedge_max_millis = 1000L * 1000 * 1000;
    opt.retry_burst = 1 << 20;
    ShardRouter router(shards_, opt);
    DmQueryProcessor proc(&router);
    for (int pass = 0; pass < 3; ++pass) {
      for (const QueryRequest& q : IdentityWorkload()) {
        auto r_or = ExecuteRequest(&proc, q);
        ASSERT_TRUE(r_or.ok()) << r_or.status().ToString();
      }
    }
    *out = router.counters();
  };
  RouterCounters a;
  RouterCounters b;
  run(&a);
  run(&b);
  EXPECT_EQ(a.fanouts, b.fanouts);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.breaker_opens, b.breaker_opens);
  EXPECT_EQ(a.breaker_short_circuits, b.breaker_short_circuits);
  EXPECT_EQ(a.shards_missed, b.shards_missed);
  EXPECT_EQ(a.degraded_merges, b.degraded_merges);
}

TEST_F(ShardRouterTest, RetryBudgetBoundsFailoverAmplification) {
  // Corrupt BOTH replicas of a shard and give the router almost no
  // retry budget: once the budget is spent, secondary attempts are
  // refused and the shard degrades instead of amplifying load.
  FaultPlan plan;
  plan.seed = 0xDEAD;
  plan.bit_flip_rate = 1.0;
  ArmFaults(0, 0, plan);
  ArmFaults(0, 1, plan);

  ShardRouterOptions opt;
  opt.retry_ratio = 0.0;
  opt.retry_burst = 1;
  opt.breaker.min_samples = 1000000;  // keep breakers out of the picture
  ShardRouter router(shards_, opt);

  DmQueryOptions qopt;
  qopt.allow_degraded = true;
  DmQueryProcessor proc(&router, qopt);
  QueryRequest q;
  q.kind = QueryRequest::Kind::kUniform;
  q.roi = Roi(0.0, 0.0, 1.0, 1.0);
  q.e = 0.05 * scene_->tree.max_lod();
  for (int i = 0; i < 6; ++i) {
    auto r_or = ExecuteRequest(&proc, q);
    ASSERT_TRUE(r_or.ok()) << r_or.status().ToString();
  }
  const RouterCounters c = router.counters();
  EXPECT_GE(c.budget_denied, 1);
  // Spent retries never exceed burst + ratio * first attempts.
  EXPECT_LE(c.attempts, c.fanouts * kShards + opt.retry_burst);
}

// ---------------------------------------------------------------------------
// QueryService over the router: deadline propagation and a
// multi-threaded smoke for the tsan job.

TEST_F(ShardRouterTest, QueryServiceShedsAQueryWhoseDeadlineExpiredInQueue) {
  ShardRouter router(shards_);
  QueryServiceOptions opt;
  opt.num_threads = 1;
  QueryService service(&router, opt);

  QueryRequest q;
  q.kind = QueryRequest::Kind::kUniform;
  q.roi = Roi(0.2, 0.2, 0.8, 0.8);
  q.e = 0.1 * scene_->tree.max_lod();
  q.deadline_millis = 1e-6;  // expired by the time any worker dequeues

  Status got = Status::OK();
  ASSERT_TRUE(service.Submit(q, [&](const Result<DmQueryResult>& r,
                                    const QueryTiming&) {
    got = r.ok() ? Status::OK() : r.status();
  }));
  service.Drain();
  EXPECT_EQ(got.code(), StatusCode::kDeadlineExceeded) << got.ToString();
  EXPECT_EQ(service.health().shed, 1);
  EXPECT_EQ(service.health().errors, 0);
}

TEST_F(ShardRouterTest, ConcurrentChaosServingSmoke) {
  // The tsan target: four workers hammer the router while one replica
  // is corrupt and another is admin-down, exercising the breakers,
  // the retry budget, the rotation counters, and Drain concurrently.
  FaultPlan plan;
  plan.seed = 0xC0FFEE;
  plan.bit_flip_rate = 1.0;
  ArmFaults(1, 0, plan);
  shards_->set_replica_state(0, 0, ReplicaState::kDown);

  ShardRouter router(shards_);
  QueryServiceOptions opt;
  opt.num_threads = 4;
  opt.query.allow_degraded = true;
  QueryService service(&router, opt);

  const auto workload = MakeMixedWorkload(scene_->tree.bounds(),
                                          scene_->tree.max_lod(),
                                          /*count=*/48, /*seed=*/4242);
  std::atomic<int64_t> failed{0};
  for (QueryRequest q : workload) {
    q.deadline_millis = 5000.0;
    ASSERT_TRUE(service.Submit(std::move(q), [&](const Result<DmQueryResult>& r,
                                                 const QueryTiming&) {
      if (!r.ok()) failed.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  service.Drain();
  ASSERT_TRUE(router.Drain(3, 1).ok());
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(service.health().errors, 0);
  EXPECT_EQ(service.health().shed, 0);
  EXPECT_EQ(service.completed(), static_cast<int64_t>(workload.size()));
}

}  // namespace
}  // namespace dm
