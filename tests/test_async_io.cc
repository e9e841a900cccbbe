// Async page I/O (DESIGN.md §13): batched submission, backend parity,
// per-completion fault handling, prefetch accounting, and the promise
// that matters most — queries reading through an async device return
// geometry byte-identical to the same engine reading synchronously.
//
// Every pool-level test runs once per backend ("threadpool" always;
// "uring" when the kernel supports it), so CI exercises both with one
// binary. DM_ASYNC_BACKEND is deliberately not consulted here: the
// backend under test is explicit.

#include "storage/async_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dm/dm_query.h"
#include "dm/dm_store.h"
#include "storage/buffer_pool.h"
#include "storage/db_env.h"
#include "storage/disk_manager.h"
#include "storage/fault_env.h"
#include "test_util.h"

namespace dm {
namespace {

using testing::MakeScene;
using testing::OpenTempEnv;
using testing::Scene;
using testing::TempDbPath;

// ---- backend selection ---------------------------------------------

TEST(AsyncBackend, SelectionAndFallback) {
  // Explicit "off" (not "") so a DM_ASYNC_BACKEND from the CI matrix
  // cannot preempt the selection sequence this test walks through.
  DbOptions options;
  options.async_backend = "off";
  auto env = OpenTempEnv("async_select", options);
  EXPECT_EQ(env->async_device(), nullptr) << "async_backend=off binds none";

  EXPECT_STREQ(env->EnableAsync("threadpool"), "threadpool");
  ASSERT_NE(env->async_device(), nullptr);
  EXPECT_STREQ(env->async_device()->backend_name(), "threadpool");

  // "uring"/"auto" run io_uring when the kernel has it and otherwise
  // fall back — either way a device comes up.
  const char* actual = env->EnableAsync("auto");
  if (UringSupported()) {
    EXPECT_STREQ(actual, "uring");
  } else {
    EXPECT_STREQ(actual, "threadpool");
  }
  ASSERT_NE(env->async_device(), nullptr);

  env->DisableAsync();
  EXPECT_EQ(env->async_device(), nullptr);
}

// ---- pool-level fixture --------------------------------------------

// A patterned page file under a small pool with an async device bound:
// page k holds byte pattern (k * 37 + 11) & 0xff across its logical
// bytes, stamped and flushed so checksum verification passes.
class AsyncIoTest : public ::testing::TestWithParam<const char*> {
 protected:
  static constexpr uint32_t kPageSize = 512;
  static constexpr uint32_t kPoolPages = 32;
  static constexpr int kDataPages = 64;

  void SetUp() override {
    if (std::string(GetParam()) == "uring" && !UringSupported()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel";
    }
    path_ = TempDbPath(std::string("async_io_") + GetParam());
    auto disk_or = DiskManager::Open(path_, kPageSize, /*truncate=*/true);
    ASSERT_TRUE(disk_or.ok()) << disk_or.status().ToString();
    disk_ = std::move(disk_or).value();
    pool_ = std::make_unique<BufferPool>(disk_.get(), kPoolPages);
    for (int k = 0; k < kDataPages; ++k) {
      auto g = pool_->NewPage();
      ASSERT_TRUE(g.ok()) << g.status().ToString();
      ASSERT_EQ(g.value().id(), static_cast<PageId>(k));
      std::memset(g.value().data(), PatternByte(k),
                  pool_->logical_page_size());
      g.value().MarkDirty();
    }
    ASSERT_TRUE(pool_->FlushAll().ok());
    device_ = CreateAsyncPageDevice(disk_.get(), GetParam(),
                                    /*io_threads=*/0);
    ASSERT_NE(device_, nullptr);
    ASSERT_STREQ(device_->backend_name(), GetParam());
    pool_->set_async_device(device_.get());
  }

  void TearDown() override {
    if (pool_ != nullptr) pool_->set_async_device(nullptr);
    device_.reset();
    pool_.reset();
    disk_.reset();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  static uint8_t PatternByte(PageId id) {
    return static_cast<uint8_t>((id * 37 + 11) & 0xff);
  }

  void ExpectPageBytes(const PageGuard& g) {
    ASSERT_TRUE(g.valid());
    const uint8_t want = PatternByte(g.id());
    const uint8_t* data = g.data();
    for (uint32_t i = 0; i < pool_->logical_page_size(); ++i) {
      ASSERT_EQ(data[i], want) << "page " << g.id() << " byte " << i;
    }
  }

  std::string path_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<AsyncPageDevice> device_;
};

// Every run of a batch is delivered exactly once, guards arrive in
// ascending page order within the run, bytes match the synchronous
// read path, and repeated batches over a small pool neither leak pins
// nor exhaust frames.
TEST_P(AsyncIoTest, BatchedRunsDeliverOnceInOrderWithSyncParity) {
  const std::vector<BufferPool::RunRequest> runs = {
      {0, 4}, {10, 1}, {20, 8}, {40, 3}, {50, 6}, {63, 1}};
  for (int iter = 0; iter < 20; ++iter) {
    ASSERT_TRUE(pool_->FlushAll().ok());
    std::vector<int> seen(runs.size(), 0);
    const Status st = pool_->FetchRuns(
        runs.data(), runs.size(),
        [&](size_t ri, Status s, std::vector<PageGuard>* guards) {
          ASSERT_TRUE(s.ok()) << s.ToString();
          ++seen[ri];
          ASSERT_EQ(guards->size(), runs[ri].n);
          for (uint32_t i = 0; i < runs[ri].n; ++i) {
            ASSERT_EQ((*guards)[i].id(), runs[ri].first + i);
            ExpectPageBytes((*guards)[i]);
          }
          guards->clear();  // drop pins inside the window
        });
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (size_t ri = 0; ri < runs.size(); ++ri) {
      EXPECT_EQ(seen[ri], 1) << "run " << ri << " iter " << iter;
    }
  }
  // Pins balanced: the whole pool must still be reclaimable.
  for (int k = 0; k < kDataPages; ++k) {
    auto g = pool_->Fetch(static_cast<PageId>(k));
    ASSERT_TRUE(g.ok()) << g.status().ToString();
  }
}

// One batch of misses costs one device submission (no per-run
// doorbells), and accounting matches the sync path: one logical fetch
// per page, one disk read per miss, resident pages re-pinned free.
TEST_P(AsyncIoTest, SubmitsOneBatchAndCountsLikeSyncPath) {
  ASSERT_TRUE(pool_->FlushAll().ok());
  device_->ResetStats();
  pool_->ResetStats();
  const std::vector<BufferPool::RunRequest> runs = {{0, 4}, {8, 4}, {16, 4}};
  auto fetch = [&] {
    return pool_->FetchRuns(
        runs.data(), runs.size(),
        [&](size_t ri, Status s, std::vector<PageGuard>* guards) {
          ASSERT_TRUE(s.ok()) << "run " << ri << ": " << s.ToString();
          guards->clear();
        });
  };
  ASSERT_TRUE(fetch().ok());
  AsyncIoStats as = device_->stats();
  EXPECT_EQ(as.submissions, 1) << "cold batch must submit once";
  EXPECT_EQ(as.requests, 3) << "each missing run coalesces to one read";
  EXPECT_EQ(as.completions, 3);
  IoStats io = pool_->stats();
  EXPECT_EQ(io.disk_reads, 12);
  EXPECT_EQ(io.logical_fetches, 12);

  // Warm repeat: everything resident, the device is not touched.
  ASSERT_TRUE(fetch().ok());
  as = device_->stats();
  EXPECT_EQ(as.submissions, 1);
  EXPECT_EQ(as.requests, 3);
  io = pool_->stats();
  EXPECT_EQ(io.disk_reads, 12);
  EXPECT_EQ(io.logical_fetches, 24);
}

// With simulated per-read latency the pool slices misses into single
// pages so their latencies overlap; the device's in-flight high-water
// mark proves reads were actually concurrent (no wall-clock timing —
// hwm is deterministic where timing is flaky).
TEST_P(AsyncIoTest, SimulatedLatencyOverlapsReads) {
  disk_->set_simulated_read_latency_micros(200);
  ASSERT_TRUE(pool_->FlushAll().ok());
  device_->ResetStats();
  const BufferPool::RunRequest run = {0, 16};
  const Status st = pool_->FetchRuns(
      &run, 1, [&](size_t, Status s, std::vector<PageGuard>* guards) {
        ASSERT_TRUE(s.ok()) << s.ToString();
        ASSERT_EQ(guards->size(), 16u);
        for (const PageGuard& g : *guards) ExpectPageBytes(g);
        guards->clear();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  const AsyncIoStats as = device_->stats();
  EXPECT_EQ(as.requests, 16) << "latency > 0 must slice per page";
  EXPECT_GE(as.inflight_hwm, 4) << "sliced reads never overlapped";
  disk_->set_simulated_read_latency_micros(0);
}

// Prefetched pages install at low priority, count as prefetch_reads
// (not disk_reads), and a later demand fetch converts them to hits.
TEST_P(AsyncIoTest, PrefetchInstallsThenHits) {
  ASSERT_TRUE(pool_->FlushAll().ok());
  pool_->ResetStats();
  pool_->Prefetch(4, 4);
  pool_->DrainPrefetch();
  IoStats io = pool_->stats();
  EXPECT_EQ(io.prefetch_reads, 4);
  EXPECT_EQ(io.disk_reads, 0) << "speculative reads are not demand reads";
  EXPECT_EQ(io.prefetch_hits, 0);
  for (PageId id = 4; id < 8; ++id) {
    auto g = pool_->Fetch(id);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    ExpectPageBytes(g.value());
  }
  io = pool_->stats();
  EXPECT_EQ(io.prefetch_hits, 4);
  EXPECT_EQ(io.disk_reads, 0) << "hits must absorb the demand fetch";
  // A second Prefetch of resident pages is a no-op, not waste.
  pool_->Prefetch(4, 4);
  pool_->DrainPrefetch();
  EXPECT_EQ(pool_->stats().prefetch_reads, 4);
}

INSTANTIATE_TEST_SUITE_P(Backends, AsyncIoTest,
                         ::testing::Values("threadpool", "uring"));

// ---- faults through the async path ---------------------------------

// Same fixture shape as test_faults, with the async device layered
// over the fault shim so every completion draws the shim's schedule.
class AsyncFaultTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "uring" && !UringSupported()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel";
    }
    DbOptions options;
    options.pool_pages = 32;
    options.enable_fault_injection = true;
    env_ = OpenTempEnv(std::string("async_fault_") + GetParam(), options);
    device_ = env_->fault_device();
    ASSERT_NE(device_, nullptr);
    for (int k = 0; k < 64; ++k) {
      auto g = env_->pool().NewPage();
      ASSERT_TRUE(g.ok()) << g.status().ToString();
      std::memset(g.value().data(), static_cast<uint8_t>(k + 1),
                  env_->pool().logical_page_size());
      g.value().MarkDirty();
    }
    ASSERT_TRUE(env_->FlushAll().ok());
    const char* actual = env_->EnableAsync(GetParam());
    ASSERT_STREQ(actual, GetParam());
  }

  // Fetches pages [0, 64) as 8-page runs; returns the per-run statuses
  // in run order and asserts FetchRuns itself stayed OK.
  std::vector<Status> FetchAll() {
    std::vector<BufferPool::RunRequest> runs;
    for (PageId first = 0; first < 64; first += 8) runs.push_back({first, 8});
    std::vector<Status> out(runs.size());
    const Status st = env_->pool().FetchRuns(
        runs.data(), runs.size(),
        [&](size_t ri, Status s, std::vector<PageGuard>* guards) {
          if (s.ok()) {
            EXPECT_EQ(guards->size(), 8u);
            for (uint32_t i = 0; i < 8; ++i) {
              // No silent escape: bytes of a successful run are intact.
              EXPECT_EQ((*guards)[i].data()[0],
                        static_cast<uint8_t>(runs[ri].first + i + 1));
            }
          } else {
            EXPECT_TRUE(guards->empty()) << "failed run must deliver no pins";
          }
          out[ri] = std::move(s);
          guards->clear();
        });
    EXPECT_TRUE(st.ok()) << st.ToString();
    return out;
  }

  std::unique_ptr<DbEnv> env_;
  FaultInjectingDevice* device_ = nullptr;
};

TEST_P(AsyncFaultTest, TransientsAreRetriedPerCompletion) {
  FaultPlan plan;
  plan.seed = 7;
  plan.read_transient_rate = 0.25;
  device_->set_plan(plan);
  env_->ResetStats();
  for (const Status& s : FetchAll()) {
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_GT(device_->stats().read_transients.load(), 0u);
  EXPECT_GT(env_->stats().io_retries, 0);
}

TEST_P(AsyncFaultTest, ReadErrorsSurfacePerRunAsIOError) {
  FaultPlan plan;
  plan.seed = 11;
  plan.read_error_rate = 1.0;
  device_->set_plan(plan);
  for (const Status& s : FetchAll()) {
    EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
  }
  EXPECT_GT(device_->stats().read_errors.load(), 0u);
}

TEST_P(AsyncFaultTest, ShortReadsSurfaceAsIOError) {
  FaultPlan plan;
  plan.seed = 13;
  plan.short_read_rate = 1.0;
  device_->set_plan(plan);
  for (const Status& s : FetchAll()) {
    EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
  }
  EXPECT_GT(device_->stats().short_reads.load(), 0u);
}

TEST_P(AsyncFaultTest, BitFlipsAreCaughtByChecksumsNeverRetried) {
  FaultPlan plan;
  plan.seed = 17;
  plan.bit_flip_rate = 1.0;
  device_->set_plan(plan);
  env_->ResetStats();
  for (const Status& s : FetchAll()) {
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
  }
  const IoStats io = env_->stats();
  EXPECT_GT(io.corrupt_pages, 0);
  EXPECT_EQ(io.io_retries, 0) << "corruption is permanent, never retried";
  EXPECT_GT(device_->stats().bit_flips.load(), 0u);
}

TEST_P(AsyncFaultTest, MixedFaultsNeverEscapeSilently) {
  FaultPlan plan;
  plan.seed = 23;
  plan.read_error_rate = 0.05;
  plan.read_transient_rate = 0.10;
  plan.short_read_rate = 0.05;
  plan.bit_flip_rate = 0.05;
  device_->set_plan(plan);
  // FetchAll's callback asserts intact bytes on every OK run; failed
  // runs must carry the right class.
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(env_->FlushAll().ok());
    for (const Status& s : FetchAll()) {
      if (!s.ok()) {
        EXPECT_TRUE(s.code() == StatusCode::kIOError ||
                    s.code() == StatusCode::kCorruption ||
                    s.code() == StatusCode::kUnavailable)
            << s.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, AsyncFaultTest,
                         ::testing::Values("threadpool", "uring"));

// ---- end-to-end geometry identity ----------------------------------

// The acceptance bar of DESIGN.md §13: a query answered through
// batched async reads and cut-aware prefetch returns byte-identical
// geometry to the synchronous path, in the same order.
class AsyncQueryTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "uring" && !UringSupported()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel";
    }
    scene_ = std::make_unique<Scene>(MakeScene(33));
    DbOptions options;
    options.pool_pages = 48;  // starved: force real reads per query
    env_ = OpenTempEnv(std::string("async_query_") + GetParam(), options);
    auto store_or =
        DmStore::Build(env_.get(), scene_->base, scene_->tree, scene_->sr);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    store_ = std::make_unique<DmStore>(std::move(store_or).value());
  }

  Rect Roi(double f0x, double f0y, double f1x, double f1y) const {
    const Rect b = scene_->tree.bounds();
    return Rect::Of(b.lo_x + f0x * b.width(), b.lo_y + f0y * b.height(),
                    b.lo_x + f1x * b.width(), b.lo_y + f1y * b.height());
  }

  std::unique_ptr<Scene> scene_;
  std::unique_ptr<DbEnv> env_;
  std::unique_ptr<DmStore> store_;
};

TEST_P(AsyncQueryTest, GeometryIdenticalToSerialPath) {
  const double e_max = scene_->tree.max_lod();
  struct Case {
    Rect roi;
    double e;
  };
  const std::vector<Case> cases = {
      {Roi(0.0, 0.0, 1.0, 1.0), e_max * 0.5},
      {Roi(0.1, 0.2, 0.7, 0.9), e_max * 0.25},
      {Roi(0.4, 0.4, 0.6, 0.6), e_max * 0.05},
  };

  // Reference pass: no device, every read synchronous.
  env_->DisableAsync();
  std::vector<DmQueryResult> want;
  {
    DmQueryProcessor proc(store_.get());
    for (const Case& c : cases) {
      ASSERT_TRUE(env_->FlushAll().ok());
      auto r = proc.ViewpointIndependent(c.roi, c.e);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      want.push_back(std::move(r).value());
    }
  }

  // Async pass, cold cache, prefetch on: identical bytes, same order.
  ASSERT_STREQ(env_->EnableAsync(GetParam()), GetParam());
  env_->set_prefetch_depth(4);
  DmQueryProcessor proc(store_.get());
  for (size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(env_->FlushAll().ok());
    auto r = proc.ViewpointIndependent(cases[i].roi, cases[i].e);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const DmQueryResult& got = r.value();
    ASSERT_EQ(got.vertices.size(), want[i].vertices.size());
    EXPECT_TRUE(got.vertices == want[i].vertices) << "case " << i;
    ASSERT_EQ(got.positions.size(), want[i].positions.size());
    for (size_t v = 0; v < got.positions.size(); ++v) {
      EXPECT_EQ(std::memcmp(&got.positions[v], &want[i].positions[v],
                            sizeof(got.positions[v])),
                0)
          << "case " << i << " vertex " << v;
    }
    ASSERT_EQ(got.triangles.size(), want[i].triangles.size());
    for (size_t t = 0; t < got.triangles.size(); ++t) {
      for (int c = 0; c < 3; ++c) {
        ASSERT_EQ(got.triangles[t][c], want[i].triangles[t][c])
            << "case " << i << " triangle " << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, AsyncQueryTest,
                         ::testing::Values("threadpool", "uring"));

}  // namespace
}  // namespace dm
