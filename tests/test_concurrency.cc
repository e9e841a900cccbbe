// Concurrency tests: the sharded buffer pool under multi-threaded
// Fetch/NewPage/FlushDirty traffic (run under the tsan preset in CI),
// and serial-vs-parallel equivalence of the QueryService.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dm/dm_query.h"
#include "dm/dm_store.h"
#include "server/query_service.h"
#include "storage/buffer_pool.h"
#include "storage/db_env.h"
#include "test_util.h"

namespace dm {
namespace {

using testing::MakeScene;
using testing::OpenTempEnv;
using testing::Scene;

// ---------------------------------------------------------------------------
// Buffer pool hammer
// ---------------------------------------------------------------------------

// Deterministic per-page stamp covering the whole page.
void StampPage(uint8_t* data, uint32_t page_size, PageId id) {
  for (uint32_t i = 0; i < page_size; ++i) {
    data[i] = static_cast<uint8_t>((id * 131 + i * 31) & 0xff);
  }
}

bool CheckStamp(const uint8_t* data, uint32_t page_size, PageId id) {
  for (uint32_t i = 0; i < page_size; ++i) {
    if (data[i] != static_cast<uint8_t>((id * 131 + i * 31) & 0xff)) {
      return false;
    }
  }
  return true;
}

TEST(ConcurrencyTest, ShardedPoolSurvivesConcurrentTraffic) {
  DbOptions options;
  options.pool_pages = 64;  // far below the 256-page working set
  options.pool_shards = 8;
  auto env = OpenTempEnv("concurrency_pool", options);
  BufferPool& pool = env->pool();

  // Pre-populate shared pages single-threaded; readers below only
  // ever see this frozen set, mirroring the immutable-after-build
  // contract of the stores.
  constexpr PageId kSharedPages = 256;
  for (PageId id = 0; id < kSharedPages; ++id) {
    auto guard_or = pool.NewPage();
    ASSERT_TRUE(guard_or.ok()) << guard_or.status().ToString();
    PageGuard g = std::move(guard_or).value();
    ASSERT_EQ(g.id(), id);
    StampPage(g.data(), env->page_size(), id);
    g.MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_EQ(pool.pinned_frames(), 0);

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 2000;
  std::atomic<int> bad_pages{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1234 + static_cast<uint64_t>(t));
      // Each thread also owns a handful of private pages it mutates;
      // no other thread touches them.
      std::vector<PageId> mine;
      for (int i = 0; i < kItersPerThread; ++i) {
        const uint64_t dice = rng.NextBelow(100);
        if (dice < 2 && mine.size() < 8) {
          auto guard_or = pool.NewPage();
          if (!guard_or.ok()) {
            failures.fetch_add(1);
            continue;
          }
          PageGuard g = std::move(guard_or).value();
          StampPage(g.data(), env->page_size(), g.id());
          g.MarkDirty();
          mine.push_back(g.id());
        } else if (dice < 4) {
          if (!pool.FlushDirty().ok()) failures.fetch_add(1);
        } else if (dice < 10 && !mine.empty()) {
          const PageId id = mine[rng.NextBelow(mine.size())];
          auto guard_or = pool.Fetch(id);
          if (!guard_or.ok()) {
            failures.fetch_add(1);
            continue;
          }
          PageGuard g = std::move(guard_or).value();
          if (!CheckStamp(g.data(), env->page_size(), id)) {
            bad_pages.fetch_add(1);
          }
          // Rewrite the same bytes: exercises dirty write-back of a
          // page another thread may concurrently flush (skip-pinned
          // keeps that safe).
          StampPage(g.data(), env->page_size(), id);
          g.MarkDirty();
        } else if (dice < 30) {
          // Batched fetch of a short run of shared pages.
          const BufferPool::RunRequest run{
              static_cast<PageId>(rng.NextBelow(kSharedPages - 4)),
              1 + static_cast<uint32_t>(rng.NextBelow(4))};
          const Status s = pool.FetchRuns(
              &run, 1, [&](size_t, Status st, std::vector<PageGuard>* guards) {
                if (!st.ok() || guards->size() != run.n) {
                  failures.fetch_add(1);
                  return;
                }
                for (uint32_t k = 0; k < run.n; ++k) {
                  if (!CheckStamp((*guards)[k].data(), env->page_size(),
                                  run.first + k)) {
                    bad_pages.fetch_add(1);
                  }
                }
              });
          if (!s.ok()) failures.fetch_add(1);
        } else {
          const PageId id = rng.NextBelow(kSharedPages);
          auto guard_or = pool.Fetch(id);
          if (!guard_or.ok()) {
            failures.fetch_add(1);
            continue;
          }
          if (!CheckStamp(guard_or.value().data(), env->page_size(), id)) {
            bad_pages.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(bad_pages.load(), 0) << "a fetch returned corrupted page bytes";
  EXPECT_EQ(failures.load(), 0);
  // Pin-balance audit: every guard released, nothing leaked.
  EXPECT_EQ(pool.pinned_frames(), 0);
  EXPECT_EQ(pool.total_pins(), 0);
  // Everything is still readable and intact afterwards.
  for (PageId id = 0; id < kSharedPages; ++id) {
    auto guard_or = pool.Fetch(id);
    ASSERT_TRUE(guard_or.ok());
    EXPECT_TRUE(CheckStamp(guard_or.value().data(), env->page_size(), id))
        << "page " << id;
  }
}

// ---------------------------------------------------------------------------
// Serial vs parallel query equivalence
// ---------------------------------------------------------------------------

class ConcurrentQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scene_ = new Scene(MakeScene(33));
    DbOptions options;
    options.pool_shards = BufferPool::kDefaultShards;
    env_ = OpenTempEnv("concurrency_query", options).release();
    auto store_or =
        DmStore::Build(env_, scene_->base, scene_->tree, scene_->sr);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    store_ = new DmStore(std::move(store_or).value());
    source_ = new DmStoreSource(store_);
  }
  static void TearDownTestSuite() {
    delete source_;
    delete store_;
    delete env_;
    delete scene_;
  }

  static Scene* scene_;
  static DbEnv* env_;
  static DmStore* store_;
  static DmStoreSource* source_;
};
Scene* ConcurrentQueryTest::scene_ = nullptr;
DbEnv* ConcurrentQueryTest::env_ = nullptr;
DmStore* ConcurrentQueryTest::store_ = nullptr;
DmStoreSource* ConcurrentQueryTest::source_ = nullptr;

// Byte-exact geometry comparison (stats are never compared: disk
// attribution is approximate under overlap).
void ExpectSameGeometry(const DmQueryResult& s, const DmQueryResult& p,
                        size_t query_index) {
  EXPECT_EQ(s.vertices, p.vertices) << "query " << query_index;
  ASSERT_EQ(s.positions.size(), p.positions.size()) << "query " << query_index;
  for (size_t k = 0; k < s.positions.size(); ++k) {
    EXPECT_EQ(std::memcmp(&s.positions[k], &p.positions[k],
                          sizeof(s.positions[k])),
              0)
        << "query " << query_index << " position " << k;
  }
  ASSERT_EQ(s.triangles.size(), p.triangles.size()) << "query " << query_index;
  for (size_t k = 0; k < s.triangles.size(); ++k) {
    EXPECT_EQ(s.triangles[k].v, p.triangles[k].v)
        << "query " << query_index << " triangle " << k;
  }
}

TEST_F(ConcurrentQueryTest, ParallelResultsMatchSerialExactly) {
  const std::vector<QueryRequest> workload = MakeMixedWorkload(
      scene_->tree.bounds(), scene_->tree.max_lod(), /*count=*/48,
      /*seed=*/99, /*roi_fraction=*/0.1);
  ASSERT_EQ(workload.size(), 48u);

  // Serial reference, one processor, one thread.
  std::vector<DmQueryResult> serial;
  serial.reserve(workload.size());
  DmQueryProcessor proc(store_);
  for (const QueryRequest& req : workload) {
    auto r = ExecuteRequest(&proc, req);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    serial.push_back(std::move(r).value());
  }

  // Parallel run over the same store. Each callback writes only its
  // own slot.
  std::vector<std::optional<DmQueryResult>> parallel(workload.size());
  std::atomic<int> failed{0};
  QueryServiceOptions options;
  options.num_threads = 4;
  options.queue_capacity = 8;
  {
    QueryService service(source_, options);
    for (size_t i = 0; i < workload.size(); ++i) {
      ASSERT_TRUE(service.Submit(
          workload[i], [&parallel, &failed, i](const Result<DmQueryResult>& r,
                                               const QueryTiming& t) {
            EXPECT_GE(t.queue_millis, 0.0);
            EXPECT_GE(t.exec_millis, 0.0);
            if (r.ok()) {
              parallel[i] = r.value();
            } else {
              failed.fetch_add(1);
            }
          }));
    }
    service.Drain();
    EXPECT_EQ(service.completed(), static_cast<int64_t>(workload.size()));
  }
  ASSERT_EQ(failed.load(), 0);

  // Geometry must be byte-identical to the serial run.
  for (size_t i = 0; i < workload.size(); ++i) {
    ASSERT_TRUE(parallel[i].has_value()) << "query " << i;
    ExpectSameGeometry(serial[i], *parallel[i], i);
  }
  EXPECT_EQ(env_->pool().pinned_frames(), 0);
}

TEST_F(ConcurrentQueryTest, NodeCacheKeepsGeometryByteIdentical) {
  const std::vector<QueryRequest> workload = MakeMixedWorkload(
      scene_->tree.bounds(), scene_->tree.max_lod(), /*count=*/32,
      /*seed=*/7, /*roi_fraction=*/0.1);

  // Cache-off serial reference.
  std::vector<DmQueryResult> reference;
  reference.reserve(workload.size());
  {
    DmQueryProcessor proc(store_);
    for (const QueryRequest& req : workload) {
      auto r = ExecuteRequest(&proc, req);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      reference.push_back(std::move(r).value());
    }
  }

  store_->EnableNodeCache(16u << 20);
  // Serial cache-warm pass: the first replay fills the cache, the
  // second must serve hits and still reproduce the reference exactly.
  {
    DmQueryProcessor proc(store_);
    for (const QueryRequest& req : workload) {
      ASSERT_TRUE(ExecuteRequest(&proc, req).ok());
    }
    for (size_t i = 0; i < workload.size(); ++i) {
      auto r = ExecuteRequest(&proc, workload[i]);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectSameGeometry(reference[i], r.value(), i);
      EXPECT_GT(r.value().stats.cache_hits, 0) << "query " << i;
    }
  }

  // Parallel replay with the warm cache (workers race on Lookup and
  // Insert; run under tsan in CI).
  std::vector<std::optional<DmQueryResult>> parallel(workload.size());
  std::atomic<int> failed{0};
  QueryServiceOptions options;
  options.num_threads = 4;
  options.queue_capacity = 8;
  {
    QueryService service(source_, options);
    for (size_t i = 0; i < workload.size(); ++i) {
      ASSERT_TRUE(service.Submit(
          workload[i], [&parallel, &failed, i](const Result<DmQueryResult>& r,
                                               const QueryTiming&) {
            if (r.ok()) {
              parallel[i] = r.value();
            } else {
              failed.fetch_add(1);
            }
          }));
    }
    service.Drain();
  }
  ASSERT_EQ(failed.load(), 0);
  for (size_t i = 0; i < workload.size(); ++i) {
    ASSERT_TRUE(parallel[i].has_value()) << "query " << i;
    ExpectSameGeometry(reference[i], *parallel[i], i);
  }

  const NodeCacheStats cs = store_->node_cache_stats();
  EXPECT_GT(cs.hits, 0);
  EXPECT_GT(cs.entries, 0);
  EXPECT_LE(cs.bytes, 16 << 20);
  store_->EnableNodeCache(0);  // restore the suite's shared store
}

TEST_F(ConcurrentQueryTest, CondVarBackpressureSurvivesProducerChurn) {
  // tsan regression for the annotated CondVar wait loops in
  // QueryService (server/query_service.cc): a tiny queue forces
  // producers to block in Submit on not_full_, workers to sleep on
  // not_empty_, and Drain to wait on idle_ — all three explicit wait
  // loops under contention at once. Run under -DDM_SANITIZE=thread in
  // CI; a wait loop that re-checks its predicate without the lock
  // shows up here as a race.
  QueryServiceOptions options;
  options.num_threads = 2;
  options.queue_capacity = 2;  // well below the offered load
  QueryService service(source_, options);
  const std::vector<QueryRequest> workload = MakeMixedWorkload(
      scene_->tree.bounds(), scene_->tree.max_lod(), /*count=*/8,
      /*seed=*/11, /*roi_fraction=*/0.05);
  std::atomic<int> done{0};
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 16;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const QueryRequest& req = workload[(p + i) % workload.size()];
        // EXPECT (not ASSERT): gtest fatal failures cannot propagate
        // out of a non-test thread.
        EXPECT_TRUE(service.Submit(
            req, [&done](const Result<DmQueryResult>& r, const QueryTiming&) {
              if (r.ok()) done.fetch_add(1);
            }));
      }
    });
  }
  service.Drain();  // races with the producers: quiescence is momentary
  for (std::thread& t : producers) t.join();
  service.Drain();  // now definitive: everything submitted has run
  EXPECT_EQ(done.load(), kProducers * kPerProducer);
  service.Shutdown();
}

TEST_F(ConcurrentQueryTest, ShutdownDrainsQueuedJobs) {
  QueryServiceOptions options;
  options.num_threads = 2;
  options.queue_capacity = 4;
  QueryService service(source_, options);
  const std::vector<QueryRequest> workload = MakeMixedWorkload(
      scene_->tree.bounds(), scene_->tree.max_lod(), /*count=*/12,
      /*seed=*/5, /*roi_fraction=*/0.05);
  std::atomic<int> done{0};
  for (const QueryRequest& req : workload) {
    ASSERT_TRUE(service.Submit(
        req, [&done](const Result<DmQueryResult>& r, const QueryTiming&) {
          if (r.ok()) done.fetch_add(1);
        }));
  }
  service.Shutdown();  // must run everything already accepted
  EXPECT_EQ(done.load(), 12);
  // After shutdown no new work is accepted.
  EXPECT_FALSE(service.Submit(workload[0], nullptr));
}

}  // namespace
}  // namespace dm
