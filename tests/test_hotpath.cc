// Unit tests for the query hot-path machinery added with the
// decoded-node cache: the bump arena, the open-addressing flat hash
// containers, the fill-once NodeCache table itself, and end-to-end
// equivalence of query results with the cache toggled.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/flat_hash.h"
#include "dm/dm_query.h"
#include "dm/dm_store.h"
#include "dm/node_cache.h"
#include "test_util.h"

namespace dm {
namespace {

using testing::MakeScene;
using testing::OpenTempEnv;
using testing::Scene;

// --- Arena -----------------------------------------------------------------

TEST(ArenaTest, AllocatesAlignedAndGrows) {
  Arena arena;
  EXPECT_EQ(arena.bytes_used(), 0u);
  void* a = arena.Allocate(10, 8);
  void* b = arena.Allocate(100, 16);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 16, 0u);
  EXPECT_GE(arena.bytes_used(), 110u);
  // Far past the first block: must chain new blocks, not crash.
  for (int i = 0; i < 64; ++i) {
    void* p = arena.Allocate(8192, 8);
    ASSERT_NE(p, nullptr);
    std::fill_n(static_cast<uint8_t*>(p), 8192, 0xAB);  // must be writable
  }
}

TEST(ArenaTest, ResetKeepsCapacityAndReusesIt) {
  Arena arena;
  (void)arena.Allocate(64 << 10, 8);
  const size_t reserved = arena.bytes_reserved();
  const int64_t blocks = arena.block_allocations();
  arena.Reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_GT(arena.bytes_reserved(), 0u);
  EXPECT_LE(arena.bytes_reserved(), reserved);
  // Steady state: same-size allocation after Reset must not allocate
  // a new block from the heap.
  (void)arena.Allocate(32 << 10, 8);
  EXPECT_EQ(arena.block_allocations(), blocks);
}

TEST(ArenaTest, AllocatorFallsBackToHeapWithoutArena) {
  // ArenaAllocator<T> with no arena is a plain heap allocator — the
  // container types can be shared between arena-on and arena-off
  // paths.
  std::vector<int, ArenaAllocator<int>> v;  // default: arena == nullptr
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v[999], 999);

  Arena arena;
  std::vector<int, ArenaAllocator<int>> w{ArenaAllocator<int>(&arena)};
  for (int i = 0; i < 1000; ++i) w.push_back(i);
  EXPECT_EQ(w[999], 999);
  EXPECT_GT(arena.bytes_used(), 0u);
  EXPECT_FALSE(v.get_allocator() == w.get_allocator());
}

// --- FlatHashMap / FlatHashSet ----------------------------------------------

TEST(FlatHashTest, MapInsertFindReserve) {
  FlatHashMap<int64_t, std::string> m(/*empty_key=*/-1, nullptr);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(42), nullptr);
  m.FindOrEmplace(42) = "a";
  m.FindOrEmplace(7) = "b";
  ASSERT_NE(m.find(42), nullptr);
  EXPECT_EQ(*m.find(42), "a");
  // FindOrEmplace on an existing key returns the same slot.
  m.FindOrEmplace(42) += "x";
  EXPECT_EQ(*m.find(42), "ax");
  EXPECT_EQ(m.size(), 2u);

  // Growth past the load factor keeps every element findable.
  for (int64_t i = 0; i < 5000; ++i) m.FindOrEmplace(i) = std::to_string(i);
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_NE(m.find(i), nullptr) << i;
    EXPECT_EQ(*m.find(i), std::to_string(i));
  }
  EXPECT_EQ(m.find(999999), nullptr);
}

TEST(FlatHashTest, MapIterationCoversAllEntries) {
  Arena arena;
  FlatHashMap<int64_t, int64_t> m(-1, &arena);
  m.reserve(100);
  int64_t want_sum = 0;
  for (int64_t i = 1; i <= 100; ++i) {
    m.FindOrEmplace(i * 11) = i;
    want_sum += i;
  }
  int64_t sum = 0;
  size_t n = 0;
  for (const auto& [k, v] : m) {
    EXPECT_EQ(k, v * 11);
    sum += v;
    ++n;
  }
  EXPECT_EQ(n, 100u);
  EXPECT_EQ(sum, want_sum);
}

TEST(FlatHashTest, SetInsertContains) {
  Arena arena;
  FlatHashSet<int64_t> s(-1, &arena);
  EXPECT_FALSE(s.contains(3));
  EXPECT_TRUE(s.insert(3));
  EXPECT_FALSE(s.insert(3));  // duplicate
  EXPECT_TRUE(s.contains(3));
  for (int64_t i = 0; i < 3000; ++i) s.insert(i * 2);
  for (int64_t i = 0; i < 3000; ++i) {
    EXPECT_TRUE(s.contains(i * 2));
    if (i * 2 + 1 != 3) {  // 3 was inserted above
      EXPECT_FALSE(s.contains(i * 2 + 1));
    }
  }
}

TEST(FlatHashTest, ArenaBackedMapAllocatesFromArena) {
  Arena arena;
  const size_t used0 = arena.bytes_used();
  FlatHashMap<int64_t, int64_t> m(-1, &arena);
  m.reserve(512);
  for (int64_t i = 0; i < 512; ++i) m.FindOrEmplace(i) = i;
  EXPECT_GT(arena.bytes_used(), used0);
}

// --- NodeCache ---------------------------------------------------------------

// One heap page (page 2) of four record slots; pages 0 and 1 hold none.
std::vector<uint32_t> FourSlotsOnPage2() { return {0, 0, 0, 4}; }

DmNode MakeNode(VertexId id, std::initializer_list<VertexId> conns = {}) {
  DmNode n;
  n.id = id;
  n.pos = Point3{static_cast<double>(id), 0.0, 0.0};
  n.connections.assign(conns.begin(), conns.end());
  return n;
}

TEST(NodeCacheTest, LookupMissThenHit) {
  NodeCache cache(1 << 20, FourSlotsOnPage2());
  const RecordId rid{2, 3};
  EXPECT_EQ(cache.Find(rid), nullptr);
  DmNode node = MakeNode(5, {1, 2});
  const DmNode* resident = cache.Publish(rid, &node);
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(resident->id, 5);
  EXPECT_EQ(resident->connections, (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(cache.Find(rid), resident);
  cache.Count(1, 1);
  const NodeCacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(st.misses, 1);
  EXPECT_EQ(st.entries, 1);
  EXPECT_GT(st.bytes, 0);
}

TEST(NodeCacheTest, FirstPublisherWins) {
  NodeCache cache(1 << 20, FourSlotsOnPage2());
  const RecordId rid{2, 0};
  DmNode first = MakeNode(9, {1});
  DmNode second = MakeNode(9, {2});
  const DmNode* a = cache.Publish(rid, &first);
  const DmNode* b = cache.Publish(rid, &second);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(b, a);
  EXPECT_EQ(b->connections, (std::vector<VertexId>{1}));
  EXPECT_EQ(second.connections, (std::vector<VertexId>{2}));  // not taken
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(NodeCacheTest, OversizeEntryIsSkipped) {
  NodeCache cache(64, FourSlotsOnPage2());  // below one node's footprint
  DmNode node = MakeNode(1, {1, 2, 3, 4, 5});
  EXPECT_EQ(cache.Publish(RecordId{2, 1}, &node), nullptr);
  EXPECT_EQ(node.connections.size(), 5u);  // left to the caller
  EXPECT_EQ(cache.Find(RecordId{2, 1}), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().bytes, 0);
}

TEST(NodeCacheTest, RidOutsideTheTableIsAMiss) {
  NodeCache cache(1 << 20, FourSlotsOnPage2());
  for (const RecordId rid :
       {RecordId{0, 0}, RecordId{1, 0}, RecordId{2, 4}, RecordId{2, 0xFFFF},
        RecordId{3, 0}, RecordId{1u << 20, 0}, RecordId{kInvalidPage, 0}}) {
    EXPECT_EQ(cache.Find(rid), nullptr) << rid.page << ":" << rid.slot;
    DmNode node = MakeNode(1);
    EXPECT_EQ(cache.Publish(rid, &node), nullptr)
        << rid.page << ":" << rid.slot;
  }
  EXPECT_EQ(cache.stats().entries, 0);
}

// --- End-to-end: cache and arena do not change results ----------------------

class HotPathQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scene_ = new Scene(MakeScene(33));
    env_ = OpenTempEnv("hotpath").release();
    auto store_or =
        DmStore::Build(env_, scene_->base, scene_->tree, scene_->sr);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    store_ = new DmStore(std::move(store_or).value());
  }
  static void TearDownTestSuite() {
    delete store_;
    delete env_;
    delete scene_;
  }

  static Scene* scene_;
  static DbEnv* env_;
  static DmStore* store_;
};
Scene* HotPathQueryTest::scene_ = nullptr;
DbEnv* HotPathQueryTest::env_ = nullptr;
DmStore* HotPathQueryTest::store_ = nullptr;

void ExpectSameGeometry(const DmQueryResult& a, const DmQueryResult& b) {
  EXPECT_EQ(a.vertices, b.vertices);
  ASSERT_EQ(a.triangles.size(), b.triangles.size());
  for (size_t k = 0; k < a.triangles.size(); ++k) {
    EXPECT_EQ(a.triangles[k].v, b.triangles[k].v) << "triangle " << k;
  }
}

// Every record of the fixture store, as sorted packed rids.
std::vector<uint64_t> AllRids(const DmStore& store) {
  std::vector<uint64_t> rids;
  EXPECT_TRUE(store.rtree()
                  .RangeQuery(Box::Of(-1e30, -1e30, -1e30, 1e30, 1e30, 1e30),
                              &rids)
                  .ok());
  std::sort(rids.begin(), rids.end());
  return rids;
}

// The geometry test set over the central 80% of the scene: uniform
// cuts at three LODs, then single-base, multi-base and perspective.
std::vector<DmQueryResult> RunQuerySet(DmStore* store, const PmTree& tree) {
  const Rect b = tree.bounds();
  const Rect roi = Rect::Of(b.lo_x + 0.1 * b.width(), b.lo_y + 0.1 * b.height(),
                            b.lo_x + 0.9 * b.width(), b.lo_y + 0.9 * b.height());
  const double lod = tree.max_lod();
  ViewQuery vq;
  vq.roi = roi;
  vq.e_min = 0.01 * lod;
  vq.e_max = 0.3 * lod;
  PerspectiveQuery pq;
  pq.roi = roi;
  pq.viewer = Point2{roi.lo_x, roi.lo_y};
  pq.tolerance = 0.3 * lod / std::max(roi.width(), roi.height());
  pq.e_cap = lod;

  DmQueryProcessor proc(store);
  std::vector<DmQueryResult> out;
  const auto keep = [&out](Result<DmQueryResult> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    out.push_back(r.ok() ? std::move(r).value() : DmQueryResult{});
  };
  for (double frac : {0.02, 0.1, 0.4}) {
    keep(proc.ViewpointIndependent(roi, frac * lod));
  }
  keep(proc.SingleBase(vq));
  keep(proc.MultiBase(vq));
  keep(proc.Perspective(pq));
  return out;
}

TEST_F(HotPathQueryTest, NodeCachePreservesGeometry) {
  // Reference: cache off (the seed configuration).
  store_->EnableNodeCache(0);
  const std::vector<DmQueryResult> ref = RunQuerySet(store_, scene_->tree);

  // With the cache on, both passes must produce byte-identical
  // geometry, and the second pass must hit.
  store_->EnableNodeCache(8u << 20);
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<DmQueryResult> got = RunQuerySet(store_, scene_->tree);
    ASSERT_EQ(got.size(), ref.size());
    for (size_t k = 0; k < ref.size(); ++k) {
      SCOPED_TRACE("pass " + std::to_string(pass) + " query " +
                   std::to_string(k));
      ExpectSameGeometry(got[k], ref[k]);
      if (pass == 1) {
        EXPECT_GT(got[k].stats.cache_hits, 0);
        EXPECT_EQ(got[k].stats.cache_misses, 0);
      }
    }
  }
  store_->EnableNodeCache(0);
}

TEST_F(HotPathQueryTest, WarmHitsDeliverOneAddressWithoutRefcount) {
  const std::vector<uint64_t> rids = AllRids(*store_);
  store_->EnableNodeCache(8u << 20);
  std::vector<const DmNode*> passes[2];
  for (std::vector<const DmNode*>& seen : passes) {
    DmStore::FetchCounts counts;
    ASSERT_TRUE(store_
                    ->FetchNodes(
                        rids,
                        [&seen](const NodeRef& ref) {
                          EXPECT_EQ(ref.use_count(), 0);
                          seen.push_back(ref.get());
                        },
                        &counts)
                    .ok());
    EXPECT_EQ(counts.cache_hits + counts.cache_misses,
              static_cast<int64_t>(rids.size()));
  }
  ASSERT_EQ(passes[0].size(), rids.size());
  EXPECT_EQ(passes[0], passes[1]);
  EXPECT_EQ(store_->node_cache_stats().hits,
            static_cast<int64_t>(rids.size()));
  store_->EnableNodeCache(0);
}

TEST_F(HotPathQueryTest, PartialBudgetKeepsGeometryByteIdentical) {
  store_->EnableNodeCache(0);
  const std::vector<DmQueryResult> ref = RunQuerySet(store_, scene_->tree);

  // A budget far below the store's decoded size: the table fills with
  // the first records fetched, and every later miss comes back owning.
  constexpr size_t kBudget = 32u << 10;
  store_->EnableNodeCache(kBudget);
  const std::vector<uint64_t> rids = AllRids(*store_);
  for (int pass = 0; pass < 2; ++pass) {
    int64_t resident = 0;
    int64_t owning = 0;
    ASSERT_TRUE(store_
                    ->FetchNodes(rids,
                                 [&](const NodeRef& ref) {
                                   (ref.use_count() == 0 ? resident : owning)++;
                                 })
                    .ok());
    const NodeCacheStats st = store_->node_cache_stats();
    EXPECT_GT(resident, 0) << "pass " << pass;
    EXPECT_GT(owning, 0) << "pass " << pass;
    EXPECT_EQ(st.entries, resident) << "pass " << pass;
    EXPECT_LE(st.bytes, static_cast<int64_t>(kBudget));
  }
  for (int pass = 0; pass < 2; ++pass) {
    const std::vector<DmQueryResult> got = RunQuerySet(store_, scene_->tree);
    ASSERT_EQ(got.size(), ref.size());
    for (size_t k = 0; k < ref.size(); ++k) {
      SCOPED_TRACE("pass " + std::to_string(pass) + " query " +
                   std::to_string(k));
      ExpectSameGeometry(got[k], ref[k]);
    }
  }
  store_->EnableNodeCache(0);
}

TEST_F(HotPathQueryTest, RacingColdFetchesPublishOneNodePerRid) {
  // Four workers miss on the same records at once and race to publish
  // them (run under tsan in CI): each record ends up with one resident
  // node, and every worker is handed that node.
  const std::vector<uint64_t> rids = AllRids(*store_);
  store_->EnableNodeCache(8u << 20);
  constexpr int kThreads = 4;
  std::vector<std::vector<const DmNode*>> seen(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const Status st = store_->FetchNodes(rids, [&](const NodeRef& ref) {
        EXPECT_EQ(ref.use_count(), 0);
        seen[t].push_back(ref.get());
      });
      EXPECT_TRUE(st.ok()) << st.ToString();
    });
  }
  for (std::thread& th : threads) th.join();

  const NodeCache* cache = store_->node_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->stats().entries, static_cast<int64_t>(rids.size()));
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(seen[t].size(), rids.size()) << "thread " << t;
    for (size_t i = 0; i < rids.size(); ++i) {
      ASSERT_EQ(seen[t][i], cache->Find(RecordId::Unpack(rids[i])))
          << "thread " << t << " rid " << rids[i];
    }
  }
  store_->EnableNodeCache(0);
}

TEST_F(HotPathQueryTest, StatsReportDiskReadSavings) {
  const Rect b = scene_->tree.bounds();
  const Rect roi = Rect::Of(b.lo_x, b.lo_y, b.lo_x + 0.5 * b.width(),
                            b.lo_y + 0.5 * b.height());
  const double e = 0.1 * scene_->tree.max_lod();

  store_->EnableNodeCache(8u << 20);
  DmQueryProcessor proc(store_);
  ASSERT_TRUE(proc.ViewpointIndependent(roi, e).ok());  // warm
  ASSERT_TRUE(store_->env()->FlushDirty().ok());

  auto r = proc.ViewpointIndependent(roi, e);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().stats.cache_hits, 0);
  EXPECT_EQ(r.value().stats.cache_misses, 0);

  const NodeCacheStats cs = store_->node_cache_stats();
  EXPECT_GT(cs.hits, 0);
  EXPECT_GT(cs.entries, 0);
  store_->EnableNodeCache(0);
  EXPECT_EQ(store_->node_cache_stats().entries, 0);
}

TEST_F(HotPathQueryTest, WarmQueriesDoNotGrowTheArena) {
  // Every piece of per-query scratch (node map, work lists, the
  // triangulation's local-id map and CSR adjacency) comes from the
  // processor's arena, which each query rewinds. Once the arena has
  // grown one slab big enough for the largest query, repeating the
  // same queries over a cache-resident store must not ask the heap
  // for another slab.
  const Rect b = scene_->tree.bounds();
  const Rect roi = Rect::Of(b.lo_x + 0.1 * b.width(), b.lo_y + 0.1 * b.height(),
                            b.lo_x + 0.9 * b.width(), b.lo_y + 0.9 * b.height());
  const double lod = scene_->tree.max_lod();
  ViewQuery vq;
  vq.roi = roi;
  vq.e_min = 0.0;
  vq.e_max = 0.3 * lod;
  PerspectiveQuery pq;
  pq.roi = roi;
  pq.viewer = Point2{roi.lo_x, roi.lo_y};
  pq.tolerance = 0.3 * lod / std::max(roi.width(), roi.height());
  pq.e_cap = lod;

  store_->EnableNodeCache(8u << 20);
  DmQueryProcessor proc(store_);
  size_t triangles = 0;
  const auto run_all = [&] {
    triangles = 0;
    for (double frac : {0.0, 0.02, 0.1}) {
      auto r = proc.ViewpointIndependent(roi, frac * lod);
      ASSERT_TRUE(r.ok());
      triangles += r.value().triangles.size();
    }
    auto s = proc.SingleBase(vq);
    ASSERT_TRUE(s.ok());
    auto m = proc.MultiBase(vq);
    ASSERT_TRUE(m.ok());
    auto p = proc.Perspective(pq);
    ASSERT_TRUE(p.ok());
    triangles += s.value().triangles.size() + m.value().triangles.size() +
                 p.value().triangles.size();
  };
  for (int warm = 0; warm < 3; ++warm) run_all();
  const size_t warm_triangles = triangles;
  ASSERT_GT(warm_triangles, 0u);
  const int64_t blocks = proc.scratch_arena()->block_allocations();
  EXPECT_GT(blocks, 0);
  for (int pass = 0; pass < 3; ++pass) {
    run_all();
    EXPECT_EQ(triangles, warm_triangles);
    EXPECT_EQ(proc.scratch_arena()->block_allocations(), blocks)
        << "pass " << pass;
  }
  EXPECT_GT(proc.scratch_arena()->bytes_used(), 0u);
  store_->EnableNodeCache(0);
}

}  // namespace
}  // namespace dm
