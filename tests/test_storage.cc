#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/db_env.h"
#include "storage/heap_file.h"
#include "test_util.h"

namespace dm {
namespace {

using dm::testing::TempDbPath;

TEST(DiskManagerTest, AllocateReadWrite) {
  const std::string path = TempDbPath("disk");
  auto dm_or = DiskManager::Open(path, 512, true);
  ASSERT_TRUE(dm_or.ok());
  auto& disk = *dm_or.value();
  EXPECT_EQ(disk.num_pages(), 0u);
  auto p0 = disk.AllocatePage();
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(p0.value(), 0u);
  std::vector<uint8_t> buf(512, 0xAB);
  ASSERT_TRUE(disk.WritePage(0, buf.data()).ok());
  std::vector<uint8_t> read(512, 0);
  ASSERT_TRUE(disk.ReadPage(0, read.data()).ok());
  EXPECT_EQ(read, buf);
  EXPECT_FALSE(disk.ReadPage(5, read.data()).ok());
  EXPECT_FALSE(disk.WritePage(5, buf.data()).ok());
  std::remove(path.c_str());
}

TEST(DiskManagerTest, RejectsBadPageSize) {
  EXPECT_FALSE(DiskManager::Open(TempDbPath("bad"), 1000, true).ok());
  EXPECT_FALSE(DiskManager::Open(TempDbPath("bad"), 128, true).ok());
}

TEST(DiskManagerTest, PersistsAcrossReopen) {
  const std::string path = TempDbPath("persist");
  {
    auto disk = std::move(DiskManager::Open(path, 512, true)).ValueOrDie();
    ASSERT_TRUE(disk->AllocatePage().ok());
    ASSERT_TRUE(disk->AllocatePage().ok());
    std::vector<uint8_t> buf(512, 7);
    ASSERT_TRUE(disk->WritePage(1, buf.data()).ok());
  }
  auto disk = std::move(DiskManager::Open(path, 512, false)).ValueOrDie();
  EXPECT_EQ(disk->num_pages(), 2u);
  std::vector<uint8_t> read(512);
  ASSERT_TRUE(disk->ReadPage(1, read.data()).ok());
  EXPECT_EQ(read[100], 7);
  std::remove(path.c_str());
}

TEST(BufferPoolTest, HitsAndMissesAreCounted) {
  const std::string path = TempDbPath("pool");
  auto disk = std::move(DiskManager::Open(path, 512, true)).ValueOrDie();
  BufferPool pool(disk.get(), 4);
  PageId ids[3];
  for (auto& id : ids) {
    auto g = std::move(pool.NewPage()).ValueOrDie();
    id = g.id();
    g.data()[0] = static_cast<uint8_t>(id + 1);
    g.MarkDirty();
  }
  EXPECT_EQ(pool.stats().disk_reads, 0);
  {
    auto g = std::move(pool.Fetch(ids[0])).ValueOrDie();
    EXPECT_EQ(g.data()[0], 1);  // cached, no read
  }
  EXPECT_EQ(pool.stats().disk_reads, 0);
  ASSERT_TRUE(pool.FlushAll().ok());
  {
    auto g = std::move(pool.Fetch(ids[0])).ValueOrDie();
    EXPECT_EQ(g.data()[0], 1);  // re-read from disk
  }
  EXPECT_EQ(pool.stats().disk_reads, 1);
  std::remove(path.c_str());
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  const std::string path = TempDbPath("lru");
  auto disk = std::move(DiskManager::Open(path, 512, true)).ValueOrDie();
  BufferPool pool(disk.get(), 2);
  PageId a;
  PageId b;
  {
    auto ga = std::move(pool.NewPage()).ValueOrDie();
    a = ga.id();
  }
  {
    auto gb = std::move(pool.NewPage()).ValueOrDie();
    b = gb.id();
  }
  // Touch a so b becomes the LRU victim of the next allocation.
  { auto ga = std::move(pool.Fetch(a)).ValueOrDie(); }
  { auto gc = std::move(pool.NewPage()).ValueOrDie(); }
  pool.ResetStats();
  // a stayed resident...
  { auto ga = std::move(pool.Fetch(a)).ValueOrDie(); }
  EXPECT_EQ(pool.stats().disk_reads, 0);
  // ...and b was the page evicted.
  pool.ResetStats();
  { auto gb = std::move(pool.Fetch(b)).ValueOrDie(); }
  EXPECT_EQ(pool.stats().disk_reads, 1);
  std::remove(path.c_str());
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  const std::string path = TempDbPath("pin");
  auto disk = std::move(DiskManager::Open(path, 512, true)).ValueOrDie();
  BufferPool pool(disk.get(), 2);
  auto a = std::move(pool.NewPage()).ValueOrDie();  // held pin
  auto b_or = pool.NewPage();
  ASSERT_TRUE(b_or.ok());
  auto b = std::move(b_or).value();
  // Both frames pinned: a third page must fail.
  EXPECT_FALSE(pool.NewPage().ok());
  b.Release();
  EXPECT_TRUE(pool.NewPage().ok());
  std::remove(path.c_str());
}

TEST(BufferPoolTest, DirtyPagesSurviveEviction) {
  const std::string path = TempDbPath("dirty");
  auto disk = std::move(DiskManager::Open(path, 512, true)).ValueOrDie();
  BufferPool pool(disk.get(), 2);
  PageId a;
  {
    auto g = std::move(pool.NewPage()).ValueOrDie();
    a = g.id();
    g.data()[9] = 0x5A;
    g.MarkDirty();
  }
  // Evict a by filling the pool.
  { auto g = std::move(pool.NewPage()).ValueOrDie(); }
  { auto g = std::move(pool.NewPage()).ValueOrDie(); }
  auto g = std::move(pool.Fetch(a)).ValueOrDie();
  EXPECT_EQ(g.data()[9], 0x5A);
  std::remove(path.c_str());
}

// --- FetchRuns: the batched read engine ---------------------------------

// A patterned page file under a small pool: page k holds byte pattern
// (k * 37 + 11) & 0xff across its logical bytes, stamped and flushed
// so checksum verification passes. Every run of a batch is delivered
// exactly once, in index order, with its guards in ascending page
// order and no other run pinned meanwhile; the bytes match the page
// written; and repeated batches over a pool smaller than the file
// neither leak pins nor exhaust frames.
TEST(BufferPoolTest, BatchedRunsDeliverOnceInOrder) {
  constexpr int kDataPages = 64;
  const std::string path = TempDbPath("fetch_runs");
  auto disk = std::move(DiskManager::Open(path, 512, true)).ValueOrDie();
  BufferPool pool(disk.get(), 32);
  const auto pattern = [](PageId id) {
    return static_cast<uint8_t>((id * 37 + 11) & 0xff);
  };
  for (int k = 0; k < kDataPages; ++k) {
    auto g = std::move(pool.NewPage()).ValueOrDie();
    ASSERT_EQ(g.id(), static_cast<PageId>(k));
    std::memset(g.data(), pattern(g.id()), pool.logical_page_size());
    g.MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());

  const std::vector<BufferPool::RunRequest> runs = {
      {0, 4}, {10, 1}, {20, 8}, {40, 3}, {50, 6}, {63, 1}};
  for (int iter = 0; iter < 20; ++iter) {
    ASSERT_TRUE(pool.FlushAll().ok());
    std::vector<size_t> order;
    const Status st = pool.FetchRuns(
        runs.data(), runs.size(),
        [&](size_t ri, Status s, std::vector<PageGuard>* guards) {
          ASSERT_TRUE(s.ok()) << s.ToString();
          order.push_back(ri);
          EXPECT_EQ(pool.total_pins(), runs[ri].n)
              << "only the delivered run may be pinned";
          ASSERT_EQ(guards->size(), runs[ri].n);
          for (uint32_t i = 0; i < runs[ri].n; ++i) {
            const PageGuard& g = (*guards)[i];
            ASSERT_EQ(g.id(), runs[ri].first + i);
            for (uint32_t b = 0; b < pool.logical_page_size(); ++b) {
              ASSERT_EQ(g.data()[b], pattern(g.id()))
                  << "page " << g.id() << " byte " << b;
            }
          }
        });
    ASSERT_TRUE(st.ok()) << st.ToString();
    std::vector<size_t> want(runs.size());
    for (size_t ri = 0; ri < runs.size(); ++ri) want[ri] = ri;
    EXPECT_EQ(order, want) << "iter " << iter;
    EXPECT_EQ(pool.total_pins(), 0) << "iter " << iter;
  }
  // Pins balanced: the whole pool must still be reclaimable.
  for (int k = 0; k < kDataPages; ++k) {
    auto g = pool.Fetch(static_cast<PageId>(k));
    ASSERT_TRUE(g.ok()) << g.status().ToString();
  }
  std::remove(path.c_str());
}

// FetchRuns over the fault shim: per-run retry, error and checksum
// handling of the one read engine.
class FetchRunsFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DbOptions options;
    options.pool_pages = 32;
    options.enable_fault_injection = true;
    env_ = dm::testing::OpenTempEnv("fetch_runs_fault", options);
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
        });
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(env_->pool().total_pins(), 0) << "a pin outlived FetchRuns";
    return out;
  }

  std::unique_ptr<DbEnv> env_;
  FaultInjectingDevice* device_ = nullptr;
};

TEST_F(FetchRunsFaultTest, TransientsAreRetried) {
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

TEST_F(FetchRunsFaultTest, ReadErrorsSurfacePerRunAsIOError) {
  FaultPlan plan;
  plan.seed = 11;
  plan.read_error_rate = 1.0;
  device_->set_plan(plan);
  for (const Status& s : FetchAll()) {
    EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
  }
  EXPECT_GT(device_->stats().read_errors.load(), 0u);
}

TEST_F(FetchRunsFaultTest, ShortReadsSurfaceAsIOError) {
  FaultPlan plan;
  plan.seed = 13;
  plan.short_read_rate = 1.0;
  device_->set_plan(plan);
  for (const Status& s : FetchAll()) {
    EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
  }
  EXPECT_GT(device_->stats().short_reads.load(), 0u);
}

TEST_F(FetchRunsFaultTest, BitFlipsAreCaughtByChecksumsNeverRetried) {
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

TEST_F(FetchRunsFaultTest, MixedFaultsNeverEscapeSilently) {
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

// Reads are synchronous: a caller still naming an async backend gets
// InvalidArgument instead of a silently different read path.
TEST(DbEnvTest, RejectsAsyncBackendOtherThanOff) {
  const std::string path = TempDbPath("async_backend");
  DbOptions options;
  options.async_backend = "uring";
  auto rejected = DbEnv::Open(path, options);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
      << rejected.status().ToString();
  options.async_backend = "off";
  EXPECT_TRUE(DbEnv::Open(path, options).ok());
  std::remove(path.c_str());
}

class HeapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = dm::testing::OpenTempEnv("heap", DbOptions{.page_size = 512,
                                                      .pool_pages = 16});
  }
  std::unique_ptr<DbEnv> env_;
};

TEST_F(HeapFileTest, AppendAndGetRoundTrip) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  std::vector<RecordId> rids;
  for (int i = 0; i < 100; ++i) {
    std::string rec = "record-" + std::to_string(i);
    auto rid_or = hf.Append(reinterpret_cast<const uint8_t*>(rec.data()),
                            static_cast<uint32_t>(rec.size()));
    ASSERT_TRUE(rid_or.ok());
    rids.push_back(rid_or.value());
  }
  EXPECT_EQ(hf.num_records(), 100);
  EXPECT_GT(hf.num_pages(), 1);  // 512-byte pages must have chained
  for (int i = 0; i < 100; ++i) {
    std::vector<uint8_t> buf;
    ASSERT_TRUE(hf.Get(rids[static_cast<size_t>(i)], &buf).ok());
    EXPECT_EQ(std::string(buf.begin(), buf.end()),
              "record-" + std::to_string(i));
  }
}

TEST_F(HeapFileTest, RejectsOversizedRecord) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  std::vector<uint8_t> big(600, 1);
  EXPECT_FALSE(hf.Append(big.data(), static_cast<uint32_t>(big.size())).ok());
  std::vector<uint8_t> fits(hf.MaxRecordSize(), 2);
  EXPECT_TRUE(
      hf.Append(fits.data(), static_cast<uint32_t>(fits.size())).ok());
}

TEST_F(HeapFileTest, GetRejectsBadSlot) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  uint8_t b = 1;
  auto rid = std::move(hf.Append(&b, 1)).ValueOrDie();
  std::vector<uint8_t> buf;
  EXPECT_TRUE(hf.Get(rid, &buf).ok());
  EXPECT_FALSE(hf.Get(RecordId{rid.page, 57}, &buf).ok());
}

TEST_F(HeapFileTest, ScanVisitsAllInOrder) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  for (int i = 0; i < 50; ++i) {
    const uint8_t b = static_cast<uint8_t>(i);
    ASSERT_TRUE(hf.Append(&b, 1).ok());
  }
  int next = 0;
  ASSERT_TRUE(hf.Scan([&](RecordId, const uint8_t* data, uint32_t len) {
                 EXPECT_EQ(len, 1u);
                 EXPECT_EQ(data[0], next++);
                 return true;
               }).ok());
  EXPECT_EQ(next, 50);
  // Early stop.
  int count = 0;
  ASSERT_TRUE(hf.Scan([&](RecordId, const uint8_t*, uint32_t) {
                 return ++count < 10;
               }).ok());
  EXPECT_EQ(count, 10);
}

TEST_F(HeapFileTest, OpenRecountsRecords) {
  PageId first;
  {
    auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
    first = hf.first_page();
    for (int i = 0; i < 77; ++i) {
      const uint8_t b = 0;
      ASSERT_TRUE(hf.Append(&b, 1).ok());
    }
  }
  HeapFile hf = std::move(HeapFile::Open(env_.get(), first)).ValueOrDie();
  EXPECT_EQ(hf.num_records(), 77);
  // Appends continue at the tail.
  const uint8_t b = 9;
  ASSERT_TRUE(hf.Append(&b, 1).ok());
  EXPECT_EQ(hf.num_records(), 78);
}

// --- GetMany coalescing edge cases ---------------------------------------

// HeapFile::GetMany reads through BufferPool::FetchRuns.
class HeapGetManyTest : public ::testing::Test {
 protected:
  struct Delivery {
    RecordId rid;
    uint8_t first_byte;
    uint32_t len;
  };

  void SetUp() override {
    env_ = dm::testing::OpenTempEnv(
        "heap_getmany", DbOptions{.page_size = 512, .pool_pages = 16});
    hf_.emplace(std::move(HeapFile::Create(env_.get())).ValueOrDie());
  }

  /// Appends `n` records of `len` bytes, record i filled with
  /// `base + i`.
  std::vector<RecordId> AppendRecords(int n, uint32_t len, uint8_t base) {
    std::vector<RecordId> rids;
    for (int i = 0; i < n; ++i) {
      std::vector<uint8_t> rec(len, static_cast<uint8_t>(base + i));
      rids.push_back(std::move(hf_->Append(rec.data(), len)).ValueOrDie());
    }
    return rids;
  }

  /// Cold GetMany of `rids`; returns the deliveries and the disk reads
  /// it cost.
  std::vector<Delivery> ColdGetMany(const std::vector<RecordId>& rids,
                                    int64_t* reads) {
    EXPECT_TRUE(env_->FlushAll().ok());
    const int64_t reads0 = env_->stats().disk_reads;
    std::vector<Delivery> got;
    const Status st =
        hf_->GetMany(rids, [&](RecordId rid, const uint8_t* data,
                               uint32_t len) {
          got.push_back({rid, data[0], len});
          return Status::OK();
        });
    EXPECT_TRUE(st.ok()) << st.ToString();
    *reads = env_->stats().disk_reads - reads0;
    EXPECT_EQ(env_->pool().pinned_frames(), 0) << "a pin outlived GetMany";
    return got;
  }

  /// Every rid is delivered exactly once per request, in rid order.
  void ExpectDeliveredOnce(const std::vector<Delivery>& got,
                           const std::vector<RecordId>& rids) {
    ASSERT_EQ(got.size(), rids.size());
    for (size_t i = 0; i < rids.size(); ++i) {
      EXPECT_EQ(got[i].rid, rids[i]) << "delivery " << i;
    }
  }

  std::unique_ptr<DbEnv> env_;
  std::optional<HeapFile> hf_;
};

TEST_F(HeapGetManyTest, EmptyInputIsNoOp) {
  AppendRecords(1, 1, 1);
  int64_t reads = -1;
  EXPECT_TRUE(ColdGetMany({}, &reads).empty());
  EXPECT_EQ(reads, 0);
}

TEST_F(HeapGetManyTest, SinglePageRunReadsOnePage) {
  // 5 x 50B fits one 512B page: one run, delivered in rid order.
  const std::vector<RecordId> rids = AppendRecords(5, 50, 0);
  ASSERT_EQ(rids.front().page, rids.back().page);
  int64_t reads = 0;
  const std::vector<Delivery> got = ColdGetMany(rids, &reads);
  ASSERT_EQ(got.size(), 5u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].rid, rids[i]);
    EXPECT_EQ(got[i].first_byte, i);
    EXPECT_EQ(got[i].len, 50u);
  }
  EXPECT_EQ(reads, 1);
}

TEST_F(HeapGetManyTest, NonAdjacentPagesMatchPerGetAccounting) {
  // ~1 record per 512B page, so consecutive records land on
  // consecutive pages.
  const std::vector<RecordId> all = AppendRecords(9, 400, 0);
  // Every other record: pages 0, 2, 4, ... — no two adjacent, so no
  // run may coalesce.
  std::vector<RecordId> sparse;
  for (size_t i = 0; i < all.size(); i += 2) sparse.push_back(all[i]);
  for (size_t i = 1; i < sparse.size(); ++i) {
    ASSERT_GT(sparse[i].page, sparse[i - 1].page + 1);
  }
  int64_t batch_reads = 0;
  const std::vector<Delivery> got = ColdGetMany(sparse, &batch_reads);
  ExpectDeliveredOnce(got, sparse);
  for (const Delivery& d : got) {
    const size_t i = static_cast<size_t>(
        std::find(all.begin(), all.end(), d.rid) - all.begin());
    EXPECT_EQ(d.first_byte, i);
    EXPECT_EQ(d.len, 400u);
  }

  // Reference: per-record Get from a cold pool.
  ASSERT_TRUE(env_->FlushAll().ok());
  const int64_t reads1 = env_->stats().disk_reads;
  for (const RecordId rid : sparse) {
    std::vector<uint8_t> buf;
    ASSERT_TRUE(hf_->Get(rid, &buf).ok());
  }
  EXPECT_EQ(batch_reads, env_->stats().disk_reads - reads1);
}

TEST_F(HeapGetManyTest, RunCrossingLastPage) {
  const std::vector<RecordId> rids = AppendRecords(6, 400, 0x40);
  // A run that starts mid-file and extends through the final page of
  // the heap: coalescing must stop exactly at the tail.
  const std::vector<RecordId> tail(rids.begin() + 2, rids.end());
  ASSERT_EQ(tail.back().page, rids.back().page);
  int64_t reads = 0;
  const std::vector<Delivery> got = ColdGetMany(tail, &reads);
  ExpectDeliveredOnce(got, tail);
  for (const Delivery& d : got) {
    const size_t i = static_cast<size_t>(
        std::find(rids.begin(), rids.end(), d.rid) - rids.begin());
    EXPECT_EQ(d.first_byte, 0x40 + i);
    EXPECT_EQ(d.len, 400u);
  }
  // One read per (single-record) page, coalesced or not.
  EXPECT_EQ(reads, static_cast<int64_t>(tail.size()));
}

TEST_F(HeapGetManyTest, DuplicateRidsOnOnePage) {
  const RecordId rid = AppendRecords(1, 1, 0x77).front();
  int64_t reads = 0;
  const std::vector<Delivery> got = ColdGetMany({rid, rid, rid}, &reads);
  ASSERT_EQ(got.size(), 3u);
  for (const Delivery& d : got) {
    EXPECT_EQ(d.rid, rid);
    EXPECT_EQ(d.first_byte, 0x77);
  }
  EXPECT_EQ(reads, 1);
}

TEST_F(HeapFileTest, RandomizedRoundTripProperty) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  Rng rng(321);
  std::map<int, std::vector<uint8_t>> expected;
  std::map<int, RecordId> rids;
  for (int i = 0; i < 300; ++i) {
    std::vector<uint8_t> rec(rng.NextBelow(200) + 1);
    for (auto& byte : rec) byte = static_cast<uint8_t>(rng.Next());
    auto rid_or = hf.Append(rec.data(), static_cast<uint32_t>(rec.size()));
    ASSERT_TRUE(rid_or.ok());
    expected[i] = rec;
    rids[i] = rid_or.value();
  }
  ASSERT_TRUE(env_->FlushAll().ok());  // force re-reads from disk
  for (const auto& [i, rec] : expected) {
    std::vector<uint8_t> buf;
    ASSERT_TRUE(hf.Get(rids[i], &buf).ok());
    EXPECT_EQ(buf, rec) << "record " << i;
  }
}

// --- block pages (group blobs) ---------------------------------------------

TEST_F(HeapFileTest, AppendBlockRoundTripAndAddressing) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  std::vector<uint8_t> blob(300);
  for (size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<uint8_t>(i);
  auto rid_or =
      hf.AppendBlock(blob.data(), static_cast<uint32_t>(blob.size()), 5);
  ASSERT_TRUE(rid_or.ok());
  const RecordId first = rid_or.value();
  EXPECT_EQ(first.slot, 0);
  EXPECT_EQ(hf.num_records(), 5);
  // The fresh heap's first page was empty, so the blob claimed it.
  EXPECT_EQ(hf.num_pages(), 1);

  // Every record index resolves to the whole blob.
  for (uint16_t s = 0; s < 5; ++s) {
    std::vector<uint8_t> buf;
    ASSERT_TRUE(hf.Get(RecordId{first.page, s}, &buf).ok());
    EXPECT_EQ(buf, blob) << "index " << s;
  }
  // Pin hands out the same bytes inside the pinned page itself.
  {
    auto view_or = hf.Pin(RecordId{first.page, 3});
    ASSERT_TRUE(view_or.ok()) << view_or.status().ToString();
    const HeapFile::RecordView& view = view_or.value();
    EXPECT_EQ(std::vector<uint8_t>(view.data, view.data + view.size), blob);
    EXPECT_GE(view.data, view.page.data());
    EXPECT_LE(view.data + view.size, view.page.data() + env_->page_size());
  }
  EXPECT_FALSE(hf.Pin(RecordId{first.page, 5}).ok());
  std::vector<uint8_t> buf;
  EXPECT_FALSE(hf.Get(RecordId{first.page, 5}, &buf).ok());
}

TEST_F(HeapFileTest, BlockPagesChainAndRecount) {
  PageId first;
  {
    auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
    first = hf.first_page();
    // Slotted record first: the block must chain to its own page.
    const uint8_t b = 1;
    ASSERT_TRUE(hf.Append(&b, 1).ok());
    std::vector<uint8_t> blob(100, 0xCD);
    auto b1 = hf.AppendBlock(blob.data(), 100, 7);
    ASSERT_TRUE(b1.ok());
    EXPECT_NE(b1.value().page, first);
    // A slotted append after a block tail chains again (block pages
    // have no slot directory to extend)...
    auto r2 = hf.Append(&b, 1);
    ASSERT_TRUE(r2.ok());
    EXPECT_NE(r2.value().page, b1.value().page);
    // ... and so does the next block.
    auto b2 = hf.AppendBlock(blob.data(), 100, 3);
    ASSERT_TRUE(b2.ok());
    EXPECT_NE(b2.value().page, r2.value().page);
    EXPECT_EQ(hf.num_records(), 1 + 7 + 1 + 3);
    EXPECT_EQ(hf.num_pages(), 4);
  }
  // Open() recounts block records via the masked slot word.
  HeapFile hf = std::move(HeapFile::Open(env_.get(), first)).ValueOrDie();
  EXPECT_EQ(hf.num_records(), 12);
  EXPECT_EQ(hf.num_pages(), 4);
}

TEST_F(HeapFileTest, ScanVisitsBlockRecordsIndividually) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  std::vector<uint8_t> blob(64, 0xEE);
  auto rid = std::move(hf.AppendBlock(blob.data(), 64, 4)).ValueOrDie();
  uint16_t next = 0;
  ASSERT_TRUE(hf.Scan([&](RecordId r, const uint8_t* data, uint32_t len) {
                 EXPECT_EQ(r.page, rid.page);
                 EXPECT_EQ(r.slot, next++);
                 EXPECT_EQ(len, 64u);
                 EXPECT_EQ(data[0], 0xEE);
                 return true;
               }).ok());
  EXPECT_EQ(next, 4);
}

TEST_F(HeapFileTest, AppendBlockRejectsBadArguments) {
  auto hf = std::move(HeapFile::Create(env_.get())).ValueOrDie();
  std::vector<uint8_t> blob(hf.MaxBlockSize() + 1, 1);
  EXPECT_FALSE(
      hf.AppendBlock(blob.data(), static_cast<uint32_t>(blob.size()), 2).ok());
  EXPECT_FALSE(hf.AppendBlock(blob.data(), 8, 0).ok());
  EXPECT_FALSE(hf.AppendBlock(blob.data(), 8, 40000).ok());
  EXPECT_TRUE(hf.AppendBlock(blob.data(), hf.MaxBlockSize(), 2).ok());
}

// --- store format version gate (DbEnv::Open) ------------------------------

class StoreVersionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempDbPath("version");
    DbOptions options;
    auto env = std::move(DbEnv::Open(path_, options)).ValueOrDie();
    auto hf = std::move(HeapFile::Create(env.get())).ValueOrDie();
    const uint8_t b = 42;
    ASSERT_TRUE(hf.Append(&b, 1).ok());
    ASSERT_TRUE(env->FlushAll().ok());
    physical_ = env->options().page_size;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Overwrites page 0's trailer format byte in the closed file.
  void PatchFormatByte(uint8_t value) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(physical_ - kPageTrailerSize + kPageTrailerFormatOff);
    f.write(reinterpret_cast<const char*>(&value), 1);
    ASSERT_TRUE(f.good());
  }

  Status Reopen() {
    DbOptions options;
    options.truncate = false;
    auto env_or = DbEnv::Open(path_, options);
    return env_or.ok() ? Status::OK() : env_or.status();
  }

  std::string path_;
  uint32_t physical_ = 0;
};

TEST_F(StoreVersionTest, CurrentVersionOpens) {
  EXPECT_TRUE(Reopen().ok());
}

TEST_F(StoreVersionTest, OlderStoreIsVersionMismatchNamingBothVersions) {
  PatchFormatByte(5);  // a v5 store opened by this (v7) build
  const Status st = Reopen();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kVersionMismatch) << st.ToString();
  EXPECT_NE(st.message().find("v5"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("v7"), std::string::npos) << st.ToString();
}

// v6 stored each R*-tree leaf entry as a 56 B box; a v7 build has no
// reader for it and refuses the store up front.
TEST_F(StoreVersionTest, V6StoreIsVersionMismatchNamingV6AndV7) {
  PatchFormatByte(6);
  const Status st = Reopen();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kVersionMismatch) << st.ToString();
  EXPECT_NE(st.message().find("v6"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("v7"), std::string::npos) << st.ToString();
}

TEST_F(StoreVersionTest, NewerStoreIsVersionMismatchNotCorruption) {
  PatchFormatByte(8);  // a hypothetical v8 store opened by this build
  const Status st = Reopen();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kVersionMismatch) << st.ToString();
  EXPECT_NE(st.message().find("v8"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("v7"), std::string::npos) << st.ToString();
}

TEST_F(StoreVersionTest, GarbageFormatByteIsCorruption) {
  PatchFormatByte(200);  // outside the plausible version window
  const Status st = Reopen();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST_F(StoreVersionTest, TruncateSkipsTheGate) {
  PatchFormatByte(5);
  DbOptions options;  // truncate defaults to true: a fresh store
  EXPECT_TRUE(DbEnv::Open(path_, options).ok());
}

}  // namespace
}  // namespace dm
