#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>

#include "common/rng.h"
#include "storage/async_io.h"
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
  HeapFile hf = HeapFile::Open(env_.get(), first);
  EXPECT_EQ(hf.num_records(), 77);
  // Appends continue at the tail.
  const uint8_t b = 9;
  ASSERT_TRUE(hf.Append(&b, 1).ok());
  EXPECT_EQ(hf.num_records(), 78);
}

// --- GetMany coalescing edge cases, per read backend --------------------

// HeapFile::GetMany reads through BufferPool::FetchRuns whatever the
// device: "off" reads each missing sub-run synchronously, the async
// backends stage the whole batch. Every case runs on all three.
class HeapGetManyTest : public ::testing::TestWithParam<const char*> {
 protected:
  struct Delivery {
    RecordId rid;
    uint8_t first_byte;
    uint32_t len;
  };

  void SetUp() override {
    if (std::string(GetParam()) == "uring" && !UringSupported()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel";
    }
    env_ = dm::testing::OpenTempEnv(
        std::string("heap_getmany_") + GetParam(),
        DbOptions{.page_size = 512,
                  .pool_pages = 16,
                  .async_backend = GetParam()});
    hf_.emplace(std::move(HeapFile::Create(env_.get())).ValueOrDie());
  }

  bool has_device() const { return env_->async_device() != nullptr; }

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

  /// Every rid is delivered exactly once per request: in rid order
  /// without a device, run by run in completion order with one.
  void ExpectDeliveredOnce(std::vector<Delivery> got,
                           const std::vector<RecordId>& rids) {
    if (has_device()) {
      std::stable_sort(got.begin(), got.end(),
                       [](const Delivery& a, const Delivery& b) {
                         return a.rid.Pack() < b.rid.Pack();
                       });
    }
    ASSERT_EQ(got.size(), rids.size());
    for (size_t i = 0; i < rids.size(); ++i) {
      EXPECT_EQ(got[i].rid, rids[i]) << "delivery " << i;
    }
  }

  std::unique_ptr<DbEnv> env_;
  std::optional<HeapFile> hf_;
};

TEST_P(HeapGetManyTest, EmptyInputIsNoOp) {
  AppendRecords(1, 1, 1);
  int64_t reads = -1;
  EXPECT_TRUE(ColdGetMany({}, &reads).empty());
  EXPECT_EQ(reads, 0);
}

TEST_P(HeapGetManyTest, SinglePageRunReadsOnePage) {
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

TEST_P(HeapGetManyTest, NonAdjacentPagesMatchPerGetAccounting) {
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

TEST_P(HeapGetManyTest, RunCrossingLastPage) {
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

TEST_P(HeapGetManyTest, DuplicateRidsOnOnePage) {
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

INSTANTIATE_TEST_SUITE_P(ReadBackends, HeapGetManyTest,
                         ::testing::Values("off", "threadpool", "uring"));

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

// --- block pages (format v6 group blobs) ----------------------------------

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
  HeapFile hf = HeapFile::Open(env_.get(), first);
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
  PatchFormatByte(5);  // a v5 store opened by this (v6) build
  const Status st = Reopen();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kVersionMismatch) << st.ToString();
  EXPECT_NE(st.message().find("v5"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("v6"), std::string::npos) << st.ToString();
}

TEST_F(StoreVersionTest, NewerStoreIsVersionMismatchNotCorruption) {
  PatchFormatByte(7);  // a hypothetical v7 store opened by this build
  const Status st = Reopen();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kVersionMismatch) << st.ToString();
  EXPECT_NE(st.message().find("v7"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("v6"), std::string::npos) << st.ToString();
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
