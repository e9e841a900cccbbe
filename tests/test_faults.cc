// Fault-injection sweep (DESIGN.md §11): drives seeded disk faults
// through the full stack and checks the three promises of the failure
// model — transients are absorbed, permanent losses surface with the
// right Status class (or degrade to a coarser legal mesh), and no
// injected corruption ever escapes silently.
//
// The sweep seeds default to three fixed values; set DM_FAULT_SEED to
// replay a single seed (the schedule is a pure function of the seed
// and the op sequence, so a failure reproduces exactly).

#include <cstdlib>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "dm/dm_query.h"
#include "dm/dm_store.h"
#include "dm/invariants.h"
#include "gtest/gtest.h"
#include "mesh/validate.h"
#include "server/query_service.h"
#include "storage/db_env.h"
#include "storage/fault_env.h"
#include "storage/page_crc.h"
#include "test_util.h"

namespace dm {
namespace {

using testing::MakeScene;
using testing::OpenTempEnv;
using testing::Scene;

// ---- checksum primitives -------------------------------------------

using CrcFn = uint32_t (*)(uint32_t, const void*, size_t);

/// The implementations to hold against each other: the portable
/// slice-by-4 path always, the instruction path where the CPU has it.
std::vector<std::pair<const char*, CrcFn>> CrcPaths() {
  std::vector<std::pair<const char*, CrcFn>> paths = {
      {"portable", &Crc32cExtendPortable}};
  if (Crc32cHardwareAvailable()) {
    paths.emplace_back("hardware", &Crc32cExtendHardware);
  }
  return paths;
}

TEST(Crc32c, KnownAnswer) {
  for (const auto& [name, extend] : CrcPaths()) {
    // The CRC-32C check value: crc of the ASCII digits "123456789".
    EXPECT_EQ(extend(0, "123456789", 9), 0xE3069283u) << name;
    EXPECT_EQ(extend(0, "", 0), 0u) << name;
  }
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32c, ExtendIsIncremental) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{7}, data.size()}) {
    uint32_t crc = Crc32cExtend(0, data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32c, HardwareAndPortablePathsAgree) {
  if (!Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "no CRC32C instruction on this CPU";
  }
  // Past one 4,096-byte page, at every start alignment of an 8-byte
  // word, so both paths' head, body and tail loops all run.
  constexpr size_t kMaxLen = 4104;
  std::vector<uint8_t> buf(kMaxLen + 8);
  Rng rng(20);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t align = 0; align < 8; ++align) {
    const uint8_t* p = buf.data() + align;
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const uint32_t want = Crc32cExtendPortable(0, p, len);
      ASSERT_EQ(Crc32cExtendHardware(0, p, len), want)
          << "align " << align << " len " << len;
    }
  }
  // A running CRC continued by the other path: the split Extend a page
  // trailer check performs.
  for (size_t split = 0; split <= kMaxLen; split += 13) {
    const uint8_t* p = buf.data() + (split % 8);
    const uint32_t whole = Crc32cExtendPortable(0, p, kMaxLen);
    EXPECT_EQ(Crc32cExtendHardware(Crc32cExtendPortable(0, p, split),
                                   p + split, kMaxLen - split),
              whole)
        << "split " << split;
    EXPECT_EQ(Crc32cExtendPortable(Crc32cExtendHardware(0, p, split),
                                   p + split, kMaxLen - split),
              whole)
        << "split " << split;
  }
}

TEST(PageTrailer, RoundTripAndBitFlipDetection) {
  constexpr uint32_t kPhysical = 512;
  std::vector<uint8_t> page(kPhysical, 0);
  for (uint32_t i = 0; i < kPhysical - kPageTrailerSize; ++i) {
    page[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  StampPageTrailer(page.data(), kPhysical);
  EXPECT_TRUE(VerifyPageTrailer(page.data(), kPhysical, 3).ok());

  // Any single-bit flip — logical bytes or the trailer itself — must
  // be caught.
  for (uint32_t bit : {0u, 8u * 100u + 3u, 8u * (kPhysical - 3u)}) {
    page[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    const Status st = VerifyPageTrailer(page.data(), kPhysical, 3);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << "bit " << bit;
    page[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }

  // A freshly allocated all-zero page carries no stamp yet and is fine.
  std::vector<uint8_t> fresh(kPhysical, 0);
  EXPECT_TRUE(VerifyPageTrailer(fresh.data(), kPhysical, 4).ok());
}

// ---- fixture: a store inside a fault-capable environment -----------

struct FaultDb {
  std::unique_ptr<DbEnv> env;
  std::unique_ptr<DmStore> store;
  FaultInjectingDevice* device = nullptr;
};

FaultDb BuildFaultDb(const std::string& tag, int side = 33,
                     DbOptions options = {},
                     DmStoreOptions store_options = {}) {
  options.enable_fault_injection = true;
  FaultDb db;
  db.env = OpenTempEnv(tag, options);
  db.device = db.env->fault_device();
  EXPECT_NE(db.device, nullptr);
  const Scene scene = MakeScene(side);
  auto store_or = DmStore::Build(db.env.get(), scene.base, scene.tree,
                                 scene.sr, store_options);
  EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
  db.store = std::make_unique<DmStore>(std::move(store_or).value());
  EXPECT_TRUE(db.env->FlushAll().ok());
  return db;
}

void ExpectValidMesh(const DmQueryResult& r) {
  const MeshStats ms = ComputeMeshStats(r.vertices, r.positions, r.triangles);
  EXPECT_TRUE(ms.IsManifold()) << ms.ToString();
  std::unordered_set<VertexId> ids(r.vertices.begin(), r.vertices.end());
  for (const Triangle& t : r.triangles) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ids.count(t[i]) > 0)
          << "triangle references unfetched vertex " << t[i];
    }
  }
}

// ---- determinism ---------------------------------------------------

TEST(FaultEnv, ScheduleIsDeterministic) {
  FaultDb db = BuildFaultDb("fault_determinism");
  FaultPlan plan;
  plan.seed = 42;
  plan.read_error_rate = 0.10;
  plan.read_transient_rate = 0.10;
  plan.bit_flip_rate = 0.10;
  plan.short_read_rate = 0.05;

  const uint32_t physical = db.env->disk().page_size();
  const PageId pages = db.env->disk().num_pages();
  std::vector<uint8_t> buf(physical);
  const auto run = [&] {
    db.device->set_plan(plan);  // rewinds the schedule to op 0
    std::vector<StatusCode> codes;
    for (PageId id = 0; id < pages; ++id) {
      codes.push_back(db.device->ReadPage(id % pages, buf.data()).code());
    }
    return codes;
  };
  const std::vector<StatusCode> first = run();
  const std::vector<StatusCode> second = run();
  EXPECT_EQ(first, second);
  // At these rates a whole-file sweep must have injected something.
  EXPECT_GT(db.device->stats().injected_total(), 0u);
}

// ---- status classes per fault kind ---------------------------------

TEST(FaultEnv, InjectedEioFailsStrictQueryWithIOError) {
  FaultDb db = BuildFaultDb("fault_eio");
  FaultPlan plan;
  plan.seed = 1;
  plan.read_error_rate = 1.0;
  db.device->set_plan(plan);

  DmQueryProcessor proc(db.store.get());
  const auto r = proc.ViewpointIndependent(db.store->meta().bounds,
                                           db.store->meta().max_lod * 0.2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError)
      << r.status().ToString();
}

TEST(FaultEnv, BitFlipsNeverEscapeSilently) {
  FaultDb db = BuildFaultDb("fault_bitflip");
  FaultPlan plan;
  plan.seed = 2;
  plan.bit_flip_rate = 1.0;
  db.device->set_plan(plan);

  DmQueryProcessor proc(db.store.get());
  const auto r = proc.ViewpointIndependent(db.store->meta().bounds,
                                           db.store->meta().max_lod * 0.2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
      << r.status().ToString();
  // Every injected flip was caught by the checksum layer: detected
  // corrupt pages match injected flips exactly.
  EXPECT_GT(db.device->stats().bit_flips.load(), 0u);
  EXPECT_EQ(static_cast<uint64_t>(db.env->stats().corrupt_pages),
            db.device->stats().bit_flips.load());
}

TEST(FaultEnv, TransientStormsAreAbsorbedByRetries) {
  FaultDb db = BuildFaultDb("fault_transient");
  FaultPlan plan;
  plan.seed = 3;
  plan.read_transient_rate = 0.15;
  db.device->set_plan(plan);

  DmQueryProcessor proc(db.store.get());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db.env->FlushAll().ok());  // cold cache: force disk I/O
    const auto r = proc.ViewpointIndependent(
        db.store->meta().bounds, db.store->meta().max_lod * (0.1 + 0.2 * i));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ExpectValidMesh(r.value());
  }
  EXPECT_GT(db.env->stats().io_retries, 0);
  EXPECT_GT(db.device->stats().read_transients.load(), 0u);
}

TEST(FaultEnv, WriteFaultsSurfaceAsIOError) {
  FaultDb db = BuildFaultDb("fault_write");
  FaultPlan plan;
  plan.seed = 4;
  plan.write_error_rate = 1.0;
  db.device->set_plan(plan);

  const uint32_t physical = db.env->disk().page_size();
  std::vector<uint8_t> buf(physical, 0xAB);
  StampPageTrailer(buf.data(), physical);
  EXPECT_EQ(db.device->WritePage(0, buf.data()).code(), StatusCode::kIOError);
  EXPECT_EQ(db.device->AllocatePage().status().code(), StatusCode::kIOError);
}

TEST(FaultEnv, TornWriteIsCaughtOnReadback) {
  FaultDb db = BuildFaultDb("fault_torn");
  const uint32_t physical = db.env->disk().page_size();
  const PageId victim = 1;

  // A new version of the page that differs from the on-disk one in its
  // first half (where the torn write lands).
  std::vector<uint8_t> page(physical);
  ASSERT_TRUE(db.env->disk().ReadPage(victim, page.data()).ok());
  for (uint32_t i = 0; i < physical / 4; ++i) page[i] ^= 0x5A;
  StampPageTrailer(page.data(), physical);

  FaultPlan plan;
  plan.seed = 5;
  plan.torn_write_rate = 1.0;
  db.device->set_plan(plan);
  EXPECT_EQ(db.device->WritePage(victim, page.data()).code(),
            StatusCode::kIOError);
  db.device->set_plan(FaultPlan{});  // disarm

  // The platter now holds half new / half stale bytes; the stale
  // trailer cannot match the mixed content.
  std::vector<uint8_t> readback(physical);
  ASSERT_TRUE(db.env->disk().ReadPage(victim, readback.data()).ok());
  EXPECT_EQ(VerifyPageTrailer(readback.data(), physical, victim).code(),
            StatusCode::kCorruption);
}

TEST(FaultEnv, BuildUnderWriteFaultsFailsCleanly) {
  DbOptions options;
  options.enable_fault_injection = true;
  auto env = OpenTempEnv("fault_build", options);
  FaultPlan plan;
  plan.seed = 6;
  plan.write_error_rate = 0.5;
  env->fault_device()->set_plan(plan);

  const Scene scene = MakeScene(33);
  auto store_or = DmStore::Build(env.get(), scene.base, scene.tree, scene.sr,
                                 {});
  // Flush whatever survived, too: every failure must be a clean
  // kIOError, never a crash or a silent success.
  if (store_or.ok()) {
    const Status st = env->FlushAll();
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  } else {
    EXPECT_EQ(store_or.status().code(), StatusCode::kIOError)
        << store_or.status().ToString();
  }
}

// ---- graceful degradation ------------------------------------------

TEST(Degradation, DegradedModeIsByteIdenticalOnHealthyStores) {
  // The degraded path takes different fetch/refine branches, so it
  // needs its own round-trip check: with no fault armed it must neither
  // degrade nor change a single byte of geometry, on either codec.
  for (DmCodec codec : {DmCodec::kFlat, DmCodec::kGroup}) {
    DmStoreOptions so;
    so.codec = codec;
    FaultDb db = BuildFaultDb("degrade_healthy", 33, {}, so);
    const Rect b = db.store->meta().bounds;
    const double max_lod = db.store->meta().max_lod;
    const Rect roi =
        Rect::Of(b.lo_x + 0.05 * b.width(), b.lo_y + 0.05 * b.height(),
                 b.lo_x + 0.95 * b.width(), b.lo_y + 0.95 * b.height());
    ViewQuery q;
    q.roi = roi;
    q.e_min = 0.01 * max_lod;
    q.e_max = 0.5 * max_lod;
    DmQueryOptions lenient;
    lenient.allow_degraded = true;
    DmQueryProcessor strict(db.store.get());
    DmQueryProcessor degraded(db.store.get(), lenient);
    const auto run = [&](DmQueryProcessor& p, int kind) {
      return kind == 0   ? p.ViewpointIndependent(roi, 0.05 * max_lod)
             : kind == 1 ? p.SingleBase(q)
                         : p.MultiBase(q);
    };
    const char* kKinds[] = {"uniform", "single-base", "multi-base"};
    for (int kind = 0; kind < 3; ++kind) {
      SCOPED_TRACE(std::string(kKinds[kind]) + " codec " +
                   std::to_string(static_cast<int>(codec)));
      const auto a = run(strict, kind);
      const auto r = run(degraded, kind);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_FALSE(r.value().health.degraded);
      EXPECT_EQ(r.value().vertices, a.value().vertices);
      EXPECT_EQ(r.value().positions, a.value().positions);
      ASSERT_EQ(r.value().triangles.size(), a.value().triangles.size());
      for (size_t i = 0; i < a.value().triangles.size(); ++i) {
        EXPECT_EQ(r.value().triangles[i].v, a.value().triangles[i].v) << i;
      }
      EXPECT_FALSE(a.value().triangles.empty());
    }
  }
}

TEST(Degradation, LostHeapPagesYieldCoarserValidMesh) {
  FaultDb db = BuildFaultDb("degrade_eio", 49);
  // A deep cut (the LOD axis is heavily skewed, so a small fraction of
  // max_lod already reaches fine detail) spanning many heap pages.
  const double e = db.store->meta().max_lod * 0.01;

  // Measure the device-op count of a healthy cold run. A query's ops
  // are index reads followed by heap-data reads, so its LAST op is
  // always a heap read — failing exactly that op loses node records
  // without touching the (always-fatal) index pages.
  DmQueryProcessor healthy_proc(db.store.get());
  ASSERT_TRUE(db.env->FlushAll().ok());
  const uint64_t ops0 = db.device->stats().ops.load();
  const auto healthy =
      healthy_proc.ViewpointIndependent(db.store->meta().bounds, e);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  const uint64_t query_ops = db.device->stats().ops.load() - ops0;
  ASSERT_GT(query_ops, 1u);

  DmQueryOptions qopts;
  qopts.allow_degraded = true;
  DmQueryProcessor proc(db.store.get(), qopts);
  FaultPlan plan;
  plan.seed = 7;
  plan.read_error_rate = 1.0;
  plan.trigger_after_n = query_ops - 1;  // arm for the final heap read
  ASSERT_TRUE(db.env->FlushAll().ok());
  db.device->set_plan(plan);
  const auto r = proc.ViewpointIndependent(db.store->meta().bounds, e);
  db.device->set_plan(FaultPlan{});

  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().health.degraded);
  EXPECT_GT(r.value().health.records_failed, 0);
  EXPECT_GT(r.value().health.pages_failed, 0);
  ExpectValidMesh(r.value());
  // Sparser than the healthy run, never richer.
  EXPECT_LT(r.value().vertices.size(), healthy.value().vertices.size());

  // Strict mode over the same fault schedule refuses instead.
  DmQueryProcessor strict(db.store.get());
  ASSERT_TRUE(db.env->FlushAll().ok());
  db.device->set_plan(plan);
  const auto refused = strict.ViewpointIndependent(db.store->meta().bounds, e);
  db.device->set_plan(FaultPlan{});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kIOError)
      << refused.status().ToString();
}

TEST(Degradation, DeadlineTripsToLegalCoarserCut) {
  FaultDb db = BuildFaultDb("degrade_deadline", 65);
  ViewQuery q;
  q.roi = db.store->meta().bounds;
  q.e_min = 0.0;  // full detail at the near edge: deep refinement
  q.e_max = db.store->meta().max_lod * 0.05;

  DmQueryProcessor healthy_proc(db.store.get());
  ASSERT_TRUE(db.env->FlushAll().ok());
  const auto healthy = healthy_proc.SingleBase(q);
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy.value().health.deadline_hit);
  // Premise of the deadline trip below: the refinement loop must run
  // longer than one deadline-check stride (64 iterations).
  ASSERT_GT(healthy.value().stats.refinement_splits, 64);

  DmQueryOptions qopts;
  qopts.deadline_millis = 1e-6;  // expires before the first check
  DmQueryProcessor proc(db.store.get(), qopts);
  // Run against the cache the healthy query just warmed: with no page
  // misses there are no blocking I/O waits, so the expired deadline
  // trips in the refinement loop — the behavior under test. (The
  // mid-fetch I/O deadline checks are covered separately by
  // MidFetchDeadlineDegradesUniformQuery.)
  const auto r = proc.SingleBase(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().health.deadline_hit);
  EXPECT_TRUE(r.value().health.degraded);
  EXPECT_GT(r.value().health.nodes_degraded, 0);
  ExpectValidMesh(r.value());
  // The deadline can only stop refinement early: the result is coarser.
  EXPECT_LE(r.value().vertices.size(), healthy.value().vertices.size());
}

TEST(Degradation, MidFetchDeadlineDegradesUniformQuery) {
  // The mid-query I/O deadline checks: a uniform query has no
  // refinement loop, so its deadline can only trip inside the fetch's
  // blocking reads (ReadWithRetry / FetchRuns reads).
  FaultDb db = BuildFaultDb("deadline_midfetch", 49);
  const double e = db.store->meta().max_lod * 0.01;

  DmQueryProcessor healthy_proc(db.store.get());
  ASSERT_TRUE(db.env->FlushAll().ok());
  const uint64_t ops0 = db.device->stats().ops.load();
  const auto healthy =
      healthy_proc.ViewpointIndependent(db.store->meta().bounds, e);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  const uint64_t query_ops = db.device->stats().ops.load() - ops0;
  ASSERT_GT(query_ops, 4u);

  // From mid-query on, every device op sleeps 5ms against a 2ms
  // budget: the next deadline check inside the fetch must trip, and
  // the query finishes with whatever it had.
  FaultPlan plan;
  plan.seed = 11;
  plan.latency_spike_rate = 1.0;
  plan.latency_spike_micros = 5000;
  plan.trigger_after_n = query_ops / 2;

  DmQueryOptions qopts;
  qopts.allow_degraded = true;
  qopts.deadline_millis = 2.0;
  DmQueryProcessor proc(db.store.get(), qopts);
  ASSERT_TRUE(db.env->FlushAll().ok());
  db.device->set_plan(plan);
  const auto r = proc.ViewpointIndependent(db.store->meta().bounds, e);
  db.device->set_plan(FaultPlan{});

  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().health.deadline_hit);
  EXPECT_TRUE(r.value().health.degraded);
  ExpectValidMesh(r.value());
  EXPECT_LE(r.value().vertices.size(), healthy.value().vertices.size());

  // Strict mode over the same schedule refuses with the deadline's own
  // status class (not kIOError — callers tell pressure from damage).
  DmQueryOptions strict_opts;
  strict_opts.deadline_millis = 2.0;
  DmQueryProcessor strict(db.store.get(), strict_opts);
  ASSERT_TRUE(db.env->FlushAll().ok());
  db.device->set_plan(plan);
  const auto refused = strict.ViewpointIndependent(db.store->meta().bounds, e);
  db.device->set_plan(FaultPlan{});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDeadlineExceeded)
      << refused.status().ToString();
}

TEST(Degradation, PreExpiredDeadlineFailsBeforeAnyRead) {
  // An already-expired deadline must trip on the first blocking wait,
  // before any page I/O is spent on a query that cannot finish.
  FaultDb db = BuildFaultDb("deadline_preexpired", 33);
  DmQueryOptions qopts;
  qopts.deadline_millis = 1.0;
  DmQueryProcessor proc(db.store.get(), qopts);
  proc.set_deadline(std::chrono::steady_clock::now() -
                    std::chrono::seconds(1));
  ASSERT_TRUE(db.env->FlushAll().ok());
  const uint64_t ops0 = db.device->stats().ops.load();
  const auto r = proc.ViewpointIndependent(db.store->meta().bounds,
                                           db.store->meta().max_lod * 0.05);
  proc.clear_deadline();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_EQ(db.device->stats().ops.load(), ops0)
      << "spent device ops on a pre-expired query";
}

// ---- degraded accounting under the group codec ---------------------

TEST(Degradation, GroupCodecLostPageFailsTheWholeGroup) {
  // The group codec packs many frame-of-reference records per page:
  // losing a page must charge records_failed for every record in the
  // lost group, not just one, and the degraded mesh loses at most that
  // many vertices.
  DmStoreOptions group;
  group.codec = DmCodec::kGroup;
  FaultDb db = BuildFaultDb("degrade_group", 49, {}, group);
  ASSERT_EQ(db.store->meta().codec, DmCodec::kGroup);
  // At this LOD the query's final heap read is a single page.
  const double e = db.store->meta().max_lod * 0.02;

  DmQueryProcessor healthy_proc(db.store.get());
  ASSERT_TRUE(db.env->FlushAll().ok());
  const uint64_t ops0 = db.device->stats().ops.load();
  const auto healthy =
      healthy_proc.ViewpointIndependent(db.store->meta().bounds, e);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  const uint64_t query_ops = db.device->stats().ops.load() - ops0;
  ASSERT_GT(query_ops, 1u);

  // Fail exactly the final heap read (index pages stay healthy).
  FaultPlan plan;
  plan.seed = 7;
  plan.read_error_rate = 1.0;
  plan.trigger_after_n = query_ops - 1;
  DmQueryOptions qopts;
  qopts.allow_degraded = true;
  DmQueryProcessor proc(db.store.get(), qopts);
  ASSERT_TRUE(db.env->FlushAll().ok());
  db.device->set_plan(plan);
  const auto r = proc.ViewpointIndependent(db.store->meta().bounds, e);
  db.device->set_plan(FaultPlan{});

  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const QueryHealth& h = r.value().health;
  EXPECT_TRUE(h.degraded);
  // Every op from the failed one on fails, so the pages and records
  // the degraded run did not get are exactly the ones it lost.
  const QueryStats& hs = healthy.value().stats;
  const QueryStats& ds = r.value().stats;
  ASSERT_EQ(hs.disk_accesses - ds.disk_accesses, 1)
      << "the final heap read is no longer one page; pick another LOD";
  EXPECT_EQ(h.pages_failed, 1);
  EXPECT_EQ(h.records_failed, hs.nodes_fetched - ds.nodes_fetched);
  // A group page is lost whole: the one lost page takes several records.
  EXPECT_GT(h.records_failed, 1);
  ExpectValidMesh(r.value());
  // Accounting sanity: the mesh can lose at most the lost records.
  EXPECT_GE(r.value().vertices.size() + static_cast<size_t>(h.records_failed),
            healthy.value().vertices.size());
  EXPECT_LT(r.value().vertices.size(), healthy.value().vertices.size());
}

// ---- resource exhaustion -------------------------------------------

TEST(Exhaustion, AllFramesPinnedIsResourceExhausted) {
  DbOptions options;
  options.pool_pages = 16;
  options.pool_shards = 1;
  auto env = OpenTempEnv("pool_exhaustion", options);
  std::vector<PageGuard> guards;
  Status st = Status::OK();
  for (int i = 0; i < 64 && st.ok(); ++i) {
    auto g = env->pool().NewPage();
    st = g.status();
    if (g.ok()) guards.push_back(std::move(g).value());
  }
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_EQ(guards.size(), 16u);
}

// ---- overload shedding ---------------------------------------------

TEST(Shedding, LateJobsAreShedWithUnavailable) {
  FaultDb db = BuildFaultDb("shed", 49);
  QueryServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 64;
  options.max_queue_wait_millis = 0.001;  // everything queued is late
  DmStoreSource source(db.store.get());
  QueryService service(&source, options);

  const std::vector<QueryRequest> workload = MakeMixedWorkload(
      db.store->meta().bounds, db.store->meta().max_lod, 32, 99);
  std::atomic<int64_t> unavailable{0};
  std::atomic<int64_t> ok{0};
  for (const QueryRequest& req : workload) {
    service.Submit(req, [&](const Result<DmQueryResult>& r,
                            const QueryTiming&) {
      if (r.ok()) {
        ok.fetch_add(1);
      } else if (r.status().code() == StatusCode::kUnavailable) {
        unavailable.fetch_add(1);
      }
    });
  }
  service.Drain();
  const ServiceHealth health = service.health();
  service.Shutdown();

  EXPECT_EQ(ok.load() + unavailable.load(),
            static_cast<int64_t>(workload.size()));
  EXPECT_EQ(health.shed, unavailable.load());
  EXPECT_GT(health.shed, 0);
  EXPECT_EQ(health.errors, 0);
}

// ---- the seeded sweep ----------------------------------------------

std::vector<uint64_t> SweepSeeds() {
  if (const char* s = std::getenv("DM_FAULT_SEED")) {
    return {static_cast<uint64_t>(std::strtoull(s, nullptr, 10))};
  }
  return {101, 202, 303};
}

struct FaultClass {
  const char* name;
  FaultPlan plan;  // seed filled per sweep iteration
};

std::vector<FaultClass> SweepClasses() {
  std::vector<FaultClass> classes;
  {
    FaultClass c{"eio", {}};
    c.plan.read_error_rate = 0.02;
    classes.push_back(c);
  }
  {
    FaultClass c{"transient", {}};
    c.plan.read_transient_rate = 0.10;
    classes.push_back(c);
  }
  {
    FaultClass c{"short-read", {}};
    c.plan.short_read_rate = 0.02;
    classes.push_back(c);
  }
  {
    FaultClass c{"bit-flip", {}};
    c.plan.bit_flip_rate = 0.02;
    classes.push_back(c);
  }
  {
    FaultClass c{"latency", {}};
    c.plan.latency_spike_rate = 0.05;
    c.plan.latency_spike_micros = 200;
    classes.push_back(c);
  }
  {
    FaultClass c{"mixed", {}};
    c.plan.read_error_rate = 0.01;
    c.plan.read_transient_rate = 0.05;
    c.plan.short_read_rate = 0.01;
    c.plan.bit_flip_rate = 0.01;
    c.plan.latency_spike_rate = 0.02;
    c.plan.latency_spike_micros = 100;
    classes.push_back(c);
  }
  return classes;
}

TEST(FaultSweep, SeededClassesDegradeButNeverCorrupt) {
  for (const uint64_t seed : SweepSeeds()) {
    FaultDb db = BuildFaultDb("sweep_" + std::to_string(seed), 41);
    const DmMeta& meta = db.store->meta();
    DmQueryOptions qopts;
    qopts.allow_degraded = true;
    DmQueryProcessor proc(db.store.get(), qopts);

    for (const FaultClass& fc : SweepClasses()) {
      SCOPED_TRACE(std::string("seed ") + std::to_string(seed) + " class " +
                   fc.name);
      ASSERT_TRUE(db.env->FlushAll().ok());
      db.env->ResetStats();
      db.device->ResetStats();
      FaultPlan plan = fc.plan;
      plan.seed = seed;
      db.device->set_plan(plan);

      const std::vector<QueryRequest> workload =
          MakeMixedWorkload(meta.bounds, meta.max_lod, 6, seed * 17 + 5);
      int executed = 0;
      for (const QueryRequest& req : workload) {
        ASSERT_TRUE(db.env->FlushAll().ok());  // cold: faults hit disk I/O
        Result<DmQueryResult> r = ExecuteRequest(&proc, req);
        ++executed;
        if (!r.ok()) {
          // Index-page losses and storms outlasting the retry budget
          // are legal failures — but only with the right class.
          const StatusCode code = r.status().code();
          EXPECT_TRUE(code == StatusCode::kIOError ||
                      code == StatusCode::kCorruption ||
                      code == StatusCode::kUnavailable)
              << r.status().ToString();
          continue;
        }
        ExpectValidMesh(r.value());
        if (r.value().health.degraded) {
          EXPECT_GT(r.value().health.records_failed +
                        static_cast<int64_t>(r.value().health.deadline_hit),
                    0);
        }
      }
      EXPECT_EQ(executed, static_cast<int>(workload.size()));

      // The zero-silent-escape invariant: every injected bit flip was
      // rejected by the checksum layer.
      EXPECT_EQ(static_cast<uint64_t>(db.env->stats().corrupt_pages),
                db.device->stats().bit_flips.load());
      db.device->set_plan(FaultPlan{});

      // The store on disk is untouched by read faults: with injection
      // disarmed, a strict full-depth query and the invariant audit
      // still pass.
      ASSERT_TRUE(db.env->FlushAll().ok());
      DmQueryProcessor strict(db.store.get());
      const auto clean =
          strict.ViewpointIndependent(meta.bounds, meta.max_lod * 0.2);
      ASSERT_TRUE(clean.ok()) << clean.status().ToString();
      EXPECT_FALSE(clean.value().health.degraded);
    }

    const auto report = VerifyDmStore(*db.store);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report.value().ok()) << report.value().ToString();
  }
}

}  // namespace
}  // namespace dm
