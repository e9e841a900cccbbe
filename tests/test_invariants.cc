#include "dm/invariants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "dm/dm_store.h"
#include "storage/buffer_pool.h"
#include "test_util.h"

namespace dm {
namespace {

using testing::MakeScene;
using testing::Scene;
using testing::TempDbPath;

/// Returns true when `report` contains at least one violation of the
/// named invariant.
bool Violates(const InvariantReport& report, const std::string& invariant) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const InvariantViolation& v) {
                       return v.invariant == invariant;
                     });
}

/// Fresh scene + store per test: corruption injected into the buffer
/// pool must never leak into another test's store.
struct TestStore {
  Scene scene;
  std::unique_ptr<DbEnv> env;
  std::unique_ptr<DmStore> store;
  std::string path;
};

TestStore MakeStore(const std::string& tag, DmCodec codec = DmCodec::kFlat) {
  TestStore ts;
  ts.scene = MakeScene(33);
  ts.path = TempDbPath(tag);
  auto env_or = DbEnv::Open(ts.path, {});
  EXPECT_TRUE(env_or.ok());
  ts.env = std::move(env_or).value();
  DmStoreOptions options;
  options.codec = codec;
  auto store_or = DmStore::Build(ts.env.get(), ts.scene.base, ts.scene.tree,
                                 ts.scene.sr, options);
  EXPECT_TRUE(store_or.ok()) << store_or.status().ToString();
  ts.store = std::make_unique<DmStore>(std::move(store_or).value());
  return ts;
}

// ---- byte-level corruption helpers ---------------------------------
//
// These mirror the documented on-disk layouts (heap_file.h slotted
// pages, DmNode flat encoding, R*-tree node pages) so tests can flip
// specific fields the way real disk corruption would.

constexpr uint32_t kHeapSlotSize = 4;  // u16 offset + u16 length

/// Start offset of record `slot` inside its heap page.
uint32_t HeapRecordOffset(const uint8_t* page, uint32_t page_size,
                          uint16_t slot) {
  const uint8_t* dir = page + page_size - (slot + 1u) * kHeapSlotSize;
  uint16_t off;
  std::memcpy(&off, dir, 2);
  return off;
}

// DmNode flat encoding: 6 i64 links, then x, y, z, e_low, e_high
// doubles, then u32 connection count, then i64 connection ids.
constexpr uint32_t kNodeELowOff = 6 * 8 + 3 * 8;
constexpr uint32_t kNodeEHighOff = kNodeELowOff + 8;
constexpr uint32_t kNodeConnCountOff = 6 * 8 + 5 * 8;
constexpr uint32_t kNodeConnOff = kNodeConnCountOff + 4;

/// Finds a record to corrupt: an internal (non-root) node with a
/// non-empty interval and at least one connection. Returns its rid.
RecordId FindVictim(const DmStore& store, DmNode* out) {
  std::vector<uint64_t> rids;
  EXPECT_TRUE(store.rtree()
                  .RangeQuery(Box::Of(-1e30, -1e30, -1e30, 1e30, 1e30, 1e30),
                              &rids)
                  .ok());
  for (uint64_t packed : rids) {
    const RecordId rid = RecordId::Unpack(packed);
    auto node_or = store.FetchNode(rid);
    EXPECT_TRUE(node_or.ok());
    const DmNode& n = node_or.value();
    if (!n.is_leaf() && n.parent != kInvalidVertex && n.e_low < n.e_high &&
        !n.connections.empty()) {
      *out = n;
      return rid;
    }
  }
  ADD_FAILURE() << "no suitable victim record";
  return RecordId{};
}

/// Overwrites `len` bytes at `offset` inside the record at `rid`,
/// through the buffer pool so the next audit reads the change.
void PatchRecord(DbEnv* env, RecordId rid, uint32_t offset,
                 const void* bytes, size_t len) {
  auto page_or = env->pool().Fetch(rid.page);
  ASSERT_TRUE(page_or.ok());
  PageGuard page = std::move(page_or).value();
  const uint32_t rec_off =
      HeapRecordOffset(page.data(), env->page_size(), rid.slot);
  std::memcpy(page.data() + rec_off + offset, bytes, len);
  page.MarkDirty();
}

// ---- known-good stores ---------------------------------------------

TEST(InvariantsTest, FreshStorePassesStructuralAudit) {
  TestStore ts = MakeStore("inv_good");
  auto report_or = VerifyDmStore(*ts.store);
  ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
  const InvariantReport& report = report_or.value();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.nodes_checked, ts.scene.tree.num_nodes());
  EXPECT_GT(report.connections_checked, 0);
  EXPECT_GT(report.rtree_nodes_checked, 1);
}

TEST(InvariantsTest, FreshGroupStorePassesStructuralAudit) {
  // The group codec store must satisfy every structural invariant
  // AND the exactness audit against the source tree (decode through the
  // group dispatch path, not just the flat one).
  TestStore ts = MakeStore("inv_good_group", DmCodec::kGroup);
  auto report_or = VerifyDmStore(*ts.store);
  ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
  const InvariantReport& report = report_or.value();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.nodes_checked, ts.scene.tree.num_nodes());

  auto deep_or =
      VerifyDmStoreAgainstSource(*ts.store, ts.scene.base, ts.scene.tree);
  ASSERT_TRUE(deep_or.ok()) << deep_or.status().ToString();
  EXPECT_TRUE(deep_or.value().ok()) << deep_or.value().ToString();
}

TEST(InvariantsTest, ConnectionListsAreExactAgainstBruteForce) {
  // The paper's exactness claim, machine-checked: the contraction-pass
  // connection lists must equal an independent brute-force
  // recomputation from base-mesh edges and ancestor chains.
  TestStore ts = MakeStore("inv_exact");
  auto report_or =
      VerifyDmStoreAgainstSource(*ts.store, ts.scene.base, ts.scene.tree);
  ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
  EXPECT_TRUE(report_or.value().ok()) << report_or.value().ToString();
}

TEST(InvariantsTest, ReportToStringMentionsEvidence) {
  TestStore ts = MakeStore("inv_tostring");
  auto report_or = VerifyDmStore(*ts.store);
  ASSERT_TRUE(report_or.ok());
  const std::string text = report_or.value().ToString();
  EXPECT_NE(text.find("all invariants hold"), std::string::npos) << text;
  EXPECT_NE(text.find("nodes"), std::string::npos) << text;
}

// ---- corruption injection ------------------------------------------

TEST(InvariantsTest, DetectsSwappedLodInterval) {
  TestStore ts = MakeStore("inv_swap_lod");
  DmNode victim;
  const RecordId rid = FindVictim(*ts.store, &victim);
  ASSERT_TRUE(rid.valid());

  // Swap e_low and e_high in place: the interval inverts, and the
  // parent-abutment equality breaks.
  double e_low;
  double e_high;
  {
    auto page_or = ts.env->pool().Fetch(rid.page);
    ASSERT_TRUE(page_or.ok());
    PageGuard page = std::move(page_or).value();
    const uint32_t rec_off =
        HeapRecordOffset(page.data(), ts.env->page_size(), rid.slot);
    std::memcpy(&e_low, page.data() + rec_off + kNodeELowOff, 8);
    std::memcpy(&e_high, page.data() + rec_off + kNodeEHighOff, 8);
  }
  ASSERT_LT(e_low, e_high);
  PatchRecord(ts.env.get(), rid, kNodeELowOff, &e_high, 8);
  PatchRecord(ts.env.get(), rid, kNodeEHighOff, &e_low, 8);

  auto report_or = VerifyDmStore(*ts.store);
  ASSERT_TRUE(report_or.ok());
  const InvariantReport& report = report_or.value();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(Violates(report, kInvariantLodInterval)) << report.ToString();
}

TEST(InvariantsTest, DetectsStaleConnectionListEntry) {
  TestStore ts = MakeStore("inv_stale_conn");
  DmNode victim;
  const RecordId rid = FindVictim(*ts.store, &victim);
  ASSERT_TRUE(rid.valid());

  // Redirect the first connection entry to the node itself — a stale
  // id that can never be a legal similar-LOD connection.
  const int64_t stale = victim.id;
  PatchRecord(ts.env.get(), rid, kNodeConnOff, &stale, 8);

  auto report_or = VerifyDmStore(*ts.store);
  ASSERT_TRUE(report_or.ok());
  const InvariantReport& report = report_or.value();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(Violates(report, kInvariantConnectionList))
      << report.ToString();

  // The ground-truth audit flags it as an exactness failure too.
  auto deep_or =
      VerifyDmStoreAgainstSource(*ts.store, ts.scene.base, ts.scene.tree);
  ASSERT_TRUE(deep_or.ok());
  EXPECT_TRUE(Violates(deep_or.value(), kInvariantConnectionExact))
      << deep_or.value().ToString();
}

TEST(InvariantsTest, DetectsBadRTreeMbb) {
  TestStore ts = MakeStore("inv_bad_mbb");
  // Root page layout: [level u16][count u16][pad u32], then 56-byte
  // entries (box lo 3 x f64, box hi 3 x f64, payload u64). Shrink the
  // first entry's hi_x: the child MBB (tight by construction) no
  // longer fits inside the parent entry.
  const PageId root = ts.store->meta().rtree_root;
  auto page_or = ts.env->pool().Fetch(root);
  ASSERT_TRUE(page_or.ok());
  PageGuard page = std::move(page_or).value();
  uint16_t level;
  std::memcpy(&level, page.data(), 2);
  ASSERT_GT(level, 0) << "test store too small for an internal root";
  double lo_x;
  double hi_x;
  std::memcpy(&lo_x, page.data() + 8, 8);
  std::memcpy(&hi_x, page.data() + 8 + 24, 8);
  ASSERT_LT(lo_x, hi_x);
  const double shrunk = lo_x + (hi_x - lo_x) * 0.5;
  std::memcpy(page.data() + 8 + 24, &shrunk, 8);
  page.MarkDirty();
  page.Release();

  auto report_or = VerifyDmStore(*ts.store);
  ASSERT_TRUE(report_or.ok());
  const InvariantReport& report = report_or.value();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(Violates(report, kInvariantRTreeMbb)) << report.ToString();
}

// An understated reach table would make bounded fetches drop nodes;
// the audit compares every parent link against it.
TEST(InvariantsTest, DetectsUnderstatedReachTable) {
  TestStore ts = MakeStore("inv_reach");
  DmMeta meta = ts.store->meta();
  ASSERT_GE(meta.reach.size(), 2u);
  ReachStep& last = meta.reach.back();
  last.dist = (last.dist + meta.reach[meta.reach.size() - 2].dist) / 2;
  auto shrunk = DmStore::Open(ts.env.get(), meta);
  ASSERT_TRUE(shrunk.ok());
  auto report_or = VerifyDmStore(shrunk.value());
  ASSERT_TRUE(report_or.ok());
  EXPECT_TRUE(Violates(report_or.value(), kInvariantParentReach))
      << report_or.value().ToString();
  // Only that invariant: the store itself is intact.
  for (const InvariantViolation& v : report_or.value().violations) {
    EXPECT_EQ(v.invariant, kInvariantParentReach) << v.detail;
  }
}

// Each R*-tree leaf entry stores its node's own parent reach, the
// tighter per-entry bound; one lowered below the f32 round-up of the
// true parent distance would drop that node from bounded fetches. The
// value stays finite and non-negative, so only the audit can see it.
TEST(InvariantsTest, DetectsLoweredLeafEntryReach) {
  TestStore ts = MakeStore("inv_leaf_reach");
  PageId victim = kInvalidPage;
  uint16_t slot = 0;
  float reach = 0;
  ASSERT_TRUE(ts.store->rtree()
                  .VisitNodes([&](PageId id, uint16_t level,
                                  const std::vector<RTreeEntry>& entries) {
                    if (level != 0) return true;
                    for (size_t i = 0; i < entries.size(); ++i) {
                      if (entries[i].reach > 0) {
                        victim = id;
                        slot = static_cast<uint16_t>(i);
                        reach = entries[i].reach;
                        return false;
                      }
                    }
                    return true;
                  })
                  .ok());
  ASSERT_NE(victim, kInvalidPage);
  {
    // Leaf entry i: header 8 B, 44 B per entry, reach f32 at +40.
    auto page = std::move(ts.env->pool().Fetch(victim)).ValueOrDie();
    const float lowered = reach / 2;
    std::memcpy(page.data() + 8 + size_t{slot} * 44 + 40, &lowered,
                sizeof(lowered));
    page.MarkDirty();
  }
  ASSERT_TRUE(ts.env->FlushAll().ok());
  auto report_or = VerifyDmStore(*ts.store);
  ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
  EXPECT_TRUE(Violates(report_or.value(), kInvariantParentReach))
      << report_or.value().ToString();
  for (const InvariantViolation& v : report_or.value().violations) {
    EXPECT_EQ(v.invariant, kInvariantParentReach) << v.detail;
  }
}

TEST(InvariantsTest, DetectsLeakedPin) {
  TestStore ts = MakeStore("inv_pin_leak");
  // Hold a guard across the audit: the quiescence check must see the
  // pinned frame.
  auto page_or = ts.env->pool().Fetch(ts.store->meta().heap_first);
  ASSERT_TRUE(page_or.ok());
  PageGuard leaked = std::move(page_or).value();

  auto report_or = VerifyDmStore(*ts.store);
  ASSERT_TRUE(report_or.ok());
  EXPECT_TRUE(Violates(report_or.value(), kInvariantPinBalance))
      << report_or.value().ToString();
  leaked.Release();

  // Once released, the same store audits clean again.
  auto clean_or = VerifyDmStore(*ts.store);
  ASSERT_TRUE(clean_or.ok());
  EXPECT_TRUE(clean_or.value().ok()) << clean_or.value().ToString();
}

TEST(InvariantsTest, ViolationCapKeepsReportsBounded) {
  TestStore ts = MakeStore("inv_cap");
  DmNode victim;
  const RecordId rid = FindVictim(*ts.store, &victim);
  ASSERT_TRUE(rid.valid());
  const int64_t stale = victim.id;
  PatchRecord(ts.env.get(), rid, kNodeConnOff, &stale, 8);

  InvariantOptions options;
  options.max_violations_per_invariant = 1;
  auto report_or = VerifyDmStore(*ts.store, options);
  ASSERT_TRUE(report_or.ok());
  const InvariantReport& report = report_or.value();
  EXPECT_FALSE(report.ok());
  int64_t conn_violations = 0;
  for (const InvariantViolation& v : report.violations) {
    if (v.invariant == kInvariantConnectionList) ++conn_violations;
  }
  EXPECT_LE(conn_violations, 1);

  // A non-positive cap (e.g. from unparseable CLI input) must not
  // suppress all evidence: a failing report always records at least
  // one violation per invariant.
  options.max_violations_per_invariant = 0;
  auto zero_or = VerifyDmStore(*ts.store, options);
  ASSERT_TRUE(zero_or.ok());
  EXPECT_FALSE(zero_or.value().ok());
  EXPECT_FALSE(zero_or.value().violations.empty());
}

}  // namespace
}  // namespace dm
