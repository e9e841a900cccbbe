#include "dm/dm_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dm/dm_query.h"
#include "dm/meta_io.h"
#include "dm/reach.h"
#include "test_util.h"

namespace dm {
namespace {

using testing::MakeScene;
using testing::OpenTempEnv;
using testing::Scene;

class DmStoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scene_ = new Scene(MakeScene(33));
    path_ = new std::string(testing::TempDbPath("dm_store"));
    auto env_or = DbEnv::Open(*path_, {});
    ASSERT_TRUE(env_or.ok());
    env_ = env_or.value().release();
    auto store_or =
        DmStore::Build(env_, scene_->base, scene_->tree, scene_->sr);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    store_ = new DmStore(std::move(store_or).value());
  }
  static void TearDownTestSuite() {
    delete store_;
    delete env_;
    std::remove(path_->c_str());
    delete path_;
    delete scene_;
  }
  static Scene* scene_;
  static std::string* path_;
  static DbEnv* env_;
  static DmStore* store_;
};
Scene* DmStoreTest::scene_ = nullptr;
std::string* DmStoreTest::path_ = nullptr;
DbEnv* DmStoreTest::env_ = nullptr;
DmStore* DmStoreTest::store_ = nullptr;

TEST_F(DmStoreTest, MetaReflectsTheTree) {
  const DmMeta& meta = store_->meta();
  EXPECT_EQ(meta.num_nodes, scene_->tree.num_nodes());
  EXPECT_EQ(meta.num_leaves, scene_->tree.num_leaves());
  EXPECT_EQ(meta.rtree_size, scene_->tree.num_nodes());
  EXPECT_DOUBLE_EQ(meta.max_lod, scene_->tree.max_lod());
  EXPECT_FALSE(meta.bounds.empty());
}

TEST_F(DmStoreTest, EveryNodeIsRetrievableThroughTheIndex) {
  // Fetch everything via one huge range query; every PM node must come
  // back exactly once with matching fields.
  std::vector<uint64_t> rids;
  ASSERT_TRUE(store_->rtree()
                  .RangeQuery(Box::Of(-1e30, -1e30, -1e30, 1e30, 1e30, 1e30),
                              &rids)
                  .ok());
  ASSERT_EQ(static_cast<int64_t>(rids.size()), scene_->tree.num_nodes());
  std::set<VertexId> seen;
  for (uint64_t packed : rids) {
    auto node_or = store_->FetchNode(RecordId::Unpack(packed));
    ASSERT_TRUE(node_or.ok());
    const DmNode& n = node_or.value();
    EXPECT_TRUE(seen.insert(n.id).second) << "duplicate " << n.id;
    const PmNode& expect = scene_->tree.node(n.id);
    EXPECT_EQ(n.pos, expect.pos);
    EXPECT_EQ(n.e_low, expect.e_low);
    EXPECT_EQ(n.parent, expect.parent);
    EXPECT_EQ(n.child1, expect.child1);
    EXPECT_EQ(n.wing1, expect.wing1);
  }
}

TEST_F(DmStoreTest, ReopensFromMeta) {
  auto reopened_or = DmStore::Open(env_, store_->meta());
  ASSERT_TRUE(reopened_or.ok());
  DmStore& reopened = reopened_or.value();
  EXPECT_EQ(reopened.meta().num_nodes, store_->meta().num_nodes);
  std::vector<uint64_t> rids;
  ASSERT_TRUE(reopened.rtree()
                  .RangeQuery(Box::FromRect(scene_->tree.bounds(), 0.0, 0.0),
                              &rids)
                  .ok());
  EXPECT_FALSE(rids.empty());
}

TEST_F(DmStoreTest, CatalogIsLoaded) {
  const CostCatalog::Stats& stats = store_->cost_catalog().stats();
  EXPECT_FALSE(stats.nodes.empty());
  EXPECT_FALSE(stats.data_space.empty());
  // Every query shares the store's one catalog; none copies it.
  const CostModelInputs inputs = store_->cost_inputs();
  EXPECT_EQ(inputs.catalog.get(), &store_->cost_catalog());
  EXPECT_EQ(stats.total_records, scene_->tree.num_nodes());
  EXPECT_GT(stats.records_per_page, 1.0);
  EXPECT_FALSE(stats.segment_sample.empty());
  for (const auto& [lo, hi] : stats.segment_sample) {
    EXPECT_LE(lo, hi);
  }
}

TEST_F(DmStoreTest, EAxisMapIsMonotone) {
  const EAxisMap& map = store_->cost_catalog().stats().e_map;
  EXPECT_FALSE(map.identity());
  double prev = -1.0;
  for (double e = 0.0; e <= store_->meta().max_lod;
       e += store_->meta().max_lod / 64.0) {
    const double m = map.Map(e);
    EXPECT_GE(m, prev);
    EXPECT_GE(m, 0.0);
    EXPECT_LE(m, 1.0);
    prev = m;
  }
}

TEST_F(DmStoreTest, ClusteredLayoutKeepsCoRetrievedRecordsTogether) {
  // A plane query's records must hit far fewer heap pages than their
  // count (the clustering property the store exists for).
  ASSERT_TRUE(env_->FlushAll().ok());
  const double e = 0.0;  // full-resolution cut: plenty of records
  std::vector<uint64_t> rids;
  ASSERT_TRUE(store_->rtree()
                  .RangeQuery(Box::FromRect(scene_->tree.bounds(), e, e),
                              &rids)
                  .ok());
  ASSERT_GT(rids.size(), 50u);
  std::set<PageId> pages;
  for (uint64_t packed : rids) {
    pages.insert(RecordId::Unpack(packed).page);
  }
  EXPECT_LT(pages.size(), rids.size() / 3);
}

TEST_F(DmStoreTest, GroupStoreAnswersIdenticallyWithHigherDensity) {
  // The v6 group codec must return the exact same query geometry as
  // the flat store while fitting at least twice as many records per
  // page (the ISSUE's density floor, checked again in CI on the
  // standard fractal dataset).
  auto env2_or = DbEnv::Open(testing::TempDbPath("dm_store_group"), {});
  ASSERT_TRUE(env2_or.ok());
  auto env2 = std::move(env2_or).value();
  DmStoreOptions options;
  options.codec = DmCodec::kGroup;
  auto group_or = DmStore::Build(env2.get(), scene_->base, scene_->tree,
                                 scene_->sr, options);
  ASSERT_TRUE(group_or.ok()) << group_or.status().ToString();
  DmStore& group = group_or.value();
  EXPECT_EQ(group.meta().codec, DmCodec::kGroup);
  EXPECT_EQ(group.heap().num_records(), store_->heap().num_records());
  EXPECT_LE(group.heap().num_pages() * 2, store_->heap().num_pages())
      << "group codec must at least double records per page";

  // Same record population under several query planes.
  for (double frac : {0.0, 0.02, 0.3}) {
    const double e = scene_->tree.max_lod() * frac;
    const Box plane = Box::FromRect(scene_->tree.bounds(), e, e);
    std::vector<uint64_t> flat_rids;
    std::vector<uint64_t> group_rids;
    ASSERT_TRUE(store_->rtree().RangeQuery(plane, &flat_rids).ok());
    ASSERT_TRUE(group.rtree().RangeQuery(plane, &group_rids).ok());
    ASSERT_EQ(flat_rids.size(), group_rids.size());

    std::set<VertexId> flat_ids;
    for (uint64_t rid : flat_rids) {
      flat_ids.insert(
          std::move(store_->FetchNode(RecordId::Unpack(rid))).ValueOrDie().id);
    }
    std::set<VertexId> group_ids;
    for (uint64_t rid : group_rids) {
      const DmNode n =
          std::move(group.FetchNode(RecordId::Unpack(rid))).ValueOrDie();
      group_ids.insert(n.id);
      // Lossless round-trip: every field must match the source tree
      // bit for bit, including FoR-coded coordinates.
      const PmNode& expect = scene_->tree.node(n.id);
      EXPECT_EQ(n.pos, expect.pos);
      EXPECT_EQ(n.e_low, expect.e_low);
      EXPECT_EQ(n.e_high, expect.e_high);
      EXPECT_EQ(n.parent, expect.parent);
      EXPECT_EQ(n.child1, expect.child1);
      EXPECT_EQ(n.child2, expect.child2);
      EXPECT_EQ(n.wing1, expect.wing1);
      EXPECT_EQ(n.wing2, expect.wing2);
    }
    EXPECT_EQ(flat_ids, group_ids);
  }

  // FetchNodes (the batch path queries use) agrees with FetchNode.
  std::vector<uint64_t> all;
  ASSERT_TRUE(group.rtree()
                  .RangeQuery(Box::Of(-1e30, -1e30, -1e30, 1e30, 1e30, 1e30),
                              &all)
                  .ok());
  std::sort(all.begin(), all.end());
  size_t delivered = 0;
  ASSERT_TRUE(group
                  .FetchNodes(all,
                              [&](const NodeRef& ref) {
                                ASSERT_NE(ref, nullptr);
                                ++delivered;
                              })
                  .ok());
  EXPECT_EQ(delivered, all.size());
}

// FetchNode decodes from the pinned page, like the batch path queries
// use; for every record of a flat and of a group store it must return
// exactly the node FetchNodes delivers.
TEST_F(DmStoreTest, FetchNodeMatchesFetchNodesForEveryRecord) {
  for (DmCodec codec : {DmCodec::kFlat, DmCodec::kGroup}) {
    SCOPED_TRACE(DmCodecName(codec));
    auto env = testing::OpenTempEnv(std::string("dm_store_fetch_") +
                                    DmCodecName(codec));
    DmStoreOptions options;
    options.codec = codec;
    auto store_or = DmStore::Build(env.get(), scene_->base, scene_->tree,
                                   scene_->sr, options);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    const DmStore& store = store_or.value();
    std::vector<uint64_t> all;
    ASSERT_TRUE(store.rtree()
                    .RangeQuery(
                        Box::Of(-1e30, -1e30, -1e30, 1e30, 1e30, 1e30), &all)
                    .ok());
    std::sort(all.begin(), all.end());
    ASSERT_EQ(static_cast<int64_t>(all.size()), scene_->tree.num_nodes());
    std::vector<NodeRef> batch;
    ASSERT_TRUE(
        store.FetchNodes(all, [&](const NodeRef& ref) { batch.push_back(ref); })
            .ok());
    ASSERT_EQ(batch.size(), all.size());
    for (size_t i = 0; i < all.size(); ++i) {
      auto node_or = store.FetchNode(RecordId::Unpack(all[i]));
      ASSERT_TRUE(node_or.ok()) << node_or.status().ToString();
      const DmNode& a = node_or.value();
      const DmNode& b = *batch[i];
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.pos, b.pos);
      EXPECT_EQ(a.e_low, b.e_low);
      EXPECT_EQ(a.e_high, b.e_high);
      EXPECT_EQ(a.parent, b.parent);
      EXPECT_EQ(a.child1, b.child1);
      EXPECT_EQ(a.child2, b.child2);
      EXPECT_EQ(a.wing1, b.wing1);
      EXPECT_EQ(a.wing2, b.wing2);
      EXPECT_EQ(a.connections, b.connections) << "node " << a.id;
    }
  }
}

// The parent-reach table bounds every parent link, is as tight as the
// links allow (each breakpoint is some link's distance), and stores
// only rises.
TEST_F(DmStoreTest, ReachTableBoundsEveryParentLink) {
  const ReachTable& reach = store_->meta().reach;
  ASSERT_FALSE(reach.empty());
  EXPECT_TRUE(ValidateReachTable(reach).ok());
  EXPECT_EQ(store_->cost_inputs().reach, &reach);
  std::set<std::pair<double, double>> links;
  for (const PmNode& n : scene_->tree.nodes()) {
    if (n.is_root()) continue;
    const double d = XyDistance(n.pos, scene_->tree.node(n.parent).pos);
    EXPECT_LE(d, ReachAt(reach, n.e_high)) << "node " << n.id;
    links.emplace(n.e_high, d);
  }
  for (const ReachStep& step : reach) {
    EXPECT_TRUE(links.count({step.e_high, step.dist}))
        << "breakpoint (" << step.e_high << ", " << step.dist
        << ") is no parent link";
  }
  EXPECT_EQ(ReachAt(reach, reach.front().e_high - 1.0), 0.0);
  EXPECT_EQ(ReachAt(reach, 1e300), reach.back().dist);
}

TEST(ReachTableTest, MergeIsThePointwiseMax) {
  const ReachTable a = {{1.0, 1.0}, {3.0, 4.0}, {6.0, 5.0}};
  const ReachTable b = {{2.0, 2.0}, {3.0, 3.0}, {5.0, 6.0}};
  const ReachTable m = MergeReachTables(a, b);
  EXPECT_TRUE(ValidateReachTable(m).ok());
  for (double h = 0.0; h < 8.0; h += 0.25) {
    EXPECT_EQ(ReachAt(m, h), std::max(ReachAt(a, h), ReachAt(b, h)))
        << "h = " << h;
  }
  EXPECT_EQ(m, (ReachTable{{1.0, 1.0}, {2.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}}));
  EXPECT_EQ(MergeReachTables(a, {}), a);
}

class ReachMetaFileTest : public DmStoreTest {
 protected:
  void SetUp() override {
    meta_path_ = testing::TempDbPath("reach") + ".meta";
    ASSERT_TRUE(SaveDmMeta(meta_path_, store_->meta()).ok());
    std::ifstream in(meta_path_);
    for (std::string line; std::getline(in, line);) lines_.push_back(line);
  }
  void TearDown() override { std::remove(meta_path_.c_str()); }

  /// Rewrites the meta file with `edit` applied to its lines.
  template <typename Edit>
  void Rewrite(const Edit& edit) {
    std::vector<std::string> lines = lines_;
    edit(&lines);
    std::ofstream out(meta_path_);
    for (const std::string& l : lines) out << l << "\n";
  }

  /// Index of the n-th `reach=` line.
  size_t ReachLine(size_t n) const {
    for (size_t i = 0; i < lines_.size(); ++i) {
      if (lines_[i].rfind("reach=", 0) == 0 && n-- == 0) return i;
    }
    ADD_FAILURE() << "too few reach lines";
    return 0;
  }

  std::string meta_path_;
  std::vector<std::string> lines_;
};

TEST_F(ReachMetaFileTest, RoundTripsExactly) {
  auto loaded = LoadDmMeta(meta_path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().meta.reach, store_->meta().reach);
}

TEST_F(ReachMetaFileTest, DamagedEntriesAreCorruption) {
  ASSERT_GE(store_->meta().reach.size(), 3u);
  const size_t first = ReachLine(0);
  const size_t second = ReachLine(1);
  const std::vector<std::string> damaged = {
      "reach=-1,0",     // negative
      "reach=0,-2",     // negative
      "reach=nan,1",    // not finite
      "reach=1,inf",    // not finite
      "reach=1;2",      // malformed
  };
  for (const std::string& bad : damaged) {
    Rewrite([&](std::vector<std::string>* l) { (*l)[second] = bad; });
    EXPECT_EQ(LoadDmMeta(meta_path_).status().code(), StatusCode::kCorruption)
        << bad;
  }
  // Out of order.
  Rewrite([&](std::vector<std::string>* l) {
    std::swap((*l)[first], (*l)[second]);
  });
  EXPECT_EQ(LoadDmMeta(meta_path_).status().code(), StatusCode::kCorruption);
}

// The codec value goes through ParseDmCodec: the retired per-record
// codec (1) is NotSupported and names itself; any other value outside
// {flat = 0, group = 2} is Corruption.
TEST_F(ReachMetaFileTest, RetiredAndUnknownCodecsAreRejected) {
  size_t codec_line = lines_.size();
  for (size_t i = 0; i < lines_.size(); ++i) {
    if (lines_[i].rfind("codec=", 0) == 0) codec_line = i;
  }
  ASSERT_LT(codec_line, lines_.size());
  auto load_with = [&](const std::string& line) {
    Rewrite([&](std::vector<std::string>* l) { (*l)[codec_line] = line; });
    return LoadDmMeta(meta_path_);
  };
  const auto retired = load_with("codec=1");
  EXPECT_EQ(retired.status().code(), StatusCode::kNotSupported);
  EXPECT_NE(retired.status().ToString().find("per-record"), std::string::npos)
      << retired.status().ToString();
  for (const char* bad : {"codec=3", "codec=-1"}) {
    EXPECT_EQ(load_with(bad).status().code(), StatusCode::kCorruption) << bad;
  }
  for (DmCodec c : {DmCodec::kFlat, DmCodec::kGroup}) {
    auto ok = load_with("codec=" + std::to_string(static_cast<int>(c)));
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_EQ(ok.value().meta.codec, c);
  }
}

// Older writers put a `repacked=0|1` line after `codec=` for a layout
// flag that no longer exists. It is an unknown key now: the file loads
// with every field equal to the same file without the line, and the
// store opens as an ordinary one (its R*-tree names its own rids).
TEST_F(ReachMetaFileTest, LegacyRepackedLineIsIgnored) {
  auto plain = LoadDmMeta(meta_path_);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  Rewrite([](std::vector<std::string>* l) {
    const auto codec = std::find_if(l->begin(), l->end(), [](const auto& s) {
      return s.rfind("codec=", 0) == 0;
    });
    ASSERT_NE(codec, l->end());
    l->insert(codec + 1, "repacked=1");
  });
  auto legacy = LoadDmMeta(meta_path_);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  const DmMeta& a = plain.value().meta;
  const DmMeta& b = legacy.value().meta;
  EXPECT_EQ(b.heap_first, a.heap_first);
  EXPECT_EQ(b.rtree_root, a.rtree_root);
  EXPECT_EQ(b.rtree_size, a.rtree_size);
  EXPECT_EQ(b.num_nodes, a.num_nodes);
  EXPECT_EQ(b.num_leaves, a.num_leaves);
  EXPECT_EQ(b.max_lod, a.max_lod);
  EXPECT_EQ(b.mean_lod, a.mean_lod);
  EXPECT_EQ(b.codec, a.codec);
  EXPECT_EQ(b.bounds.lo_x, a.bounds.lo_x);
  EXPECT_EQ(b.bounds.lo_y, a.bounds.lo_y);
  EXPECT_EQ(b.bounds.hi_x, a.bounds.hi_x);
  EXPECT_EQ(b.bounds.hi_y, a.bounds.hi_y);
  EXPECT_EQ(b.id_space, a.id_space);
  EXPECT_EQ(b.reach, a.reach);
  EXPECT_EQ(legacy.value().quantiles, plain.value().quantiles);
  EXPECT_EQ(legacy.value().stages, plain.value().stages);
  EXPECT_TRUE(DmStore::Open(env_, b).ok());
}

// A meta file from before the table existed opens with no bound and
// fetches the whole cube — with the same geometry as a bounded fetch.
TEST_F(ReachMetaFileTest, MissingTableFetchesTheCube) {
  Rewrite([](std::vector<std::string>* l) {
    l->erase(std::remove_if(l->begin(), l->end(),
                            [](const std::string& s) {
                              return s.rfind("reach=", 0) == 0;
                            }),
             l->end());
  });
  auto loaded = LoadDmMeta(meta_path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().meta.reach.empty());
  auto legacy = DmStore::Open(env_, loaded.value().meta);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy.value().cost_inputs().reach, nullptr);

  const Rect b = scene_->tree.bounds();
  ViewQuery q = ViewQuery::FromAngle(
      Rect::Of(b.lo_x + 0.1 * b.width(), b.lo_y + 0.2 * b.height(),
               b.lo_x + 0.8 * b.width(), b.lo_y + 0.9 * b.height()),
      0.01 * scene_->tree.max_lod(), 0.5, scene_->tree.max_lod());
  DmQueryOptions cube;
  cube.bounded_fetch = false;
  auto on_legacy = DmQueryProcessor(&legacy.value()).SingleBase(q);
  auto cube_fetch = DmQueryProcessor(store_, cube).SingleBase(q);
  auto bounded = DmQueryProcessor(store_).SingleBase(q);
  ASSERT_TRUE(on_legacy.ok() && cube_fetch.ok() && bounded.ok());
  EXPECT_EQ(on_legacy.value().stats.nodes_fetched,
            cube_fetch.value().stats.nodes_fetched);
  EXPECT_LT(bounded.value().stats.nodes_fetched,
            cube_fetch.value().stats.nodes_fetched);
  EXPECT_EQ(on_legacy.value().vertices, bounded.value().vertices);
  EXPECT_EQ(on_legacy.value().positions, bounded.value().positions);
  EXPECT_EQ(on_legacy.value().triangles.size(),
            bounded.value().triangles.size());
}

}  // namespace
}  // namespace dm
