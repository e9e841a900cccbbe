#include "index/rtree/rstar_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <set>
#include <string>

#include "common/rng.h"
#include "test_util.h"

namespace dm {
namespace {

Box RandomBox(Rng* rng, double space, double max_side) {
  const double x = rng->Uniform(0, space);
  const double y = rng->Uniform(0, space);
  const double e = rng->Uniform(0, space);
  return Box::Of(x, y, e, x + rng->Uniform(0, max_side),
                 y + rng->Uniform(0, max_side),
                 e + rng->Uniform(0, max_side));
}

class RStarTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = dm::testing::OpenTempEnv("rtree", DbOptions{.page_size = 512,
                                                       .pool_pages = 256});
    tree_.emplace(std::move(RStarTree::Create(env_.get())).ValueOrDie());
  }
  std::unique_ptr<DbEnv> env_;
  std::optional<RStarTree> tree_;
};

TEST_F(RStarTreeTest, EmptyTreeAnswersEmpty) {
  std::vector<uint64_t> out;
  ASSERT_TRUE(tree_->RangeQuery(Box::Of(0, 0, 0, 1, 1, 1), &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(std::move(tree_->Height()).ValueOrDie(), 1);
}

TEST_F(RStarTreeTest, RejectsEmptyBox) {
  EXPECT_FALSE(tree_->Insert(Box{}, 1).ok());
}

TEST_F(RStarTreeTest, RangeQueryMatchesBruteForce) {
  Rng rng(42);
  std::vector<Box> boxes;
  for (uint64_t i = 0; i < 2000; ++i) {
    const Box b = RandomBox(&rng, 100.0, 5.0);
    ASSERT_TRUE(tree_->Insert(b, i).ok());
    boxes.push_back(b);
  }
  EXPECT_EQ(tree_->size(), 2000);
  EXPECT_GT(std::move(tree_->Height()).ValueOrDie(), 1);

  for (int q = 0; q < 25; ++q) {
    const Box query = RandomBox(&rng, 100.0, 25.0);
    std::vector<uint64_t> got;
    ASSERT_TRUE(tree_->RangeQuery(query, &got).ok());
    std::set<uint64_t> expected;
    for (uint64_t i = 0; i < boxes.size(); ++i) {
      if (boxes[static_cast<size_t>(i)].Intersects(query)) {
        expected.insert(i);
      }
    }
    EXPECT_EQ(std::set<uint64_t>(got.begin(), got.end()), expected)
        << "query " << q;
    EXPECT_EQ(got.size(), expected.size()) << "duplicates returned";
  }
}

TEST_F(RStarTreeTest, DegenerateSegmentsActLike2dPlusInterval) {
  // Vertical segments as used by the DM store: degenerate in x, y.
  Rng rng(7);
  struct Seg {
    double x, y, lo, hi;
  };
  std::vector<Seg> segs;
  for (uint64_t i = 0; i < 800; ++i) {
    Seg s{rng.Uniform(0, 10), rng.Uniform(0, 10), 0, 0};
    s.lo = rng.Uniform(0, 5);
    s.hi = s.lo + rng.Uniform(0, 3);
    ASSERT_TRUE(
        tree_->Insert(Box::Of(s.x, s.y, s.lo, s.x, s.y, s.hi), i).ok());
    segs.push_back(s);
  }
  // Plane query at a fixed e.
  const double e = 2.0;
  const Box plane = Box::Of(2, 2, e, 8, 8, e);
  std::vector<uint64_t> got;
  ASSERT_TRUE(tree_->RangeQuery(plane, &got).ok());
  std::set<uint64_t> expected;
  for (uint64_t i = 0; i < segs.size(); ++i) {
    const Seg& s = segs[static_cast<size_t>(i)];
    if (s.x >= 2 && s.x <= 8 && s.y >= 2 && s.y <= 8 && s.lo <= e &&
        s.hi >= e) {
      expected.insert(i);
    }
  }
  EXPECT_EQ(std::set<uint64_t>(got.begin(), got.end()), expected);
}

TEST_F(RStarTreeTest, NodeExtentsNestProperly) {
  Rng rng(11);
  for (uint64_t i = 0; i < 1500; ++i) {
    ASSERT_TRUE(tree_->Insert(RandomBox(&rng, 50.0, 2.0), i).ok());
  }
  std::vector<RTreeNodeExtent> extents;
  ASSERT_TRUE(tree_->CollectNodeExtents(&extents).ok());
  ASSERT_FALSE(extents.empty());
  // The root extent is first and contains every other node box.
  const Box root_box = extents.front().box;
  int64_t leaf_entries = 0;
  for (const auto& ext : extents) {
    EXPECT_TRUE(root_box.Contains(ext.box)) << "node escapes the root MBR";
    if (ext.level == 0) leaf_entries += ext.count;
  }
  EXPECT_EQ(leaf_entries, 1500);
  // Every non-root node respects the R* minimum fill. Capacity derives
  // from the logical page size (physical minus the integrity trailer),
  // matching RStarTree::MaxEntries().
  const uint32_t max_entries = (env_->page_size() - 8) / 56 - 1;
  const uint32_t min_entries =
      std::max(2u, static_cast<uint32_t>(max_entries * 0.4));
  int undersized = 0;
  for (size_t i = 1; i < extents.size(); ++i) {
    if (extents[i].count < min_entries) ++undersized;
  }
  EXPECT_EQ(undersized, 0);
}

TEST_F(RStarTreeTest, ColdQueryIoIsLogarithmicForPointLookup) {
  Rng rng(3);
  for (uint64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(tree_->Insert(RandomBox(&rng, 100.0, 0.5), i).ok());
  }
  ASSERT_TRUE(env_->FlushAll().ok());
  env_->ResetStats();
  std::vector<uint64_t> out;
  ASSERT_TRUE(
      tree_->RangeQuery(Box::Of(50, 50, 50, 50.1, 50.1, 50.1), &out).ok());
  // A tiny query touches a small fraction of the tree.
  EXPECT_LT(env_->stats().disk_reads, 40);
}

TEST_F(RStarTreeTest, StreamingQueryCanStopEarly) {
  Rng rng(5);
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree_->Insert(RandomBox(&rng, 10.0, 1.0), i).ok());
  }
  int seen = 0;
  ASSERT_TRUE(tree_->RangeQueryEntries(Box::Of(0, 0, 0, 10, 10, 10),
                                       [&](const Box&, uint64_t) {
                                         return ++seen < 7;
                                       })
                  .ok());
  EXPECT_EQ(seen, 7);
}

TEST_F(RStarTreeTest, DuplicateBoxesAllRetained) {
  const Box b = Box::Of(1, 1, 1, 2, 2, 2);
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree_->Insert(b, i).ok());
  }
  std::vector<uint64_t> out;
  ASSERT_TRUE(tree_->RangeQuery(b, &out).ok());
  EXPECT_EQ(out.size(), 200u);
}


TEST_F(RStarTreeTest, StrOrderIsAPermutation) {
  Rng rng(23);
  std::vector<Box> boxes;
  for (int i = 0; i < 1234; ++i) boxes.push_back(RandomBox(&rng, 50, 1));
  const auto order = RStarTree::StrOrder(boxes, 8);
  ASSERT_EQ(order.size(), boxes.size());
  std::vector<bool> seen(boxes.size(), false);
  for (size_t i : order) {
    ASSERT_LT(i, boxes.size());
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST_F(RStarTreeTest, StrOrderGroupsNearbyBoxes) {
  // Consecutive leaf runs must be spatially tighter than random runs.
  Rng rng(29);
  std::vector<Box> boxes;
  for (int i = 0; i < 4000; ++i) boxes.push_back(RandomBox(&rng, 100, 0.1));
  const uint32_t cap = 16;
  const auto order = RStarTree::StrOrder(boxes, cap);
  auto run_volume = [&](const std::vector<size_t>& ord) {
    double total = 0;
    for (size_t i = 0; i < ord.size(); i += cap) {
      Box mbr;
      for (size_t j = i; j < std::min(ord.size(), i + cap); ++j) {
        mbr.ExpandToInclude(boxes[ord[j]]);
      }
      total += mbr.Volume();
    }
    return total;
  };
  std::vector<size_t> identity(boxes.size());
  for (size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  EXPECT_LT(run_volume(order), run_volume(identity) / 10.0);
}

TEST_F(RStarTreeTest, BulkLoadMatchesBruteForceQueries) {
  Rng rng(31);
  std::vector<Box> boxes;
  for (uint64_t i = 0; i < 3000; ++i) boxes.push_back(RandomBox(&rng, 80, 2));
  const auto order =
      RStarTree::StrOrder(boxes, RStarTree::LeafCapacityFor(512));
  std::vector<std::pair<Box, uint64_t>> ordered;
  for (size_t i : order) ordered.emplace_back(boxes[i], i);
  auto tree = std::move(RStarTree::BulkLoad(env_.get(), ordered)).ValueOrDie();
  EXPECT_EQ(tree.size(), 3000);

  for (int q = 0; q < 20; ++q) {
    const Box query = RandomBox(&rng, 80, 15);
    std::vector<uint64_t> got;
    ASSERT_TRUE(tree.RangeQuery(query, &got).ok());
    std::set<uint64_t> expected;
    for (uint64_t i = 0; i < boxes.size(); ++i) {
      if (boxes[static_cast<size_t>(i)].Intersects(query)) expected.insert(i);
    }
    EXPECT_EQ(std::set<uint64_t>(got.begin(), got.end()), expected);
  }
}

TEST_F(RStarTreeTest, BulkLoadHandlesEdgeSizes) {
  // Empty, single entry, exactly one leaf, one entry over a leaf.
  auto empty = std::move(RStarTree::BulkLoad(env_.get(), {})).ValueOrDie();
  std::vector<uint64_t> out;
  ASSERT_TRUE(empty.RangeQuery(Box::Of(0, 0, 0, 1, 1, 1), &out).ok());
  EXPECT_TRUE(out.empty());

  const uint32_t cap = RStarTree::LeafCapacityFor(512);
  for (uint32_t n : {1u, cap, cap + 1}) {
    std::vector<std::pair<Box, uint64_t>> ordered;
    for (uint32_t i = 0; i < n; ++i) {
      const double v = i;
      ordered.emplace_back(Box::Of(v, v, v, v + 1, v + 1, v + 1), i);
    }
    auto tree = std::move(RStarTree::BulkLoad(env_.get(), ordered)).ValueOrDie();
    out.clear();
    ASSERT_TRUE(
        tree.RangeQuery(Box::Of(-1, -1, -1, 1e9, 1e9, 1e9), &out).ok());
    EXPECT_EQ(out.size(), n);
  }
}

TEST_F(RStarTreeTest, BulkLoadedTreeHasTightLeaves) {
  // The packed tree must answer a plane query with far fewer node
  // visits than an insert-built tree over identical data.
  Rng rng(37);
  std::vector<Box> segs;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.Uniform(0, 100);
    const double y = rng.Uniform(0, 100);
    const double lo = std::pow(rng.NextDouble(), 4.0) * 50;
    segs.push_back(Box::Of(x, y, lo, x, y, lo + rng.Uniform(0, 2)));
  }
  const auto order =
      RStarTree::StrOrder(segs, RStarTree::LeafCapacityFor(512));
  std::vector<std::pair<Box, uint64_t>> ordered;
  for (size_t i : order) ordered.emplace_back(segs[i], i);
  auto packed = std::move(RStarTree::BulkLoad(env_.get(), ordered)).ValueOrDie();
  auto dynamic = std::move(RStarTree::Create(env_.get())).ValueOrDie();
  for (uint64_t i = 0; i < segs.size(); ++i) {
    ASSERT_TRUE(dynamic.Insert(segs[static_cast<size_t>(i)], i).ok());
  }
  const Box plane = Box::Of(20, 20, 1.0, 80, 80, 1.0);
  ASSERT_TRUE(env_->FlushAll().ok());
  env_->ResetStats();
  std::vector<uint64_t> out;
  ASSERT_TRUE(packed.RangeQuery(plane, &out).ok());
  const int64_t packed_io = env_->stats().disk_reads;
  ASSERT_TRUE(env_->FlushAll().ok());
  env_->ResetStats();
  std::vector<uint64_t> out2;
  ASSERT_TRUE(dynamic.RangeQuery(plane, &out2).ok());
  const int64_t dynamic_io = env_->stats().disk_reads;
  EXPECT_EQ(out.size(), out2.size());
  EXPECT_LT(packed_io, dynamic_io);
}

// ---- one index engine, two traversals ------------------------------

// RangeQuery (level waves over BufferPool::FetchRuns) against
// RangeQueryEntries (depth-first, one pinned page at a time).
class RStarTreeEngineTest : public ::testing::Test {
 protected:
  static constexpr int kEntries = 2000;

  void SetUp() override {
    env_ = dm::testing::OpenTempEnv(
        "rtree_engine", DbOptions{.page_size = 512, .pool_pages = 256});
    Rng rng(43);
    for (int i = 0; i < kEntries; ++i) {
      boxes_.push_back(RandomBox(&rng, 100.0, 4.0));
    }
  }

  RStarTree BulkLoaded() {
    const auto order =
        RStarTree::StrOrder(boxes_, RStarTree::LeafCapacityFor(512));
    std::vector<std::pair<Box, uint64_t>> ordered;
    for (size_t i : order) ordered.emplace_back(boxes_[i], i);
    return std::move(RStarTree::BulkLoad(env_.get(), ordered)).ValueOrDie();
  }

  RStarTree InsertBuilt() {
    auto tree = std::move(RStarTree::Create(env_.get())).ValueOrDie();
    for (size_t i = 0; i < boxes_.size(); ++i) {
      EXPECT_TRUE(tree.Insert(boxes_[i], i).ok());
    }
    return tree;
  }

  // Random boxes, cold: RangeQuery returns RangeQueryEntries' payload
  // sequence, and reads exactly the nodes the depth-first visitor
  // pins (each node once: its logical fetches).
  void ExpectParity(const RStarTree& tree) {
    ASSERT_GE(std::move(tree.Height()).ValueOrDie(), 3);
    // Both traversals start from the decoded root the first one
    // caches; warm it so every measured query reads the same pages.
    std::vector<uint64_t> warm;
    ASSERT_TRUE(tree.RangeQuery(Box::Of(0, 0, 0, 1, 1, 1), &warm).ok());
    Rng rng(47);
    for (int q = 0; q < 40; ++q) {
      const Box query = RandomBox(&rng, 100.0, q % 4 == 0 ? 60.0 : 15.0);
      ASSERT_TRUE(env_->FlushAll().ok());
      env_->ResetStats();
      std::vector<uint64_t> want;
      ASSERT_TRUE(tree.RangeQueryEntries(query, [&](const Box&, uint64_t p) {
                        want.push_back(p);
                        return true;
                      }).ok());
      const int64_t visited = env_->stats().logical_fetches;
      EXPECT_EQ(env_->stats().disk_reads, visited) << "query " << q;

      ASSERT_TRUE(env_->FlushAll().ok());
      env_->ResetStats();
      std::vector<uint64_t> got;
      ASSERT_TRUE(tree.RangeQuery(query, &got).ok());
      EXPECT_EQ(got, want) << "query " << q;
      EXPECT_EQ(env_->stats().disk_reads, visited) << "query " << q;
    }
  }

  std::unique_ptr<DbEnv> env_;
  std::vector<Box> boxes_;
};

TEST_F(RStarTreeEngineTest, BulkLoadedOrderParity) {
  ExpectParity(BulkLoaded());
}

TEST_F(RStarTreeEngineTest, InsertBuiltOrderParity) {
  ExpectParity(InsertBuilt());
}

// An armed ScopedRangeFilter prunes inside both traversals: they
// still return the same sequence, that sequence is exactly the
// brute-force filter over every leaf entry, and pruning never reads
// more pages. Nested guards tighten and restore the outer filter.
TEST_F(RStarTreeEngineTest, RangeFilterPrunesBothTraversalsAlike) {
  const RStarTree tree = BulkLoaded();
  ASSERT_GE(std::move(tree.Height()).ValueOrDie(), 3);
  // Monotone in the box's upper corner, hence conservative: any MBB
  // containing an admitted entry is admitted too.
  struct UpperCornerFilter final : RangeFilter {
    double threshold = 0;
    bool MayMatch(const Box& b) const override {
      return b.hi[2] + 0.5 * b.hi[0] >= threshold;
    }
  };
  UpperCornerFilter loose;
  loose.threshold = 70;
  UpperCornerFilter tight;
  tight.threshold = 110;

  Rng rng(53);
  for (int q = 0; q < 30; ++q) {
    const Box query = RandomBox(&rng, 100.0, q % 3 == 0 ? 80.0 : 30.0);
    std::vector<uint64_t> unfiltered;
    ASSERT_TRUE(env_->FlushAll().ok());
    env_->ResetStats();
    ASSERT_TRUE(tree.RangeQuery(query, &unfiltered).ok());
    const int64_t unfiltered_reads = env_->stats().disk_reads;

    for (const UpperCornerFilter* f : {&loose, &tight}) {
      std::vector<uint64_t> brute;
      for (size_t i = 0; i < boxes_.size(); ++i) {
        if (boxes_[i].Intersects(query) && f->MayMatch(boxes_[i])) {
          brute.push_back(i);
        }
      }
      std::vector<uint64_t> want;  // unfiltered DFS order, then filtered
      for (uint64_t p : unfiltered) {
        if (f->MayMatch(boxes_[p])) want.push_back(p);
      }

      std::vector<uint64_t> got;
      std::vector<uint64_t> visited;
      ASSERT_TRUE(env_->FlushAll().ok());
      env_->ResetStats();
      {
        ScopedRangeFilter outer(&loose);
        ScopedRangeFilter inner(f);
        ASSERT_TRUE(tree.RangeQuery(query, &got).ok());
        EXPECT_LE(env_->stats().disk_reads, unfiltered_reads) << "query " << q;
        ASSERT_TRUE(tree.RangeQueryEntries(query, [&](const Box&, uint64_t p) {
                          visited.push_back(p);
                          return true;
                        }).ok());
      }
      EXPECT_EQ(got, want) << "query " << q;
      EXPECT_EQ(visited, want) << "query " << q;
      std::vector<uint64_t> sorted = got;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, brute) << "query " << q;
    }
    // Guards restored: unfiltered again.
    std::vector<uint64_t> after;
    ASSERT_TRUE(tree.RangeQuery(query, &after).ok());
    EXPECT_EQ(after, unfiltered) << "query " << q;
  }
}

// A node whose stored level disagrees with its parent (valid CRC, so
// only the structure check can catch it) fails both traversals with a
// Corruption naming the page, instead of reading child page ids as
// leaf payloads.
TEST_F(RStarTreeEngineTest, CorruptNodeLevelIsRejected) {
  const RStarTree tree = BulkLoaded();
  ASSERT_GE(std::move(tree.Height()).ValueOrDie(), 3);
  PageId victim = kInvalidPage;
  ASSERT_TRUE(tree.VisitNodes([&](PageId id, uint16_t level,
                                  const std::vector<std::pair<Box, uint64_t>>&) {
                    if (level != 1) return true;
                    victim = id;
                    return false;
                  }).ok());
  ASSERT_NE(victim, kInvalidPage);
  {
    auto page = std::move(env_->pool().Fetch(victim)).ValueOrDie();
    const uint16_t leaf_level = 0;
    std::memcpy(page.data(), &leaf_level, sizeof(leaf_level));
    page.MarkDirty();
  }
  ASSERT_TRUE(env_->FlushAll().ok());  // re-stamps the trailer

  const Box everything = Box::Of(-1, -1, -1, 1e9, 1e9, 1e9);
  const std::string page_name = "node " + std::to_string(victim) + " ";
  std::vector<uint64_t> out;
  const Status batched = tree.RangeQuery(everything, &out);
  EXPECT_EQ(batched.code(), StatusCode::kCorruption) << batched.ToString();
  EXPECT_NE(batched.ToString().find(page_name), std::string::npos)
      << batched.ToString();

  ASSERT_TRUE(env_->FlushAll().ok());
  const Status visited = tree.RangeQueryEntries(
      everything, [](const Box&, uint64_t) { return true; });
  EXPECT_EQ(visited.code(), StatusCode::kCorruption) << visited.ToString();
  EXPECT_NE(visited.ToString().find(page_name), std::string::npos)
      << visited.ToString();
}

}  // namespace
}  // namespace dm
