#include "index/rtree/rstar_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <thread>

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

// A vertical segment like a DM node's: a point in (x, y) and an LOD
// interval of length up to `max_len`.
Box RandomSegment(Rng* rng, double space, double max_len) {
  const double x = rng->Uniform(0, space);
  const double y = rng->Uniform(0, space);
  const double e = rng->Uniform(0, space);
  return Box::Segment(x, y, e, e + rng->Uniform(0, max_len));
}

// Entries for `boxes` in `order`; each payload is its box's index and
// each reach a small index-derived value.
std::vector<RTreeEntry> EntriesInOrder(const std::vector<Box>& boxes,
                                       const std::vector<size_t>& order) {
  std::vector<RTreeEntry> entries;
  for (size_t i : order) {
    entries.push_back({boxes[i], i, static_cast<float>(i % 7)});
  }
  return entries;
}

class RStarTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = dm::testing::OpenTempEnv("rtree", DbOptions{.page_size = 512,
                                                       .pool_pages = 256});
  }

  // Bulk-loads segments `boxes` in StrOrder; each entry's payload is
  // its index.
  RStarTree Load(const std::vector<Box>& boxes) {
    const auto order =
        RStarTree::StrOrder(boxes, RStarTree::LeafCapacityFor(512));
    return std::move(
               RStarTree::BulkLoad(env_.get(), EntriesInOrder(boxes, order)))
        .ValueOrDie();
  }

  std::unique_ptr<DbEnv> env_;
};

TEST_F(RStarTreeTest, RejectsNonSegmentsAndBadReach) {
  // A leaf stores each entry as a segment, so any other box would be
  // written as a different one (and an empty box drops out of every
  // node MBR, so its entry could never be found); a reach the decoders
  // reject would make the tree unreadable. BulkLoad refuses either
  // wherever it sits in the input.
  std::vector<RTreeEntry> good;
  for (uint64_t i = 0; i < 20; ++i) {
    const double v = static_cast<double>(i);
    good.push_back({Box::Segment(v, v, v, v + 1), i, 0.5f});
  }
  ASSERT_TRUE(RStarTree::BulkLoad(env_.get(), good).ok());
  const std::vector<Box> bad_boxes = {Box{}, Box::Of(1, 1, 1, 2, 2, 2),
                                      Box::Of(1, 1, 1, 1, 2, 2),
                                      Box::Segment(1, 1, 2, 1)};
  for (const Box& bad : bad_boxes) {
    std::vector<RTreeEntry> ordered = good;
    ordered[13].box = bad;
    const auto tree = RStarTree::BulkLoad(env_.get(), ordered);
    EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument)
        << bad.ToString() << ": " << tree.status().ToString();
  }
  for (float bad : {std::nanf(""), -1.0f,
                    std::numeric_limits<float>::infinity()}) {
    std::vector<RTreeEntry> ordered = good;
    ordered[13].reach = bad;
    const auto tree = RStarTree::BulkLoad(env_.get(), ordered);
    EXPECT_EQ(tree.status().code(), StatusCode::kInvalidArgument)
        << bad << ": " << tree.status().ToString();
  }
}

TEST_F(RStarTreeTest, DegenerateSegmentsActLike2dPlusInterval) {
  // Vertical segments as used by the DM store: degenerate in x, y.
  Rng rng(7);
  struct Seg {
    double x, y, lo, hi;
  };
  std::vector<Seg> segs;
  std::vector<Box> boxes;
  for (uint64_t i = 0; i < 800; ++i) {
    Seg s{rng.Uniform(0, 10), rng.Uniform(0, 10), 0, 0};
    s.lo = rng.Uniform(0, 5);
    s.hi = s.lo + rng.Uniform(0, 3);
    boxes.push_back(Box::Of(s.x, s.y, s.lo, s.x, s.y, s.hi));
    segs.push_back(s);
  }
  const RStarTree tree = Load(boxes);
  // Plane query at a fixed e.
  const double e = 2.0;
  const Box plane = Box::Of(2, 2, e, 8, 8, e);
  std::vector<uint64_t> got;
  ASSERT_TRUE(tree.RangeQuery(plane, &got).ok());
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
  std::vector<Box> boxes;
  for (int i = 0; i < 1500; ++i) {
    boxes.push_back(RandomSegment(&rng, 50.0, 2.0));
  }
  const RStarTree tree = Load(boxes);
  std::vector<RTreeNodeExtent> extents;
  ASSERT_TRUE(tree.VisitNodes([&](PageId, uint16_t level,
                                  const std::vector<RTreeEntry>& entries) {
                    RTreeNodeExtent ext;
                    ext.level = level;
                    ext.count = static_cast<uint16_t>(entries.size());
                    for (const auto& e : entries) {
                      ext.box.ExpandToInclude(e.box);
                    }
                    extents.push_back(ext);
                    return true;
                  })
                  .ok());
  ASSERT_FALSE(extents.empty());
  // The root extent is first and contains every other node box.
  const Box root_box = extents.front().box;
  int64_t leaf_entries = 0;
  for (const auto& ext : extents) {
    EXPECT_TRUE(root_box.Contains(ext.box)) << "node escapes the root MBR";
    if (ext.level == 0) leaf_entries += ext.count;
  }
  EXPECT_EQ(leaf_entries, 1500);
  // Packed: every node is full except at most one per level (the last
  // one BulkLoad writes there). Capacity derives from the logical page
  // size (physical minus the integrity trailer) and the level: leaf
  // entries are smaller than internal ones.
  const uint32_t leaf_cap = RStarTree::LeafCapacityFor(env_->page_size());
  const uint32_t internal_cap =
      RStarTree::InternalCapacityFor(env_->page_size());
  EXPECT_GT(leaf_cap, internal_cap);
  std::map<uint16_t, int> partial;  // level -> nodes below capacity
  for (const auto& ext : extents) {
    const uint32_t cap = ext.level == 0 ? leaf_cap : internal_cap;
    EXPECT_LE(ext.count, cap);
    if (ext.count < cap) ++partial[ext.level];
  }
  for (const auto& [level, n] : partial) {
    EXPECT_LE(n, 1) << "level " << level;
  }
}

TEST_F(RStarTreeTest, ColdQueryIoIsLogarithmicForPointLookup) {
  Rng rng(3);
  std::vector<Box> boxes;
  for (int i = 0; i < 3000; ++i) {
    boxes.push_back(RandomSegment(&rng, 100.0, 0.5));
  }
  const RStarTree tree = Load(boxes);
  ASSERT_TRUE(env_->FlushAll().ok());
  env_->ResetStats();
  std::vector<uint64_t> out;
  ASSERT_TRUE(
      tree.RangeQuery(Box::Of(50, 50, 50, 50.1, 50.1, 50.1), &out).ok());
  // A tiny query touches a small fraction of the tree.
  EXPECT_LT(env_->stats().disk_reads, 40);
}

TEST_F(RStarTreeTest, VisitNodesCanStopEarly) {
  Rng rng(5);
  std::vector<Box> boxes;
  for (int i = 0; i < 500; ++i) boxes.push_back(RandomSegment(&rng, 10.0, 1.0));
  const RStarTree tree = Load(boxes);
  int seen = 0;
  ASSERT_TRUE(tree.VisitNodes([&](PageId, uint16_t,
                                  const std::vector<RTreeEntry>&) {
                    return ++seen < 3;
                  })
                  .ok());
  EXPECT_EQ(seen, 3);
}

TEST_F(RStarTreeTest, DuplicateBoxesAllRetained) {
  const Box b = Box::Segment(1, 1, 1, 2);
  const RStarTree tree = Load(std::vector<Box>(200, b));
  EXPECT_GT(tree.Height(), 1);
  std::vector<uint64_t> out;
  ASSERT_TRUE(tree.RangeQuery(b, &out).ok());
  std::sort(out.begin(), out.end());
  std::vector<uint64_t> all(200);
  std::iota(all.begin(), all.end(), uint64_t{0});
  EXPECT_EQ(out, all);
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
  for (uint64_t i = 0; i < 3000; ++i) {
    boxes.push_back(RandomSegment(&rng, 80, 2));
  }
  const RStarTree tree = Load(boxes);
  EXPECT_EQ(tree.size(), 3000);
  EXPECT_GT(tree.Height(), 1);

  for (int q = 0; q < 20; ++q) {
    const Box query = RandomBox(&rng, 80, 15);
    std::vector<uint64_t> got;
    ASSERT_TRUE(tree.RangeQuery(query, &got).ok());
    std::set<uint64_t> expected;
    for (uint64_t i = 0; i < boxes.size(); ++i) {
      if (boxes[static_cast<size_t>(i)].Intersects(query)) expected.insert(i);
    }
    EXPECT_EQ(std::set<uint64_t>(got.begin(), got.end()), expected)
        << "query " << q;
    EXPECT_EQ(got.size(), expected.size()) << "duplicates returned";
  }
}

TEST_F(RStarTreeTest, BulkLoadHandlesEdgeSizes) {
  // Empty, single entry, exactly one leaf, one entry over a leaf.
  auto empty = std::move(RStarTree::BulkLoad(env_.get(), {})).ValueOrDie();
  std::vector<uint64_t> out;
  ASSERT_TRUE(empty.RangeQuery(Box::Of(0, 0, 0, 1, 1, 1), &out).ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(empty.Height(), 1);  // one empty leaf

  const uint32_t cap = RStarTree::LeafCapacityFor(512);
  for (uint32_t n : {1u, cap, cap + 1}) {
    std::vector<RTreeEntry> ordered;
    for (uint32_t i = 0; i < n; ++i) {
      const double v = i;
      ordered.push_back({Box::Segment(v, v, v, v + 1), i, 0.0f});
    }
    auto tree = std::move(RStarTree::BulkLoad(env_.get(), ordered)).ValueOrDie();
    out.clear();
    ASSERT_TRUE(
        tree.RangeQuery(Box::Of(-1, -1, -1, 1e9, 1e9, 1e9), &out).ok());
    EXPECT_EQ(out.size(), n);
  }
}

// The (slab, run) cell of every box under leaf-aligned STR, from the
// rule alone: rank the boxes by x center and end slab i at leaf
// floor((i+1)·L/slabs); rank each slab by y center and end its run j
// at leaf floor((j+1)·l/runs) of the slab. Slab and run counts are
// the cube-root and square-root rules.
std::vector<int> StrCells(const std::vector<Box>& boxes, size_t cap) {
  const size_t n = boxes.size();
  const size_t leaves = (n + cap - 1) / cap;
  const auto slabs = static_cast<size_t>(
      std::ceil(std::cbrt(static_cast<double>(leaves))));
  auto by_center = [&](size_t d) {
    return [&boxes, d](size_t a, size_t b) {
      const double ca = boxes[a].lo[d] + boxes[a].hi[d];
      const double cb = boxes[b].lo[d] + boxes[b].hi[d];
      return ca != cb ? ca < cb : a < b;
    };
  };
  std::vector<size_t> by_x(n);
  std::iota(by_x.begin(), by_x.end(), size_t{0});
  std::sort(by_x.begin(), by_x.end(), by_center(0));
  std::vector<int> cell(n, -1);
  int next_cell = 0;
  for (size_t i = 0; i < slabs; ++i) {
    const size_t l0 = i * leaves / slabs;
    const size_t l1 = (i + 1) * leaves / slabs;
    std::vector<size_t> slab(by_x.begin() + std::min(n, l0 * cap),
                             by_x.begin() + std::min(n, l1 * cap));
    std::sort(slab.begin(), slab.end(), by_center(1));
    const auto runs = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(l1 - l0))));
    for (size_t j = 0; j < runs; ++j) {
      const size_t r0 = std::min(n, (l0 + j * (l1 - l0) / runs) * cap);
      const size_t r1 = std::min(n, (l0 + (j + 1) * (l1 - l0) / runs) * cap);
      for (size_t k = r0; k < r1; ++k) {
        cell[slab[k - std::min(n, l0 * cap)]] = next_cell;
      }
      ++next_cell;
    }
  }
  return cell;
}

TEST_F(RStarTreeTest, StrOrderLeavesNeverStraddleCells) {
  // Vertical segments like a DM store's: a point in (x, y) and an
  // LOD interval whose length grows with its bottom, so e-center and
  // e_high orders disagree. Every BulkLoad leaf must hold the entries
  // of one (slab, run) cell, and the leaves of a cell must ascend by
  // e_high: no leaf joins the top of one cell's LOD order to the
  // bottom of the next.
  // A DM store's leaf capacity: 92 entries on 4 KiB pages (the
  // logical page, without its integrity trailer, as BulkLoad packs).
  auto env = dm::testing::OpenTempEnv(
      "rtree_str_cells", DbOptions{.page_size = 4096, .pool_pages = 256});
  const uint32_t cap = RStarTree::LeafCapacityFor(env->page_size());
  ASSERT_EQ(cap, 92u);
  ASSERT_EQ(RStarTree::InternalCapacityFor(env->page_size()), 72u);
  for (size_t n : {size_t{1000}, size_t{10007}}) {
    Rng rng(41 + n);
    std::vector<Box> segs;
    for (size_t i = 0; i < n; ++i) {
      const double x = rng.Uniform(0, 100);
      const double y = rng.Uniform(0, 100);
      const double lo = std::pow(rng.NextDouble(), 3.0) * 50;
      segs.push_back(Box::Of(x, y, lo, x, y, lo + rng.Uniform(0, lo + 1)));
    }
    const std::vector<int> cell = StrCells(segs, cap);
    const auto order = RStarTree::StrOrder(segs, cap);
    auto tree = std::move(RStarTree::BulkLoad(env.get(),
                                              EntriesInOrder(segs, order)))
                    .ValueOrDie();

    // Leaf page -> its entries' cell and e_high range; BulkLoad
    // allocates leaves in leaf order, so page order is leaf order.
    struct Leaf {
      int cell;
      double min_top;
      double max_top;
    };
    std::map<PageId, Leaf> leaves;
    ASSERT_TRUE(tree.VisitNodes([&](PageId page, uint16_t level,
                                    const std::vector<RTreeEntry>& entries) {
                      if (level != 0) return true;
                      Leaf leaf{cell[entries.front().payload],
                                entries.front().box.hi[2],
                                entries.front().box.hi[2]};
                      for (const auto& [box, payload, reach] : entries) {
                        EXPECT_EQ(cell[payload], leaf.cell)
                            << "n=" << n << " leaf page " << page
                            << " straddles two cells";
                        leaf.min_top = std::min(leaf.min_top, box.hi[2]);
                        leaf.max_top = std::max(leaf.max_top, box.hi[2]);
                      }
                      leaves.emplace(page, leaf);
                      return true;
                    })
                    .ok());
    ASSERT_EQ(leaves.size(), (n + cap - 1) / cap);
    const Leaf* prev = nullptr;
    for (const auto& [page, leaf] : leaves) {
      if (prev != nullptr && prev->cell == leaf.cell) {
        EXPECT_LE(prev->max_top, leaf.min_top)
            << "n=" << n << " leaf page " << page
            << " is out of e_high order within its cell";
      }
      prev = &leaf;
    }
  }
}

// ---- RangeQuery against an in-memory oracle ------------------------

// The whole tree read once through VisitNodes, held in memory: the
// reference RangeQuery is checked against.
class TreeOracle {
 public:
  explicit TreeOracle(const RStarTree& tree) {
    EXPECT_TRUE(tree.VisitNodes([&](PageId id, uint16_t level,
                                    const std::vector<RTreeEntry>& entries) {
                      nodes_.emplace(id, Node{level, entries});
                      return true;
                    }).ok());
  }

  struct Answer {
    // Every admitted leaf entry by brute force, in leaf page order and
    // entry order within a leaf: RangeQuery's output order.
    std::vector<uint64_t> payloads;
    // Disk reads of a cold query: one per non-root node whose parent
    // entry admits the query. Node MBBs nest and the filters are
    // conservative, so those are exactly the nodes the query reaches;
    // the root is decoded already.
    int64_t reads = 0;
  };

  // The answer for `query` with `filter` armed (none when null).
  Answer Query(const Box& query, const RangeFilter* filter = nullptr) const {
    Answer a;
    for (const auto& [id, node] : nodes_) {  // ascending page ids
      for (const RTreeEntry& e : node.entries) {
        if (!e.box.Intersects(query) ||
            (filter != nullptr && !filter->MayMatch(e.box, e.reach))) {
          continue;
        }
        if (node.level == 0) {
          a.payloads.push_back(e.payload);
        } else {
          ++a.reads;
        }
      }
    }
    return a;
  }

  // Leaf pages a query with no filter reads, ascending.
  std::vector<PageId> LeavesHit(const Box& query) const {
    std::vector<PageId> hit;
    for (const auto& [id, node] : nodes_) {
      if (node.level != 1) continue;
      for (const RTreeEntry& e : node.entries) {
        if (e.box.Intersects(query)) hit.push_back(static_cast<PageId>(e.payload));
      }
    }
    std::sort(hit.begin(), hit.end());
    return hit;
  }

 private:
  struct Node {
    uint16_t level;
    std::vector<RTreeEntry> entries;
  };
  std::map<PageId, Node> nodes_;
};

class RStarTreeEngineTest : public ::testing::Test {
 protected:
  static constexpr int kEntries = 2000;

  void SetUp() override {
    env_ = dm::testing::OpenTempEnv(
        "rtree_engine", DbOptions{.page_size = 512, .pool_pages = 256});
    Rng rng(43);
    for (int i = 0; i < kEntries; ++i) {
      boxes_.push_back(RandomSegment(&rng, 100.0, 4.0));
    }
  }

  // Bulk-loads boxes_ into `env` (default: env_), in StrOrder or in
  // identity order; each entry's payload is its index.
  RStarTree BulkLoaded(DbEnv* env = nullptr, bool str_order = true) {
    std::vector<size_t> order(boxes_.size());
    std::iota(order.begin(), order.end(), size_t{0});
    if (str_order) {
      order = RStarTree::StrOrder(boxes_, RStarTree::LeafCapacityFor(512));
    }
    return std::move(RStarTree::BulkLoad(env != nullptr ? env : env_.get(),
                                         EntriesInOrder(boxes_, order)))
        .ValueOrDie();
  }

  // Random boxes, cold: RangeQuery returns the oracle's payloads in
  // its order, and reads (and fetches) exactly the oracle's nodes,
  // each once. Returns how many queries read a set of leaf pages with
  // a gap in its page ids, so that the leaf wave splits into more than
  // one run.
  int ExpectOracle(const RStarTree& tree) {
    EXPECT_GE(tree.Height(), 3);
    const TreeOracle oracle(tree);
    int gapped = 0;
    Rng rng(47);
    for (int q = 0; q < 40; ++q) {
      const Box query = RandomBox(&rng, 100.0, q % 4 == 0 ? 60.0 : 15.0);
      const std::vector<PageId> hit = oracle.LeavesHit(query);
      if (!hit.empty() &&
          static_cast<size_t>(hit.back() - hit.front()) + 1 != hit.size()) {
        ++gapped;
      }
      const TreeOracle::Answer want = oracle.Query(query);

      EXPECT_TRUE(env_->FlushAll().ok());
      env_->ResetStats();
      std::vector<uint64_t> got;
      EXPECT_TRUE(tree.RangeQuery(query, &got).ok());
      EXPECT_EQ(got, want.payloads) << "query " << q;
      EXPECT_EQ(env_->stats().disk_reads, want.reads) << "query " << q;
      EXPECT_EQ(env_->stats().logical_fetches, want.reads) << "query " << q;
    }
    return gapped;
  }

  // Overwrites the page of the first node at `level` (depth-first) with
  // `mutate`, then flushes so the page checksum is valid again: only
  // the structure checks can catch the damage. Returns the page id.
  PageId DamageNode(const RStarTree& tree, uint16_t level,
                    const std::function<void(uint8_t*)>& mutate) {
    PageId victim = kInvalidPage;
    EXPECT_TRUE(tree.VisitNodes([&](PageId id, uint16_t node_level,
                                    const std::vector<RTreeEntry>&) {
                      if (node_level != level) return true;
                      victim = id;
                      return false;
                    }).ok());
    EXPECT_NE(victim, kInvalidPage);
    {
      auto page = std::move(env_->pool().Fetch(victim)).ValueOrDie();
      mutate(page.data());
      page.MarkDirty();
    }
    EXPECT_TRUE(env_->FlushAll().ok());  // re-stamps the trailer
    return victim;
  }

  // A RangeQuery over the whole tree fails with a Corruption that
  // names `victim`.
  static void ExpectRangeQueryRejects(const RStarTree& tree, PageId victim) {
    std::vector<uint64_t> out;
    const Status st = tree.RangeQuery(Box::Of(-1, -1, -1, 1e9, 1e9, 1e9), &out);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_NE(st.ToString().find("node " + std::to_string(victim) + " "),
              std::string::npos)
        << st.ToString();
  }

  std::unique_ptr<DbEnv> env_;
  std::vector<Box> boxes_;
};

TEST_F(RStarTreeEngineTest, BulkLoadedOrderMatchesOracle) {
  ExpectOracle(BulkLoaded());
}

// Bulk-loaded in identity order, which is not sorted: every leaf MBR
// spans most of the space and sibling MBRs overlap heavily, so the
// waves meet page ids that are not adjacent and split into several
// runs; the oracle must hold there too.
TEST_F(RStarTreeEngineTest, UnsortedBulkLoadOrderMatchesOracle) {
  EXPECT_GT(ExpectOracle(BulkLoaded(nullptr, /*str_order=*/false)), 0);
}

// An armed ScopedRangeFilter prunes inside the traversal: the result
// is exactly the brute-force filter over every leaf entry (with its
// own reach), the reads are exactly the oracle's, and pruning never
// reads more pages. Nested guards tighten and restore the outer
// filter.
TEST_F(RStarTreeEngineTest, RangeFilterPrunesLikeBruteForce) {
  const RStarTree tree = BulkLoaded();
  ASSERT_GE(tree.Height(), 3);
  const TreeOracle oracle(tree);
  // Monotone in the box's upper corner and in the reach, hence
  // conservative: an internal entry (reach +inf) whose MBB contains an
  // admitted leaf entry is admitted too.
  struct UpperCornerFilter final : RangeFilter {
    double threshold = 0;
    bool MayMatch(const Box& b, double reach) const override {
      return b.hi[2] + 0.5 * b.hi[0] + std::min(reach, 6.0) >= threshold;
    }
  };
  UpperCornerFilter loose;
  loose.threshold = 70;
  UpperCornerFilter tight;
  tight.threshold = 110;

  Rng rng(53);
  for (int q = 0; q < 30; ++q) {
    const Box query = RandomBox(&rng, 100.0, q % 3 == 0 ? 80.0 : 30.0);
    const TreeOracle::Answer unfiltered = oracle.Query(query);
    for (const UpperCornerFilter* f : {&loose, &tight}) {
      // `tight` admits a subset of what `loose` does, so the nested
      // pair filters as `f` alone.
      const TreeOracle::Answer want = oracle.Query(query, f);
      std::vector<uint64_t> got;
      ASSERT_TRUE(env_->FlushAll().ok());
      env_->ResetStats();
      {
        ScopedRangeFilter outer(&loose);
        ScopedRangeFilter inner(f);
        ASSERT_TRUE(tree.RangeQuery(query, &got).ok());
      }
      EXPECT_EQ(got, want.payloads) << "query " << q;
      EXPECT_EQ(env_->stats().disk_reads, want.reads) << "query " << q;
      EXPECT_LE(want.reads, unfiltered.reads) << "query " << q;
    }
    // Guards restored: unfiltered again.
    std::vector<uint64_t> after;
    ASSERT_TRUE(tree.RangeQuery(query, &after).ok());
    EXPECT_EQ(after, unfiltered.payloads) << "query " << q;
  }
}

// A node whose stored level disagrees with its parent (valid CRC, so
// only the structure check can catch it) fails the query with a
// Corruption naming the page, instead of reading child page ids as
// leaf payloads.
TEST_F(RStarTreeEngineTest, CorruptNodeLevelIsRejected) {
  const RStarTree tree = BulkLoaded();
  ASSERT_GE(tree.Height(), 3);
  const PageId victim = DamageNode(tree, 1, [](uint8_t* data) {
    const uint16_t leaf_level = 0;
    std::memcpy(data, &leaf_level, sizeof(leaf_level));
  });
  ExpectRangeQueryRejects(tree, victim);
}

// BulkLoad never writes more than its level's capacity
// (InternalCapacityFor or LeafCapacityFor the page size) to a node, so
// a count one above it is corrupt even where the entries would still
// fit in the page. Checked on an internal node and on a leaf.
TEST_F(RStarTreeEngineTest, CorruptEntryCountIsRejected) {
  for (uint16_t level : {uint16_t{1}, uint16_t{0}}) {
    SCOPED_TRACE("level " + std::to_string(level));
    const uint32_t page = env_->page_size();
    const uint32_t cap = level == 0 ? RStarTree::LeafCapacityFor(page)
                                    : RStarTree::InternalCapacityFor(page);
    const auto over = static_cast<uint16_t>(cap + 1);
    const RStarTree tree = BulkLoaded();
    ASSERT_GE(tree.Height(), 3);
    const PageId victim = DamageNode(tree, level, [over](uint8_t* data) {
      std::memcpy(data + 2, &over, sizeof(over));  // the count field
    });
    ExpectRangeQueryRejects(tree, victim);
  }
}

// A leaf entry's parent reach (the f32 at entry offset 40, after the
// segment and payload) bounds the surface-bounded fetch; a NaN,
// negative or infinite one is corrupt, and every decoder (RangeQuery
// and the structural walk) rejects it naming the page.
TEST_F(RStarTreeEngineTest, CorruptLeafReachIsRejected) {
  for (float bad : {std::nanf(""), -1.0f,
                    std::numeric_limits<float>::infinity()}) {
    SCOPED_TRACE("reach " + std::to_string(bad));
    const RStarTree tree = BulkLoaded();
    ASSERT_GE(tree.Height(), 3);
    const PageId victim = DamageNode(tree, 0, [bad](uint8_t* data) {
      std::memcpy(data + 8 + 40, &bad, sizeof(bad));  // entry 0's reach
    });
    ExpectRangeQueryRejects(tree, victim);
    const Status walked = tree.VisitNodes(
        [](PageId, uint16_t, const std::vector<RTreeEntry>&) { return true; });
    EXPECT_EQ(walked.code(), StatusCode::kCorruption) << walked.ToString();
    EXPECT_NE(walked.ToString().find("node " + std::to_string(victim) + " "),
              std::string::npos)
        << walked.ToString();
  }
}

// Open decodes the root once and keeps it: a handle answers from that
// root even after the root page changes underneath it, while a new
// Open of a damaged root fails with a Corruption naming the page.
TEST_F(RStarTreeEngineTest, OpenDecodesTheRootOnce) {
  const RStarTree built = BulkLoaded();
  auto opened_or = RStarTree::Open(env_.get(), built.root(), built.size());
  ASSERT_TRUE(opened_or.ok()) << opened_or.status().ToString();
  const RStarTree& opened = opened_or.value();
  EXPECT_EQ(opened.Height(), built.Height());
  EXPECT_EQ(opened.size(), built.size());
  const Box everything = Box::Of(-1, -1, -1, 1e9, 1e9, 1e9);
  std::vector<uint64_t> want;
  ASSERT_TRUE(built.RangeQuery(everything, &want).ok());
  EXPECT_EQ(want.size(), static_cast<size_t>(kEntries));

  const PageId root = DamageNode(built, static_cast<uint16_t>(built.Height() - 1),
                                 [](uint8_t* data) {
                                   const uint16_t over = 0xFFFF;
                                   std::memcpy(data + 2, &over, sizeof(over));
                                 });
  ASSERT_EQ(root, built.root());
  std::vector<uint64_t> got;
  ASSERT_TRUE(opened.RangeQuery(everything, &got).ok());
  EXPECT_EQ(got, want);
  const auto reopened = RStarTree::Open(env_.get(), root, built.size());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
      << reopened.status().ToString();
  EXPECT_NE(reopened.status().ToString().find("node " + std::to_string(root) +
                                              " "),
            std::string::npos)
      << reopened.status().ToString();
}

// The tree and its decoded root never change after Open, so a
// traversal mutates no shared state. Eight threads query one freshly
// opened handle over a cold pool at once, and each must answer every
// query exactly as the oracle does.
TEST_F(RStarTreeEngineTest, ConcurrentQueriesOnOneHandleAgree) {
  // A pool that holds the whole tree, with room for every thread's
  // largest pinned run at once.
  auto env = dm::testing::OpenTempEnv(
      "rtree_concurrent", DbOptions{.page_size = 512, .pool_pages = 1024});
  const RStarTree built = BulkLoaded(env.get());
  ASSERT_GE(built.Height(), 3);
  const TreeOracle oracle(built);
  Rng rng(59);
  std::vector<Box> queries;
  std::vector<std::vector<uint64_t>> want;
  for (int q = 0; q < 24; ++q) {
    queries.push_back(RandomBox(&rng, 100.0, q % 4 == 0 ? 60.0 : 15.0));
    want.push_back(oracle.Query(queries.back()).payloads);
  }

  ASSERT_TRUE(env->FlushAll().ok());
  auto opened = RStarTree::Open(env.get(), built.root(), built.size());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const RStarTree& handle = opened.value();
  constexpr int kThreads = 8;
  std::vector<std::vector<std::vector<uint64_t>>> got(
      kThreads, std::vector<std::vector<uint64_t>>(queries.size()));
  std::vector<Status> status(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Staggered starts, so threads are not in lock step.
      for (size_t i = 0; i < queries.size(); ++i) {
        const size_t q = (i + static_cast<size_t>(t)) % queries.size();
        Status st = handle.RangeQuery(queries[q], &got[t][q]);
        if (!st.ok()) {
          status[t] = std::move(st);
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(status[t].ok()) << "thread " << t << ": "
                                << status[t].ToString();
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(got[t][q], want[q]) << "thread " << t << " query " << q;
    }
  }
}

}  // namespace
}  // namespace dm
