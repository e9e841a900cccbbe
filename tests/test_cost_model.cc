#include "dm/cost_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dm/dm_query.h"
#include "dm/dm_store.h"
#include "server/shard_router.h"
#include "server/shard_set.h"
#include "test_util.h"

namespace dm {
namespace {

std::vector<RTreeNodeExtent> UniformNodes(int n, double node_side,
                                          double space) {
  Rng rng(17);
  std::vector<RTreeNodeExtent> nodes;
  for (int i = 0; i < n; ++i) {
    RTreeNodeExtent ext;
    const double x = rng.Uniform(0, space - node_side);
    const double y = rng.Uniform(0, space - node_side);
    const double e = rng.Uniform(0, space - node_side);
    ext.box = Box::Of(x, y, e, x + node_side, y + node_side,
                      e + node_side);
    nodes.push_back(ext);
  }
  return nodes;
}

/// Optimizer inputs with formula (1) alone: the nodes under the plain
/// linear normalization, no segment sample.
CostModelInputs PageTermInputs(std::vector<RTreeNodeExtent> nodes,
                               const Box& space) {
  CostCatalog::Stats stats;
  stats.nodes = std::move(nodes);
  stats.data_space = space;
  return {std::make_shared<const CostCatalog>(std::move(stats))};
}

TEST(CostModelTest, BiggerQueriesCostMore) {
  const Box space = Box::Of(0, 0, 0, 100, 100, 100);
  const auto nodes = UniformNodes(200, 10, 100);
  const double small = EstimateDiskAccesses(
      nodes, space, Box::Of(0, 0, 0, 10, 10, 10));
  const double big = EstimateDiskAccesses(
      nodes, space, Box::Of(0, 0, 0, 50, 50, 50));
  EXPECT_GT(big, small);
}

TEST(CostModelTest, ZeroQueryStillPaysNodeOverlap) {
  // A point query costs sum_i w_i*h_i*d_i > 0: the probability of
  // hitting each node.
  const Box space = Box::Of(0, 0, 0, 100, 100, 100);
  const auto nodes = UniformNodes(100, 10, 100);
  const double da = EstimateDiskAccesses(
      nodes, space, Box::Of(5, 5, 5, 5, 5, 5));
  EXPECT_GT(da, 0.0);
  EXPECT_NEAR(da, 100 * 0.1 * 0.1 * 0.1, 0.2);
}

TEST(CostModelTest, SliceBoxCoversTheRightSlice) {
  const Rect roi = Rect::Of(0, 0, 10, 40);
  const BaseCube cube{0.25, 0.5, 1.0, 2.0};
  const Box b = SliceBox(roi, /*gradient_along_y=*/true, cube);
  EXPECT_EQ(b.lo[1], 10.0);
  EXPECT_EQ(b.hi[1], 20.0);
  EXPECT_EQ(b.lo[0], 0.0);
  EXPECT_EQ(b.hi[0], 10.0);
  EXPECT_EQ(b.lo[2], 1.0);
  EXPECT_EQ(b.hi[2], 2.0);
  const Box bx = SliceBox(roi, /*gradient_along_y=*/false, cube);
  EXPECT_EQ(bx.lo[0], 2.5);
  EXPECT_EQ(bx.hi[0], 5.0);
}

TEST(CostModelTest, FlatPlaneNeverSplits) {
  const Box space = Box::Of(0, 0, 0, 100, 100, 100);
  const auto cubes = OptimizeMultiBase(
      PageTermInputs(UniformNodes(300, 8, 100), space),
      Rect::Of(0, 0, 50, 50), true,
      [](double) { return 5.0; }, 64);
  ASSERT_EQ(cubes.size(), 1u);
  EXPECT_EQ(cubes[0].t0, 0.0);
  EXPECT_EQ(cubes[0].t1, 1.0);
}

TEST(CostModelTest, SteepPlaneSplitsIntoStaircase) {
  const Box space = Box::Of(0, 0, 0, 100, 100, 100);
  const auto cubes = OptimizeMultiBase(
      PageTermInputs(UniformNodes(400, 4, 100), space),
      Rect::Of(0, 0, 80, 80), true,
      [](double t) { return 1.0 + 80.0 * t; }, 64);
  EXPECT_GT(cubes.size(), 1u);
  // Slices tile [0, 1] in order and e ranges chain continuously.
  double t = 0.0;
  for (const BaseCube& c : cubes) {
    EXPECT_DOUBLE_EQ(c.t0, t);
    t = c.t1;
    EXPECT_DOUBLE_EQ(c.e_lo, 1.0 + 80.0 * c.t0);
    EXPECT_DOUBLE_EQ(c.e_hi, 1.0 + 80.0 * c.t1);
  }
  EXPECT_DOUBLE_EQ(t, 1.0);
  // And the staircase total volume is below the single cube's volume.
  double staircase = 0.0;
  for (const BaseCube& c : cubes) {
    staircase += SliceBox(Rect::Of(0, 0, 80, 80), true, c).Volume();
  }
  EXPECT_LT(staircase,
            Box::FromRect(Rect::Of(0, 0, 80, 80), 1.0, 81.0).Volume());
}

TEST(CostModelTest, MaxCubesBudgetIsRespected) {
  const Box space = Box::Of(0, 0, 0, 100, 100, 100);
  const auto cubes = OptimizeMultiBase(
      PageTermInputs(UniformNodes(400, 2, 100), space),
      Rect::Of(0, 0, 90, 90), true,
      [](double t) { return 90.0 * t + 0.1; }, 4);
  EXPECT_LE(cubes.size(), 4u);
}

TEST(CostModelTest, SplitEstimateActuallyImproves) {
  // The paper's condition (7): when the optimizer splits, the summed
  // estimate of the halves must be below the whole.
  const Box space = Box::Of(0, 0, 0, 100, 100, 100);
  const auto nodes = UniformNodes(400, 4, 100);
  const Rect roi = Rect::Of(0, 0, 80, 80);
  auto e_at = [](double t) { return 1.0 + 60.0 * t; };
  const double whole = EstimateDiskAccesses(
      nodes, space, SliceBox(roi, true, BaseCube{0, 1, e_at(0), e_at(1)}));
  const double left = EstimateDiskAccesses(
      nodes, space,
      SliceBox(roi, true, BaseCube{0, 0.5, e_at(0), e_at(0.5)}));
  const double right = EstimateDiskAccesses(
      nodes, space,
      SliceBox(roi, true, BaseCube{0.5, 1, e_at(0.5), e_at(1)}));
  EXPECT_LT(left + right, whole);
}


TEST(EAxisMapTest, IdentityByDefault) {
  EAxisMap map;
  EXPECT_TRUE(map.identity());
  EXPECT_EQ(map.Map(3.5), 3.5);
  const Box b = Box::Of(0, 0, 1, 2, 2, 9);
  EXPECT_EQ(map.MapBox(b).hi[2], 9.0);
}

TEST(EAxisMapTest, QuantileMapIsMonotoneAndNormalized) {
  // Leaves concentrated near e = 0 with a long tail, like QEM errors.
  std::vector<RTreeNodeExtent> nodes;
  for (int i = 0; i < 200; ++i) {
    RTreeNodeExtent ext;
    const double e = 0.01 * i * i;  // skewed upward
    ext.box = Box::Of(0, 0, e, 1, 1, e + 0.1);
    ext.level = 0;
    nodes.push_back(ext);
  }
  const EAxisMap map = EAxisMap::FromNodeExtents(nodes);
  EXPECT_FALSE(map.identity());
  double prev = -1;
  for (double e = 0; e < 500; e += 7) {
    const double m = map.Map(e);
    EXPECT_GE(m, prev);
    EXPECT_GE(m, 0.0);
    EXPECT_LE(m, 1.0);
    prev = m;
  }
  // The skew is uniformized: the bottom 1% of the raw range (e <= 4 of
  // 0..400) holds ~10% of the measure, and the halfway rank sits at
  // e = 100 (i = 100 of 200).
  EXPECT_GT(map.Map(4.0), 0.05);
  EXPECT_NEAR(map.Map(100.0), 0.5, 0.05);
}

TEST(EAxisMapTest, IgnoresInternalNodes) {
  std::vector<RTreeNodeExtent> nodes;
  RTreeNodeExtent internal;
  internal.box = Box::Of(0, 0, 0, 1, 1, 100);
  internal.level = 3;
  nodes.push_back(internal);
  const EAxisMap map = EAxisMap::FromNodeExtents(nodes);
  EXPECT_TRUE(map.identity());
}

TEST(CostModelTest, RecordTermSeesStaircaseSavings) {
  // Segments heavily skewed toward fine LODs: the record term must
  // rate a staircase below the single cube even when the page term
  // alone cannot (the situation that motivated EstimateQueryCost).
  CostCatalog::Stats stats;
  stats.nodes = UniformNodes(50, 10, 100);
  stats.data_space = Box::Of(0, 0, 0, 100, 100, 100);
  Rng rng(3);
  for (int i = 0; i < 4000; ++i) {
    const double lo = std::pow(rng.NextDouble(), 8.0) * 100.0;
    stats.segment_sample.emplace_back(lo, lo + rng.Uniform(0, 2));
  }
  stats.total_records = 100000;
  stats.records_per_page = 20;
  const CostModelInputs inputs{
      std::make_shared<const CostCatalog>(std::move(stats))};
  const CostCatalog& catalog = *inputs.catalog;

  const Rect roi = Rect::Of(0, 0, 80, 80);
  auto e_at = [](double t) { return 0.5 + 60.0 * t; };
  const double whole = catalog.EstimateQueryCost(
      SliceBox(roi, true, BaseCube{0, 1, e_at(0), e_at(1)}));
  const double parts =
      catalog.EstimateQueryCost(
          SliceBox(roi, true, BaseCube{0, 0.5, e_at(0), e_at(0.5)})) +
      catalog.EstimateQueryCost(
          SliceBox(roi, true, BaseCube{0.5, 1, e_at(0.5), e_at(1)}));
  EXPECT_LT(parts, whole);

  const auto cubes = OptimizeMultiBase(
      inputs, roi, true, e_at, 64);
  EXPECT_GT(cubes.size(), 1u);
}

TEST(CostModelTest, CatalogOptimizerStillRefusesFlatPlanes) {
  CostCatalog::Stats stats;
  stats.nodes = UniformNodes(50, 10, 100);
  stats.data_space = Box::Of(0, 0, 0, 100, 100, 100);
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double lo = rng.Uniform(0, 90);
    stats.segment_sample.emplace_back(lo, lo + 5);
  }
  stats.total_records = 50000;
  stats.records_per_page = 20;
  const auto cubes = OptimizeMultiBase(
      {std::make_shared<const CostCatalog>(std::move(stats))},
      Rect::Of(0, 0, 50, 50), true, [](double) { return 30.0; }, 64);
  EXPECT_EQ(cubes.size(), 1u);
}

TEST(CostModelTest, WithoutACatalogTheOptimizerKeepsOneCube) {
  const auto cubes = OptimizeMultiBase(
      CostModelInputs{}, Rect::Of(0, 0, 80, 80), true,
      [](double t) { return 1.0 + 80.0 * t; }, 64);
  ASSERT_EQ(cubes.size(), 1u);
  EXPECT_EQ(cubes[0].e_hi, 81.0);
}

TEST(CostModelTest, SampleEntriesThatAreNotIntervalsNeverCount) {
  CostCatalog::Stats stats;
  stats.data_space = Box::Of(0, 0, 0, 10, 10, 10);
  stats.segment_sample = {{1, 2}, {5, 3}, {std::nan(""), 4}, {6, 9}};
  stats.total_records = 4;
  stats.records_per_page = 1;
  const CostCatalog catalog(std::move(stats));
  // The whole xy space at e in [0, 10]: (1, 2) and (6, 9) hit out of
  // the four sampled, so 4 records * 2/4.
  EXPECT_EQ(catalog.EstimateQueryCost(Box::Of(0, 0, 0, 10, 10, 10)), 2.0);
  EXPECT_EQ(catalog.EstimateQueryCost(Box::Of(0, 0, 2, 10, 10, 6)), 2.0);
  EXPECT_EQ(catalog.EstimateQueryCost(Box::Of(0, 0, 3, 10, 10, 5)), 0.0);
}

// ---- the catalog against the reference formulas ---------------------

/// Formula (1) from EstimateDiskAccesses plus the record term by a
/// linear scan of the sample: the cost the catalog's tables must
/// reproduce to the last bit.
double ReferenceCost(const CostCatalog::Stats& stats, const Box& query) {
  const double index_pages = EstimateDiskAccesses(
      stats.nodes, stats.data_space, query, stats.e_map);
  double heap_pages = 0.0;
  if (!stats.segment_sample.empty() && stats.total_records > 0) {
    const double ex = std::max(stats.data_space.Extent(0), 1e-300);
    const double ey = std::max(stats.data_space.Extent(1), 1e-300);
    const double sel_xy = std::min(1.0, query.Extent(0) / ex) *
                          std::min(1.0, query.Extent(1) / ey);
    int64_t hit = 0;
    for (const auto& [l, h] : stats.segment_sample) {
      if (l <= query.hi[2] && h >= query.lo[2]) ++hit;
    }
    const double sel_e = static_cast<double>(hit) /
                         static_cast<double>(stats.segment_sample.size());
    heap_pages = static_cast<double>(stats.total_records) * sel_xy * sel_e /
                 std::max(1.0, stats.records_per_page);
  }
  return index_pages + heap_pages;
}

/// The multi-base optimizer as specified: recursive middle splits,
/// every cube estimated afresh by ReferenceCost.
void ReferenceSplit(const CostCatalog::Stats& stats, const ViewQuery& q,
                    double t0, double t1, int budget,
                    std::vector<BaseCube>* out) {
  auto e_at = [&q](double t) { return q.EAt(t); };
  const BaseCube whole{t0, t1, e_at(t0), e_at(t1)};
  if (budget > 1) {
    const double tm = (t0 + t1) / 2;
    const BaseCube left{t0, tm, e_at(t0), e_at(tm)};
    const BaseCube right{tm, t1, e_at(tm), e_at(t1)};
    const double da_whole =
        ReferenceCost(stats, SliceBox(q.roi, q.gradient_along_y, whole));
    const double da_parts =
        ReferenceCost(stats, SliceBox(q.roi, q.gradient_along_y, left)) +
        ReferenceCost(stats, SliceBox(q.roi, q.gradient_along_y, right));
    if (da_parts < da_whole) {
      ReferenceSplit(stats, q, t0, tm, budget / 2, out);
      ReferenceSplit(stats, q, tm, t1, budget - budget / 2, out);
      return;
    }
  }
  out->push_back(whole);
}

/// fig8's sweep grid (ROI, near-plane and angle sweeps) over a few
/// seeded ROI locations, in both gradient directions.
std::vector<ViewQuery> Fig8Queries(const PmTree& tree, const Rect& bounds) {
  constexpr double kRoiSweep[] = {0.01, 0.02, 0.05, 0.10, 0.15, 0.20};
  constexpr double kEminSweep[] = {0.75, 0.50, 0.25, 0.10, 0.05};
  constexpr double kAngleSweep[] = {0.1, 0.25, 0.5, 0.75, 0.9};
  struct Point {
    double roi = 0.10;
    double e_min_frac = 0.5;
    double angle = 0.5;
  };
  std::vector<Point> points;
  for (double roi : kRoiSweep) points.push_back({roi, 0.5, 0.5});
  for (double emin : kEminSweep) points.push_back({0.10, emin, 0.5});
  for (double angle : kAngleSweep) points.push_back({0.10, 0.5, angle});
  Rng rng(8);
  std::vector<ViewQuery> queries;
  for (const Point& p : points) {
    const double side = std::sqrt(p.roi * bounds.Area());
    const double e_min = tree.LodForCutFraction(p.e_min_frac);
    for (int loc = 0; loc < 3; ++loc) {
      const double x = rng.Uniform(bounds.lo_x, bounds.hi_x - side);
      const double y = rng.Uniform(bounds.lo_y, bounds.hi_y - side);
      const Rect roi = Rect::Of(x, y, x + side, y + side);
      for (bool along_y : {true, false}) {
        queries.push_back(ViewQuery::FromAngle(roi, e_min, p.angle,
                                               tree.max_lod(), along_y));
      }
    }
  }
  return queries;
}

/// Every estimate over a grid of slice boxes equals ReferenceCost, and
/// the optimizer picks the reference's cubes for every fig8 query.
void ExpectCatalogMatchesReference(const CostModelInputs& inputs,
                                   const PmTree& tree, const Rect& bounds) {
  ASSERT_NE(inputs.catalog, nullptr);
  const CostCatalog& catalog = *inputs.catalog;
  const CostCatalog::Stats& stats = catalog.stats();
  ASSERT_FALSE(stats.nodes.empty());
  ASSERT_FALSE(stats.segment_sample.empty());
  ASSERT_FALSE(stats.e_map.identity());

  const double max_lod = tree.max_lod();
  int boxes = 0;
  for (double f0 : {0.0, 0.3, 0.55}) {
    for (double size : {0.05, 0.2, 0.45}) {
      const Rect roi = Rect::Of(
          bounds.lo_x + f0 * bounds.width(), bounds.lo_y + f0 * bounds.height(),
          bounds.lo_x + (f0 + size) * bounds.width(),
          bounds.lo_y + (f0 + size) * bounds.height());
      for (double e0 : {0.0, 1e-4, 0.01, 0.2}) {
        for (double rise : {0.0, 1e-3, 0.05, 0.6}) {
          for (double t0 : {0.0, 0.25, 0.5}) {
            for (bool along_y : {true, false}) {
              const BaseCube cube{t0, t0 + 0.5, e0 * max_lod,
                                  (e0 + rise) * max_lod};
              const Box box = SliceBox(roi, along_y, cube);
              EXPECT_EQ(catalog.EstimateQueryCost(box),
                        ReferenceCost(stats, box))
                  << box.ToString();
              ++boxes;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(boxes, 864);

  int split_queries = 0;
  for (const ViewQuery& q : Fig8Queries(tree, bounds)) {
    const std::vector<BaseCube> cubes =
        OptimizeMultiBase(inputs, q.roi, q.gradient_along_y,
                          [&q](double t) { return q.EAt(t); }, 64);
    std::vector<BaseCube> expected;
    ReferenceSplit(stats, q, 0.0, 1.0, 64, &expected);
    ASSERT_EQ(cubes.size(), expected.size()) << q.roi.ToString();
    for (size_t i = 0; i < cubes.size(); ++i) {
      EXPECT_EQ(cubes[i].t0, expected[i].t0);
      EXPECT_EQ(cubes[i].t1, expected[i].t1);
      EXPECT_EQ(cubes[i].e_lo, expected[i].e_lo);
      EXPECT_EQ(cubes[i].e_hi, expected[i].e_hi);
    }
    if (cubes.size() > 1) ++split_queries;
  }
  // The grid exercises the split decision, not only the single cube.
  EXPECT_GT(split_queries, 0);
}

class CatalogReferenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scene_ = new testing::Scene(testing::MakeScene(65, 7, /*crater=*/true));
    env_ = testing::OpenTempEnv("cost_model").release();
    auto store_or =
        DmStore::Build(env_, scene_->base, scene_->tree, scene_->sr);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    store_ = new DmStore(std::move(store_or).value());
  }
  static void TearDownTestSuite() {
    delete store_;
    delete env_;
    std::remove(testing::TempDbPath("cost_model").c_str());
    delete scene_;
  }
  static testing::Scene* scene_;
  static DbEnv* env_;
  static DmStore* store_;
};
testing::Scene* CatalogReferenceTest::scene_ = nullptr;
DbEnv* CatalogReferenceTest::env_ = nullptr;
DmStore* CatalogReferenceTest::store_ = nullptr;

TEST_F(CatalogReferenceTest, StoreCatalogMatchesReference) {
  ExpectCatalogMatchesReference(store_->cost_inputs(), scene_->tree,
                                store_->meta().bounds);
}

TEST_F(CatalogReferenceTest, ShardRouterCatalogMatchesReference) {
  ShardSetOptions opt;
  opt.shards = 4;  // a 2 x 2 grid
  opt.replicas = 1;
  const std::string base = testing::TempDbPath("cost_model_shards");
  auto set_or = ShardSet::Build(*store_, base, opt);
  ASSERT_TRUE(set_or.ok()) << set_or.status().ToString();
  {
    ShardRouter router(set_or.value().get());
    const CostModelInputs inputs = router.cost_inputs();
    ASSERT_NE(inputs.catalog, nullptr);
    // The merged catalog spans every shard's tree.
    size_t nodes = 0;
    for (int s = 0; s < set_or.value()->num_shards(); ++s) {
      nodes += set_or.value()
                   ->shard(s)
                   .replicas[0]
                   ->store->cost_catalog()
                   .stats()
                   .nodes.size();
    }
    EXPECT_EQ(inputs.catalog->stats().nodes.size(), nodes);
    ExpectCatalogMatchesReference(inputs, scene_->tree,
                                  store_->meta().bounds);
  }
  set_or.value().reset();
  for (int s = 0; s < opt.shards; ++s) {
    const std::string stem = base + ".s" + std::to_string(s) + ".r0";
    std::remove((stem + ".db").c_str());
    std::remove((stem + ".meta").c_str());
  }
}

}  // namespace
}  // namespace dm
