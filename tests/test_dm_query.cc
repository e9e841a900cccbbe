#include "dm/dm_query.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dm/dm_store.h"
#include "mesh/validate.h"
#include "pm/cut_replay.h"
#include "test_util.h"

namespace dm {
namespace {

using testing::MakeScene;
using testing::OpenTempEnv;
using testing::Scene;

class DmQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scene_ = new Scene(MakeScene(33));
    env_ = OpenTempEnv("dm_query").release();
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

  static Rect Roi(double f0x, double f0y, double f1x, double f1y) {
    const Rect b = scene_->tree.bounds();
    return Rect::Of(b.lo_x + f0x * b.width(), b.lo_y + f0y * b.height(),
                    b.lo_x + f1x * b.width(), b.lo_y + f1y * b.height());
  }

  static Scene* scene_;
  static DbEnv* env_;
  static DmStore* store_;
};
Scene* DmQueryTest::scene_ = nullptr;
DbEnv* DmQueryTest::env_ = nullptr;
DmStore* DmQueryTest::store_ = nullptr;

TEST_F(DmQueryTest, ViewpointIndependentMatchesSelectiveRefinement) {
  DmQueryProcessor proc(store_);
  const Rect roi = Roi(0.1, 0.2, 0.8, 0.7);
  for (double frac : {0.01, 0.05, 0.2, 0.5}) {
    const double e = frac * scene_->tree.max_lod();
    auto result_or = proc.ViewpointIndependent(roi, e);
    ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
    const DmQueryResult& r = result_or.value();
    const auto expected = scene_->tree.SelectiveRefine(roi, e);
    EXPECT_EQ(r.vertices, expected) << "e = " << e;
  }
}

TEST_F(DmQueryTest, ViewpointIndependentTrianglesMatchQuotientCut) {
  DmQueryProcessor proc(store_);
  const Rect roi = Roi(0.0, 0.0, 1.0, 1.0);
  for (double frac : {0.02, 0.1, 0.35}) {
    const double e = frac * scene_->tree.max_lod();
    auto result_or = proc.ViewpointIndependent(roi, e);
    ASSERT_TRUE(result_or.ok());
    const DmQueryResult& r = result_or.value();

    // Edges of the reconstructed triangles must be quotient-cut edges.
    const QuotientCut cut = ComputeUniformCut(scene_->base, scene_->tree,
                                              roi, e);
    const auto edge_list = cut.Edges();
    std::set<std::pair<VertexId, VertexId>> cut_edges(edge_list.begin(),
                                                      edge_list.end());
    for (const Triangle& t : r.triangles) {
      for (int i = 0; i < 3; ++i) {
        VertexId a = t[i];
        VertexId b = t[(i + 1) % 3];
        if (a > b) std::swap(a, b);
        EXPECT_TRUE(cut_edges.count({a, b}))
            << "triangle edge " << a << "-" << b << " not in the cut";
      }
    }
    // And the mesh must be a valid terrain triangulation.
    const MeshStats stats =
        ComputeMeshStats(r.vertices, r.positions, r.triangles);
    EXPECT_TRUE(stats.IsManifold()) << stats.ToString();
    EXPECT_GT(stats.num_triangles, 0);
  }
}

TEST_F(DmQueryTest, SingleBaseMatchesPositionRestrictedRefinement) {
  // Ground truth mirroring DM's semantics: the range query can only
  // retrieve points whose (x, y) lies inside the ROI, so refinement is
  // restricted by node *position* (a child outside the ROI clips the
  // mesh at the boundary, like the paper's Figure 3 retrieval).
  DmQueryProcessor proc(store_);
  const Rect roi = Roi(0.1, 0.1, 0.9, 0.9);
  ViewQuery q;
  q.roi = roi;
  q.e_min = 0.01 * scene_->tree.max_lod();
  q.e_max = 0.5 * scene_->tree.max_lod();
  auto result_or = proc.SingleBase(q);
  ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
  const DmQueryResult& r = result_or.value();

  std::vector<VertexId> expected;
  std::vector<VertexId> work;
  for (const PmNode& n : scene_->tree.nodes()) {
    if (n.AliveAt(q.e_max) && roi.Contains(n.pos.x, n.pos.y)) {
      work.push_back(n.id);
    }
  }
  while (!work.empty()) {
    const PmNode& n = scene_->tree.node(work.back());
    work.pop_back();
    const double req = std::max(q.RequiredE(n.pos.x, n.pos.y), q.e_min);
    if (n.e_low > req && !n.is_leaf()) {
      bool any = false;
      for (VertexId c : {n.child1, n.child2}) {
        const PmNode& cn = scene_->tree.node(c);
        if (roi.Contains(cn.pos.x, cn.pos.y)) {
          work.push_back(c);
          any = true;
        }
      }
      if (!any) expected.push_back(n.id);  // fully clipped: keep coarse
      continue;
    }
    expected.push_back(n.id);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(r.vertices, expected);
}

TEST_F(DmQueryTest, MultiBaseMeshIsEquivalentToSingleBase) {
  // The stitched multi-base mesh may differ from single-base near the
  // slice boundaries (a slice's lower top plane can seed refinement one
  // generation finer than the neighbouring slice's satisfied ancestor —
  // the paper's Section 5.3 stitching argument). The meshes must agree
  // up to that refinement relation, and the disagreement must be tiny.
  DmQueryProcessor proc(store_);
  const Rect roi = Roi(0.05, 0.05, 0.95, 0.95);
  ViewQuery q;
  q.roi = roi;
  q.e_min = 0.01 * scene_->tree.max_lod();
  q.e_max = 0.6 * scene_->tree.max_lod();

  auto sb_or = proc.SingleBase(q);
  auto mb_or = proc.MultiBase(q);
  ASSERT_TRUE(sb_or.ok());
  ASSERT_TRUE(mb_or.ok());
  const auto& sb = sb_or.value().vertices;
  const auto& mb = mb_or.value().vertices;

  const std::set<VertexId> sb_set(sb.begin(), sb.end());
  const std::set<VertexId> mb_set(mb.begin(), mb.end());
  auto is_ancestor = [&](VertexId anc, VertexId v) {
    for (VertexId p = scene_->tree.node(v).parent; p != kInvalidVertex;
         p = scene_->tree.node(p).parent) {
      if (p == anc) return true;
    }
    return false;
  };
  int64_t diff = 0;
  for (VertexId v : mb) {
    if (sb_set.count(v)) continue;
    ++diff;
    // Every extra MB vertex must refine some SB vertex.
    bool ok = false;
    for (VertexId p = scene_->tree.node(v).parent; p != kInvalidVertex;
         p = scene_->tree.node(p).parent) {
      if (sb_set.count(p)) {
        ok = true;
        break;
      }
    }
    EXPECT_TRUE(ok) << "MB vertex " << v << " unrelated to the SB cut";
  }
  for (VertexId v : sb) {
    if (mb_set.count(v)) continue;
    ++diff;
    // Every missing SB vertex must be represented by MB descendants.
    bool ok = false;
    for (VertexId m : mb) {
      if (is_ancestor(v, m)) {
        ok = true;
        break;
      }
    }
    EXPECT_TRUE(ok) << "SB vertex " << v << " uncovered by the MB cut";
  }
  EXPECT_LE(diff, static_cast<int64_t>(sb.size()) / 10 + 4)
      << "boundary disagreement too large";
}

TEST_F(DmQueryTest, MultiBaseNeverFetchesMoreDataThanSingleBase) {
  DmQueryProcessor proc(store_);
  const Rect roi = Roi(0.0, 0.0, 1.0, 1.0);
  ViewQuery q;
  q.roi = roi;
  q.e_min = 0.005 * scene_->tree.max_lod();
  q.e_max = 0.8 * scene_->tree.max_lod();

  ASSERT_TRUE(env_->FlushAll().ok());
  auto sb_or = proc.SingleBase(q);
  ASSERT_TRUE(sb_or.ok());
  ASSERT_TRUE(env_->FlushAll().ok());
  auto mb_or = proc.MultiBase(q);
  ASSERT_TRUE(mb_or.ok());
  // The optimizer only splits when the estimate improves; on a steep
  // plane the fetched record count must not exceed single-base by more
  // than the duplicated slice boundaries.
  EXPECT_LE(mb_or.value().stats.nodes_fetched,
            sb_or.value().stats.nodes_fetched * 11 / 10 + 8);
}

TEST_F(DmQueryTest, PlaneQueryFetchesLessThanCubeQuery) {
  // The headline claim of Section 5.1: the viewpoint-independent plane
  // retrieves far less than the PM-style cube up to the dataset max.
  DmQueryProcessor proc(store_);
  const Rect roi = Roi(0.2, 0.2, 0.8, 0.8);
  const double e = 0.05 * scene_->tree.max_lod();

  ASSERT_TRUE(env_->FlushAll().ok());
  auto plane_or = proc.ViewpointIndependent(roi, e);
  ASSERT_TRUE(plane_or.ok());

  // Cube fetch (what a PM-style index must retrieve): count entries.
  std::vector<uint64_t> cube_rids;
  ASSERT_TRUE(store_->rtree()
                  .RangeQuery(Box::FromRect(roi, e, scene_->tree.max_lod()),
                              &cube_rids)
                  .ok());
  EXPECT_LT(plane_or.value().stats.nodes_fetched,
            static_cast<int64_t>(cube_rids.size()));
}

TEST_F(DmQueryTest, EmptyRoiReturnsEmptyMesh) {
  DmQueryProcessor proc(store_);
  const Rect b = scene_->tree.bounds();
  const Rect outside =
      Rect::Of(b.hi_x + 10, b.hi_y + 10, b.hi_x + 20, b.hi_y + 20);
  auto result_or = proc.ViewpointIndependent(outside, 0.1);
  ASSERT_TRUE(result_or.ok());
  EXPECT_TRUE(result_or.value().vertices.empty());
  EXPECT_TRUE(result_or.value().triangles.empty());
}

TEST_F(DmQueryTest, StatsArepopulated) {
  DmQueryProcessor proc(store_);
  ASSERT_TRUE(env_->FlushAll().ok());
  auto result_or =
      proc.ViewpointIndependent(Roi(0.2, 0.2, 0.8, 0.8),
                                0.1 * scene_->tree.max_lod());
  ASSERT_TRUE(result_or.ok());
  const QueryStats& s = result_or.value().stats;
  EXPECT_GT(s.disk_accesses, 0);
  EXPECT_GT(s.nodes_fetched, 0);
  EXPECT_EQ(s.range_queries, 1);
}

// Malformed queries are rejected up front instead of answering from
// an inverted cube (which silently drops every cut node whose interval
// ends below e_min) or hitting std::clamp with lo > hi.
TEST_F(DmQueryTest, MalformedQueriesAreInvalidArgument) {
  DmQueryProcessor proc(store_);
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  ViewQuery good;
  good.roi = Roi(0.1, 0.1, 0.9, 0.9);
  good.e_min = 0.01 * scene_->tree.max_lod();
  good.e_max = 0.3 * scene_->tree.max_lod();
  ASSERT_TRUE(proc.SingleBase(good).ok());

  std::vector<ViewQuery> bad_views;
  ViewQuery inverted = good;
  std::swap(inverted.e_min, inverted.e_max);
  bad_views.push_back(inverted);
  ViewQuery v = good;
  v.e_min = nan;
  bad_views.push_back(v);
  v = good;
  v.e_max = inf;
  bad_views.push_back(v);
  v = good;
  v.roi.hi_x = nan;
  bad_views.push_back(v);
  v = good;
  v.roi = Rect::Of(5, 5, 1, 1);  // empty (lo > hi)
  bad_views.push_back(v);
  for (size_t i = 0; i < bad_views.size(); ++i) {
    EXPECT_EQ(proc.SingleBase(bad_views[i]).status().code(),
              StatusCode::kInvalidArgument)
        << "view " << i;
    EXPECT_EQ(proc.MultiBase(bad_views[i]).status().code(),
              StatusCode::kInvalidArgument)
        << "view " << i;
  }

  PerspectiveQuery p;
  p.roi = good.roi;
  p.viewer = Point2{good.roi.lo_x, good.roi.lo_y};
  p.tolerance = 0.1;
  p.e_floor = 0.0;
  p.e_cap = scene_->tree.max_lod();
  ASSERT_TRUE(proc.Perspective(p).ok());
  std::vector<PerspectiveQuery> bad_persp;
  PerspectiveQuery q = p;
  q.e_cap = -1.0;  // below e_floor
  bad_persp.push_back(q);
  q = p;
  q.tolerance = -0.5;
  bad_persp.push_back(q);
  q = p;
  q.viewer.y = inf;
  bad_persp.push_back(q);
  q = p;
  q.e_floor = nan;
  bad_persp.push_back(q);
  q = p;
  q.roi = Rect::Of(5, 5, 1, 1);
  bad_persp.push_back(q);
  for (size_t i = 0; i < bad_persp.size(); ++i) {
    EXPECT_EQ(proc.Perspective(bad_persp[i]).status().code(),
              StatusCode::kInvalidArgument)
        << "perspective " << i;
  }

  // Uniform plane queries: a NaN LOD or ROI field used to intersect
  // every index box and return an empty mesh with OK.
  const double e = 0.1 * scene_->tree.max_lod();
  ASSERT_TRUE(proc.ViewpointIndependent(good.roi, e).ok());
  std::vector<std::pair<Rect, double>> bad_uniform = {
      {good.roi, nan},
      {good.roi, inf},
      {good.roi, -inf},
      {Rect::Of(nan, 0.1, 0.9, 0.9), e},
      {Rect::Of(0.1, 0.1, 0.9, inf), e},
      {Rect::Of(5, 5, 1, 1), e},  // empty (lo > hi)
  };
  for (size_t i = 0; i < bad_uniform.size(); ++i) {
    EXPECT_EQ(proc.ViewpointIndependent(bad_uniform[i].first,
                                        bad_uniform[i].second)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "uniform " << i;
  }
}

TEST(ViewQueryTest, RequiredEInterpolatesAcrossRoi) {
  ViewQuery q;
  q.roi = Rect::Of(0, 0, 10, 20);
  q.e_min = 1.0;
  q.e_max = 5.0;
  q.gradient_along_y = true;
  EXPECT_DOUBLE_EQ(q.RequiredE(5, 0), 1.0);
  EXPECT_DOUBLE_EQ(q.RequiredE(5, 20), 5.0);
  EXPECT_DOUBLE_EQ(q.RequiredE(5, 10), 3.0);
  EXPECT_DOUBLE_EQ(q.RequiredE(5, -100), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(q.RequiredE(5, 100), 5.0);
}

TEST(ViewQueryTest, FromAngleSpansUpToDatasetMax) {
  const Rect roi = Rect::Of(0, 0, 100, 100);
  const double max_lod = 50.0;
  const ViewQuery q0 = ViewQuery::FromAngle(roi, 1.0, 0.0, max_lod);
  EXPECT_DOUBLE_EQ(q0.e_max, 1.0);  // flat plane
  const ViewQuery q1 = ViewQuery::FromAngle(roi, 1.0, 1.0, max_lod);
  EXPECT_NEAR(q1.e_max, std::min(1.0 + max_lod, max_lod), 1e-9);
  const ViewQuery qh = ViewQuery::FromAngle(roi, 1.0, 0.5, max_lod);
  EXPECT_GT(qh.e_max, q0.e_max);
  EXPECT_LT(qh.e_max, q1.e_max);
}


TEST_F(DmQueryTest, PerspectiveMatchesPositionRestrictedRefinement) {
  // Viewer in the ROI corner, screen-space-error rule e <= E * d.
  DmQueryProcessor proc(store_);
  const Rect roi = Roi(0.1, 0.1, 0.9, 0.9);
  PerspectiveQuery q;
  q.roi = roi;
  q.viewer = Point2{roi.lo_x, roi.lo_y};
  q.tolerance = 0.3 * scene_->tree.max_lod() /
                std::max(roi.width(), roi.height());
  q.e_floor = 0.0;
  q.e_cap = scene_->tree.max_lod();

  auto result_or = proc.Perspective(q);
  ASSERT_TRUE(result_or.ok()) << result_or.status().ToString();
  const DmQueryResult& r = result_or.value();
  ASSERT_FALSE(r.vertices.empty());

  // Mirror of the position-restricted refinement, radial field.
  double e_lo = 0;
  double e_hi = 0;
  q.Range(&e_lo, &e_hi);
  std::vector<VertexId> expected;
  std::vector<VertexId> work;
  for (const PmNode& n : scene_->tree.nodes()) {
    if (n.AliveAt(e_hi) && roi.Contains(n.pos.x, n.pos.y)) {
      work.push_back(n.id);
    }
  }
  while (!work.empty()) {
    const PmNode& n = scene_->tree.node(work.back());
    work.pop_back();
    const double req = q.RequiredE(n.pos.x, n.pos.y);
    if (n.e_low > req && !n.is_leaf()) {
      bool any = false;
      for (VertexId c : {n.child1, n.child2}) {
        const PmNode& cn = scene_->tree.node(c);
        if (roi.Contains(cn.pos.x, cn.pos.y)) {
          work.push_back(c);
          any = true;
        }
      }
      if (!any) expected.push_back(n.id);
      continue;
    }
    expected.push_back(n.id);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(r.vertices, expected);

  // And the mesh must be finer near the viewer: compare the average
  // LOD interval floor of vertices in the near and far quarters.
  double near_sum = 0;
  double far_sum = 0;
  int near_n = 0;
  int far_n = 0;
  for (VertexId v : r.vertices) {
    const PmNode& n = scene_->tree.node(v);
    const double d = DistanceXY(n.pos,
                                Point3{q.viewer.x, q.viewer.y, 0});
    const double dmax = std::sqrt(roi.width() * roi.width() +
                                  roi.height() * roi.height());
    if (d < dmax * 0.25) {
      near_sum += n.e_low;
      ++near_n;
    } else if (d > dmax * 0.6) {
      far_sum += n.e_low;
      ++far_n;
    }
  }
  ASSERT_GT(near_n, 0);
  ASSERT_GT(far_n, 0);
  EXPECT_LT(near_sum / near_n, far_sum / far_n);
}

TEST_F(DmQueryTest, PerspectiveRangeBracketsRequiredE) {
  PerspectiveQuery q;
  q.roi = Rect::Of(0, 0, 10, 10);
  q.viewer = Point2{-5, 5};  // outside, west of the ROI
  q.tolerance = 2.0;
  q.e_floor = 1.0;
  q.e_cap = 100.0;
  double lo = 0;
  double hi = 0;
  q.Range(&lo, &hi);
  // Nearest ROI point is (0, 5) at distance 5; farthest corner at
  // sqrt(15^2 + 5^2).
  EXPECT_DOUBLE_EQ(lo, 1.0 + 2.0 * 5.0);
  EXPECT_DOUBLE_EQ(hi, 1.0 + 2.0 * std::sqrt(15.0 * 15.0 + 5.0 * 5.0));
  for (double x : {0.0, 3.0, 10.0}) {
    for (double y : {0.0, 5.0, 10.0}) {
      const double e = q.RequiredE(x, y);
      EXPECT_GE(e, lo);
      EXPECT_LE(e, hi);
    }
  }
}

TEST_F(DmQueryTest, GradientAlongXBehavesSymmetrically) {
  DmQueryProcessor proc(store_);
  const Rect roi = Roi(0.1, 0.1, 0.9, 0.9);
  ViewQuery q;
  q.roi = roi;
  q.e_min = 0.0;
  q.e_max = 0.3 * scene_->tree.max_lod();
  q.gradient_along_y = false;
  auto r_or = proc.SingleBase(q);
  ASSERT_TRUE(r_or.ok());
  const DmQueryResult& r = r_or.value();
  ASSERT_FALSE(r.vertices.empty());
  // Finer (lower interval) vertices concentrate at low x.
  double lo_x_sum = 0;
  double hi_x_sum = 0;
  int lo_n = 0;
  int hi_n = 0;
  for (VertexId v : r.vertices) {
    const PmNode& n = scene_->tree.node(v);
    if (n.pos.x < roi.lo_x + roi.width() * 0.3) {
      lo_x_sum += n.e_low;
      ++lo_n;
    } else if (n.pos.x > roi.lo_x + roi.width() * 0.7) {
      hi_x_sum += n.e_low;
      ++hi_n;
    }
  }
  ASSERT_GT(lo_n, 0);
  ASSERT_GT(hi_n, 0);
  EXPECT_LT(lo_x_sum / lo_n, hi_x_sum / hi_n);
  // Multi-base agrees with single-base on the x-gradient too (up to
  // the one-generation slice-boundary slack).
  auto mb_or = proc.MultiBase(q);
  ASSERT_TRUE(mb_or.ok());
  EXPECT_GE(mb_or.value().vertices.size() + 3, r.vertices.size() * 4 / 5);
}

// Single-base and perspective cuts refine one top-plane cut, so they
// never hold a node together with one of its ancestors: the pass that
// drops covered descendants (needed for multi-base slices) would drop
// nothing, and the cut has no duplicates. Checked against the PM
// tree's full parent chains over a seeded grid of queries.
TEST_F(DmQueryTest, SingleTopPlaneCutsHoldNoAncestorPair) {
  DmQueryProcessor proc(store_);
  const double lod = scene_->tree.max_lod();
  Rng rng(2104);
  int queries = 0;
  const auto expect_no_nesting = [&](const DmQueryResult& r,
                                     const std::string& what) {
    ASSERT_TRUE(std::adjacent_find(r.vertices.begin(), r.vertices.end(),
                                   std::greater_equal<VertexId>()) ==
                r.vertices.end())
        << what << ": vertices not strictly ascending";
    for (VertexId v : r.vertices) {
      for (VertexId p = scene_->tree.node(v).parent; p != kInvalidVertex;
           p = scene_->tree.node(p).parent) {
        ASSERT_FALSE(std::binary_search(r.vertices.begin(), r.vertices.end(),
                                        p))
            << what << ": vertex " << v << " and its ancestor " << p;
      }
    }
    ++queries;
  };
  for (int i = 0; i < 24; ++i) {
    const double x0 = rng.Uniform(0.0, 0.6);
    const double y0 = rng.Uniform(0.0, 0.6);
    const Rect roi = Roi(x0, y0, x0 + rng.Uniform(0.2, 0.4),
                         y0 + rng.Uniform(0.2, 0.4));
    const std::string where = "query " + std::to_string(i);

    ViewQuery vq;
    vq.roi = roi;
    vq.e_min = rng.Uniform(0.0, 0.05) * lod;
    vq.e_max = vq.e_min + rng.Uniform(0.05, 0.6) * lod;
    vq.gradient_along_y = (i % 2) == 0;
    auto sb = proc.SingleBase(vq);
    ASSERT_TRUE(sb.ok()) << sb.status().ToString();
    expect_no_nesting(sb.value(), "single-base " + where);

    PerspectiveQuery pq;
    pq.roi = roi;
    pq.viewer = Point2{roi.lo_x + rng.Uniform(0.0, 1.0) * roi.width(),
                       roi.lo_y + rng.Uniform(0.0, 1.0) * roi.height()};
    pq.tolerance = rng.Uniform(0.05, 0.5) * lod /
                   std::max(roi.width(), roi.height());
    pq.e_floor = 0.0;
    pq.e_cap = lod;
    auto pp = proc.Perspective(pq);
    ASSERT_TRUE(pp.ok()) << pp.status().ToString();
    expect_no_nesting(pp.value(), "perspective " + where);
  }
  EXPECT_EQ(queries, 48);
}

}  // namespace
}  // namespace dm
