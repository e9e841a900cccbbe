// Cross-seed property sweeps: the invariants the whole design rests on,
// re-verified over a grid of terrain shapes, sizes and seeds
// (parameterized gtest). Anything that only holds for one lucky seed
// fails here.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "dm/connectivity.h"
#include "dm/dm_query.h"
#include "dm/dm_store.h"
#include "pm/cut_replay.h"
#include "server/shard_router.h"
#include "server/shard_set.h"
#include "test_util.h"

namespace dm {
namespace {

using testing::MakeScene;
using testing::Scene;

// (side, seed, crater)
using Param = std::tuple<int, uint64_t, bool>;

class InvariantSweep : public ::testing::TestWithParam<Param> {
 protected:
  Scene MakeParamScene() const {
    const auto& [side, seed, crater] = GetParam();
    return MakeScene(side, seed, crater);
  }
};

TEST_P(InvariantSweep, PmConstructionInvariants) {
  const Scene s = MakeParamScene();
  // Full collapse into one root, no forced (non-manifold) collapses.
  EXPECT_EQ(s.sr.roots.size(), 1u);
  EXPECT_EQ(s.sr.forced_collapses, 0);
  EXPECT_EQ(s.tree.num_nodes(), 2 * s.tree.num_leaves() - 1);
  // Monotone normalized LODs; intervals tile [0, inf) on every path.
  for (VertexId leaf = 0; leaf < s.tree.num_leaves(); leaf += 7) {
    double expect_low = 0.0;
    for (VertexId v = leaf; v != kInvalidVertex;
         v = s.tree.node(v).parent) {
      const PmNode& n = s.tree.node(v);
      EXPECT_EQ(n.e_low, expect_low);
      EXPECT_LE(n.e_low, n.e_high);
      expect_low = n.e_high;
    }
    EXPECT_TRUE(std::isinf(expect_low));
  }
}

TEST_P(InvariantSweep, ConnectionListsExactAtEveryLod) {
  const Scene s = MakeParamScene();
  const auto conn = BuildConnectionLists(s.base, s.tree, s.sr);
  for (double frac : {0.0, 0.02, 0.2, 0.7}) {
    const double e = frac * s.tree.max_lod();
    const QuotientCut cut =
        ComputeUniformCut(s.base, s.tree, s.tree.bounds(), e);
    const auto edge_list = cut.Edges();
    std::set<std::pair<VertexId, VertexId>> expected(edge_list.begin(),
                                                     edge_list.end());
    std::set<VertexId> alive(cut.vertices.begin(), cut.vertices.end());
    std::set<std::pair<VertexId, VertexId>> got;
    for (VertexId u : cut.vertices) {
      for (VertexId v : conn[static_cast<size_t>(u)]) {
        if (u < v && alive.count(v)) got.emplace(u, v);
      }
    }
    EXPECT_EQ(got, expected)
        << "side=" << std::get<0>(GetParam())
        << " seed=" << std::get<1>(GetParam()) << " e=" << e;
  }
}

TEST_P(InvariantSweep, DmQueriesEqualSelectiveRefinement) {
  const Scene s = MakeParamScene();
  auto env = testing::OpenTempEnv(
      "prop_" + std::to_string(std::get<0>(GetParam())) +
      std::to_string(std::get<1>(GetParam())));
  auto store_or = DmStore::Build(env.get(), s.base, s.tree, s.sr);
  ASSERT_TRUE(store_or.ok());
  DmQueryProcessor proc(&store_or.value());

  const Rect b = s.tree.bounds();
  const Rect rois[] = {
      b,
      Rect::Of(b.lo_x + b.width() * 0.3, b.lo_y + b.height() * 0.1,
               b.lo_x + b.width() * 0.7, b.lo_y + b.height() * 0.6),
  };
  for (const Rect& roi : rois) {
    for (double frac : {0.01, 0.2}) {
      const double e = frac * s.tree.max_lod();
      auto r_or = proc.ViewpointIndependent(roi, e);
      ASSERT_TRUE(r_or.ok());
      EXPECT_EQ(r_or.value().vertices, s.tree.SelectiveRefine(roi, e))
          << "e=" << e;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TerrainGrid, InvariantSweep,
    ::testing::Values(Param{17, 1, false}, Param{17, 2, true},
                      Param{25, 3, false}, Param{25, 5, true},
                      Param{33, 8, false}, Param{33, 13, true},
                      Param{41, 21, false}, Param{49, 34, true}),
    [](const ::testing::TestParamInfo<Param>& info) {
      return "side" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_crater" : "_fractal");
    });

// Differential oracle for the surface-bounded fetch (DESIGN.md §18):
// over seeded random view and perspective queries, the bounded fetch
// must return byte-identical geometry to the paper's cube fetch while
// reading no more nodes and no more pages, on every codec and shard
// layout.
class BoundedFetchDifferential : public ::testing::Test {
 protected:
  /// One store layout under test: a data source plus a way to empty
  /// every buffer pool behind it.
  struct Target {
    std::string name;
    DmDataSource* source = nullptr;
    std::vector<DbEnv*> envs;
  };

  static void SetUpTestSuite() {
    scene_ = new Scene(MakeScene(49, 11, /*crater=*/true));
    for (DmCodec codec : {DmCodec::kFlat, DmCodec::kGroup}) {
      const std::string tag = codec == DmCodec::kFlat ? "flat" : "group";
      DbEnv* env = Own(testing::OpenTempEnv("bf_" + tag));
      DmStoreOptions so;
      so.codec = codec;
      auto built = DmStore::Build(env, scene_->base, scene_->tree, scene_->sr,
                                  so);
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      DmStore* store = Own(std::move(built).value());
      AddTarget(tag + "/built", store, {env});

      if (codec == DmCodec::kFlat) {
        ShardSetOptions opt;
        opt.shards = 4;  // 2 x 2 grid
        opt.replicas = 1;
        const char* tmp = std::getenv("TMPDIR");
        auto set = ShardSet::Build(
            *store,
            std::string(tmp != nullptr ? tmp : "/tmp") + "/dm_test_bf_" +
                std::to_string(::getpid()),
            opt);
        ASSERT_TRUE(set.ok()) << set.status().ToString();
        shards_ = set.value().release();
        router_ = new ShardRouter(shards_);
        Target t;
        t.name = "flat/2x2-shards";
        t.source = router_;
        for (int k = 0; k < shards_->num_shards(); ++k) {
          t.envs.push_back(shards_->shard(k).replicas[0]->env.get());
        }
        targets_->push_back(std::move(t));
      }
    }
  }

  static void TearDownTestSuite() {
    delete router_;
    delete shards_;
    delete targets_;
    // Stores before the environments they live in.
    for (auto it = owned_.rbegin(); it != owned_.rend(); ++it) it->reset();
    owned_.clear();
    delete scene_;
  }

  template <typename T>
  static T* Own(T value) {
    auto holder = std::make_shared<T>(std::move(value));
    owned_.push_back(holder);
    return holder.get();
  }
  static DbEnv* Own(std::unique_ptr<DbEnv> env) {
    std::shared_ptr<DbEnv> holder = std::move(env);
    owned_.push_back(holder);
    return holder.get();
  }
  static void AddTarget(const std::string& name, DmStore* store,
                        std::vector<DbEnv*> envs) {
    sources_.push_back(std::make_shared<DmStoreSource>(store));
    targets_->push_back(Target{name, sources_.back().get(), std::move(envs)});
  }

  /// Runs `run` cold with the bounded fetch off and on, and checks the
  /// differential contract. Returns the nodes fetched (cube, bounded).
  template <typename Run>
  static std::pair<int64_t, int64_t> Compare(const Target& t, const Run& run,
                                             const std::string& what) {
    Result<DmQueryResult> results[2] = {Status::Internal("unset"),
                                        Status::Internal("unset")};
    for (int bounded = 0; bounded < 2; ++bounded) {
      for (DbEnv* env : t.envs) EXPECT_TRUE(env->FlushAll().ok());
      DmQueryOptions opt;
      opt.bounded_fetch = bounded == 1;
      DmQueryProcessor proc(t.source, opt);
      results[bounded] = run(&proc);
      EXPECT_TRUE(results[bounded].ok())
          << t.name << " " << what << ": "
          << results[bounded].status().ToString();
      if (!results[bounded].ok()) return {0, 0};
    }
    const DmQueryResult& cube = results[0].value();
    const DmQueryResult& bf = results[1].value();
    const auto same_bytes = [](const auto& a, const auto& b) {
      return a.size() == b.size() &&
             (a.empty() ||
              std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0);
    };
    EXPECT_EQ(bf.vertices, cube.vertices) << t.name << " " << what;
    EXPECT_TRUE(same_bytes(bf.positions, cube.positions))
        << t.name << " " << what;
    EXPECT_TRUE(same_bytes(bf.triangles, cube.triangles))
        << t.name << " " << what;
    EXPECT_EQ(bf.stats.refinement_splits, cube.stats.refinement_splits)
        << t.name << " " << what;
    EXPECT_LE(bf.stats.nodes_fetched, cube.stats.nodes_fetched)
        << t.name << " " << what;
    EXPECT_LE(bf.stats.disk_accesses, cube.stats.disk_accesses)
        << t.name << " " << what;
    return {cube.stats.nodes_fetched, bf.stats.nodes_fetched};
  }

  /// A random ROI; about a third of them touch the terrain edge.
  static Rect RandomRoi(Rng* rng) {
    const Rect b = scene_->tree.bounds();
    const double w = b.width() * rng->Uniform(0.15, 0.8);
    const double h = b.height() * rng->Uniform(0.15, 0.8);
    double x = rng->Uniform(b.lo_x, b.hi_x - w);
    double y = rng->Uniform(b.lo_y, b.hi_y - h);
    switch (rng->NextBelow(6)) {
      case 0:
        x = b.lo_x;
        break;
      case 1:
        y = b.hi_y - h;
        break;
      default:
        break;
    }
    return Rect::Of(x, y, x + w, y + h);
  }

  static Scene* scene_;
  static std::vector<std::shared_ptr<void>> owned_;
  static std::vector<std::shared_ptr<DmStoreSource>> sources_;
  static std::vector<Target>* targets_;
  static ShardSet* shards_;
  static ShardRouter* router_;
};
Scene* BoundedFetchDifferential::scene_ = nullptr;
std::vector<std::shared_ptr<void>> BoundedFetchDifferential::owned_;
std::vector<std::shared_ptr<DmStoreSource>> BoundedFetchDifferential::sources_;
std::vector<BoundedFetchDifferential::Target>*
    BoundedFetchDifferential::targets_ =
        new std::vector<BoundedFetchDifferential::Target>();
ShardSet* BoundedFetchDifferential::shards_ = nullptr;
ShardRouter* BoundedFetchDifferential::router_ = nullptr;

TEST_F(BoundedFetchDifferential, ViewQueriesMatchTheCubeFetch) {
  ASSERT_EQ(targets_->size(), 3u);  // flat, group, flat 2x2 shards
  const double max_lod = scene_->tree.max_lod();
  Rng rng(2024);
  for (const Target& t : *targets_) {
    int64_t cube_nodes = 0;
    int64_t bounded_nodes = 0;
    for (int i = 0; i < 48; ++i) {
      const Rect roi = RandomRoi(&rng);
      const bool along_y = rng.NextBelow(2) == 0;
      // Angles down to 0 (a flat plane, e_max == e_min).
      const double angle = i % 6 == 0 ? 0.0 : rng.NextDouble();
      const double e_min = max_lod * std::pow(rng.NextDouble(), 3.0) * 0.2;
      const ViewQuery q =
          ViewQuery::FromAngle(roi, e_min, angle, max_lod, along_y);
      const std::string what = "view #" + std::to_string(i);
      const auto sb = Compare(
          t, [&](DmQueryProcessor* p) { return p->SingleBase(q); },
          what + " single-base");
      const auto mb = Compare(
          t, [&](DmQueryProcessor* p) { return p->MultiBase(q); },
          what + " multi-base");
      cube_nodes += sb.first + mb.first;
      bounded_nodes += sb.second + mb.second;
    }
    // The bound must actually prune on a sloped plane.
    EXPECT_LT(bounded_nodes, cube_nodes) << t.name;
  }
}

TEST_F(BoundedFetchDifferential, PerspectiveQueriesMatchTheCubeFetch) {
  const double max_lod = scene_->tree.max_lod();
  Rng rng(77);
  for (const Target& t : *targets_) {
    int64_t cube_nodes = 0;
    int64_t bounded_nodes = 0;
    for (int i = 0; i < 48; ++i) {
      PerspectiveQuery q;
      q.roi = RandomRoi(&rng);
      const Rect b = scene_->tree.bounds();
      if (i % 2 == 0) {
        q.viewer = Point2{rng.Uniform(q.roi.lo_x, q.roi.hi_x),
                          rng.Uniform(q.roi.lo_y, q.roi.hi_y)};
      } else {
        // Outside the ROI, possibly outside the terrain.
        q.viewer = Point2{q.roi.lo_x - rng.Uniform(0.0, b.width()),
                          rng.Uniform(b.lo_y - b.height(), b.hi_y)};
      }
      const double diag = std::hypot(q.roi.width(), q.roi.height());
      q.tolerance = rng.Uniform(0.05, 1.0) * max_lod / diag;
      q.e_floor = max_lod * std::pow(rng.NextDouble(), 3.0) * 0.1;
      q.e_cap = i % 3 == 0 ? max_lod : rng.Uniform(q.e_floor, max_lod);
      const auto r = Compare(
          t, [&](DmQueryProcessor* p) { return p->Perspective(q); },
          "perspective #" + std::to_string(i));
      cube_nodes += r.first;
      bounded_nodes += r.second;
    }
    EXPECT_LT(bounded_nodes, cube_nodes) << t.name;
  }
}

}  // namespace
}  // namespace dm
