// Round-trip tests for the cut-locality repacker (dm/repack.h): the
// repacked store must pass the full invariant audit, answer every
// query class with byte-identical geometry to the build-order store
// (including the degraded-query mode of DESIGN.md §11), and not lose
// heap locality — the whole point of the rewrite.

#include "dm/repack.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dm/dm_query.h"
#include "dm/dm_store.h"
#include "dm/invariants.h"
#include "server/query_service.h"
#include "test_util.h"

namespace dm {
namespace {

using testing::MakeScene;
using testing::OpenTempEnv;
using testing::Scene;

/// Exact (bitwise) geometry comparison: same cut, same positions, same
/// triangulation. Stats are allowed to differ (that is the point of
/// repacking); geometry is not.
void ExpectSameGeometry(const DmQueryResult& a, const DmQueryResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.vertices, b.vertices) << what;
  EXPECT_EQ(a.positions, b.positions) << what;
  ASSERT_EQ(a.triangles.size(), b.triangles.size()) << what;
  for (size_t i = 0; i < a.triangles.size(); ++i) {
    EXPECT_EQ(a.triangles[i].v, b.triangles[i].v) << what << " tri " << i;
  }
}

class RepackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scene_ = new Scene(MakeScene(33, /*seed=*/7));
    src_env_ = OpenTempEnv("repack_src").release();
    auto store_or =
        DmStore::Build(src_env_, scene_->base, scene_->tree, scene_->sr);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    src_ = new DmStore(std::move(store_or).value());

    dst_env_ = OpenTempEnv("repack_dst").release();
    auto rp_or = RepackDmStore(*src_, dst_env_, {}, &report_);
    ASSERT_TRUE(rp_or.ok()) << rp_or.status().ToString();
    rp_ = new DmStore(std::move(rp_or).value());
  }
  static void TearDownTestSuite() {
    delete rp_;
    delete src_;
    delete dst_env_;
    delete src_env_;
  }

  static Rect Roi(double f0x, double f0y, double f1x, double f1y) {
    const Rect b = scene_->tree.bounds();
    return Rect::Of(b.lo_x + f0x * b.width(), b.lo_y + f0y * b.height(),
                    b.lo_x + f1x * b.width(), b.lo_y + f1y * b.height());
  }

  static Scene* scene_;
  static DbEnv* src_env_;
  static DbEnv* dst_env_;
  static DmStore* src_;
  static DmStore* rp_;
  static RepackReport report_;
};
Scene* RepackTest::scene_ = nullptr;
DbEnv* RepackTest::src_env_ = nullptr;
DbEnv* RepackTest::dst_env_ = nullptr;
DmStore* RepackTest::src_ = nullptr;
DmStore* RepackTest::rp_ = nullptr;
RepackReport RepackTest::report_;

TEST_F(RepackTest, RepackedStoreVerifiesClean) {
  EXPECT_TRUE(rp_->meta().repacked);
  EXPECT_EQ(rp_->meta().num_nodes, src_->meta().num_nodes);
  EXPECT_EQ(report_.num_nodes, src_->meta().num_nodes);
  EXPECT_GE(report_.tile_level, 0);
  auto report_or = VerifyDmStore(*rp_);
  ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
  EXPECT_TRUE(report_or.value().ok()) << report_or.value().ToString();
}

TEST_F(RepackTest, UniformQueriesAreByteIdentical) {
  DmQueryProcessor a(src_);
  DmQueryProcessor b(rp_);
  const Rect roi = Roi(0.1, 0.15, 0.85, 0.8);
  for (double frac : {0.01, 0.05, 0.2, 0.5}) {
    const double e = frac * scene_->tree.max_lod();
    auto ra = a.ViewpointIndependent(roi, e);
    auto rb = b.ViewpointIndependent(roi, e);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    ExpectSameGeometry(ra.value(), rb.value(),
                       "uniform e=" + std::to_string(e));
  }
}

TEST_F(RepackTest, ViewDependentQueriesAreByteIdentical) {
  DmQueryProcessor a(src_);
  DmQueryProcessor b(rp_);
  ViewQuery q;
  q.roi = Roi(0.1, 0.1, 0.9, 0.9);
  q.e_min = 0.01 * scene_->tree.max_lod();
  q.e_max = 0.5 * scene_->tree.max_lod();
  {
    auto ra = a.SingleBase(q);
    auto rb = b.SingleBase(q);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    ExpectSameGeometry(ra.value(), rb.value(), "single-base");
  }
  {
    auto ra = a.MultiBase(q);
    auto rb = b.MultiBase(q);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    ExpectSameGeometry(ra.value(), rb.value(), "multi-base");
  }
}

TEST_F(RepackTest, DegradedModeIsByteIdenticalOnHealthyStores) {
  // The degraded path takes different fetch/refine branches, so it
  // needs its own round-trip check; on healthy stores it must neither
  // degrade nor change a single byte of geometry.
  DmQueryOptions opts;
  opts.allow_degraded = true;
  DmQueryProcessor a(src_, opts);
  DmQueryProcessor b(rp_, opts);
  const Rect roi = Roi(0.05, 0.05, 0.95, 0.95);
  const double e = 0.05 * scene_->tree.max_lod();
  auto ra = a.ViewpointIndependent(roi, e);
  auto rb = b.ViewpointIndependent(roi, e);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_FALSE(ra.value().health.degraded);
  EXPECT_FALSE(rb.value().health.degraded);
  ExpectSameGeometry(ra.value(), rb.value(), "degraded mode");
}

TEST_F(RepackTest, RepackDoesNotLoseHeapLocality) {
  // Cold-cache heap cost of one uniform and one view-dependent query
  // on each layout. Heap reads are disk accesses minus index reads.
  const Rect roi = Roi(0.2, 0.2, 0.8, 0.8);
  const double e = 0.05 * scene_->tree.max_lod();
  ViewQuery vq;
  vq.roi = roi;
  vq.e_min = 0.01 * scene_->tree.max_lod();
  vq.e_max = 0.3 * scene_->tree.max_lod();
  // The paper's cube fetch, as the fig6/fig8 DM-SB and DM-RP arms run it.
  DmQueryOptions cube;
  cube.bounded_fetch = false;
  auto run_cold = [&](DbEnv* env, DmStore* store, bool view) {
    EXPECT_TRUE(env->FlushAll().ok());
    DmQueryProcessor proc(store, cube);
    auto r = view ? proc.SingleBase(vq) : proc.ViewpointIndependent(roi, e);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.value().stats;
  };
  const auto heap_reads = [](const QueryStats& s) {
    return static_cast<double>(s.disk_accesses - s.index_io);
  };
  const auto pages_per_run = [](int64_t pages, int64_t runs) {
    return runs > 0 ? static_cast<double>(pages) / static_cast<double>(runs)
                    : 0.0;
  };

  // Uniform: the repacked layout is never worse than build order, and
  // its coalesced page runs are no shorter.
  const QueryStats ua = run_cold(src_env_, src_, /*view=*/false);
  const QueryStats ub = run_cold(dst_env_, rp_, /*view=*/false);
  EXPECT_EQ(ua.nodes_fetched, ub.nodes_fetched);
  EXPECT_LE(heap_reads(ub), heap_reads(ua));
  EXPECT_GE(pages_per_run(ub.fetch_run_pages, ub.fetch_runs),
            pages_per_run(ua.fetch_run_pages, ua.fetch_runs));

  // View-dependent: build order is already STR-clustered, so the
  // repacked layout need only stay within 1/0.45 of its heap reads.
  const QueryStats va = run_cold(src_env_, src_, /*view=*/true);
  const QueryStats vb = run_cold(dst_env_, rp_, /*view=*/true);
  EXPECT_EQ(va.nodes_fetched, vb.nodes_fetched);
  ASSERT_GT(heap_reads(vb), 0);
  EXPECT_GE(heap_reads(va) / heap_reads(vb), 0.45)
      << "view heap reads: build order " << heap_reads(va) << ", repacked "
      << heap_reads(vb);

  // Mean pages per run over both queries reaches 0.95x build order.
  const double ppr_a = pages_per_run(ua.fetch_run_pages + va.fetch_run_pages,
                                     ua.fetch_runs + va.fetch_runs);
  const double ppr_b = pages_per_run(ub.fetch_run_pages + vb.fetch_run_pages,
                                     ub.fetch_runs + vb.fetch_runs);
  EXPECT_GE(ppr_b, 0.95 * ppr_a);

  // One cold, single-thread batch of the mixed serving workload: the
  // repacked layout lands its fetches on fewer page runs (heap and
  // R*-tree runs alike; both layouts index the same boxes).
  const std::vector<QueryRequest> mixed = MakeMixedWorkload(
      scene_->tree.bounds(), scene_->tree.max_lod(), 40, /*seed=*/777,
      /*roi_fraction=*/0.10);
  auto mixed_runs = [&](DbEnv* env, DmStore* store) -> int64_t {
    EXPECT_TRUE(env->FlushAll().ok());
    const IoStats io0 = env->stats();
    DmStoreSource source(store);
    auto report = RunThroughput(&source, mixed, /*threads=*/1);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().failed, 0);
    return env->stats().fetch_runs - io0.fetch_runs;
  };
  const int64_t runs_a = mixed_runs(src_env_, src_);
  const int64_t runs_b = mixed_runs(dst_env_, rp_);
  ASSERT_GT(runs_b, 0);
  EXPECT_GE(static_cast<double>(runs_a) / static_cast<double>(runs_b), 1.10)
      << "mixed page runs: build order " << runs_a << ", repacked " << runs_b;
}

TEST(RepackStandaloneTest, GroupCodecStoreRepacksAndAnswersIdentically) {
  // v6 group blobs cannot be copied verbatim (records share page-level
  // FoR bases), so the repacker decodes and re-encodes them. The
  // repacked store must keep the group codec, verify clean, and return
  // byte-identical query geometry.
  const Scene scene = MakeScene(33, /*seed=*/7);
  auto src_env = OpenTempEnv("repack_group_src");
  DmStoreOptions options;
  options.codec = DmCodec::kGroup;
  auto store_or = DmStore::Build(src_env.get(), scene.base, scene.tree,
                                 scene.sr, options);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();

  auto dst_env = OpenTempEnv("repack_group_dst");
  auto rp_or = RepackDmStore(store_or.value(), dst_env.get(), {});
  ASSERT_TRUE(rp_or.ok()) << rp_or.status().ToString();
  DmStore& rp = rp_or.value();
  EXPECT_EQ(rp.meta().codec, DmCodec::kGroup);
  EXPECT_EQ(rp.meta().num_nodes, store_or.value().meta().num_nodes);

  auto verify_or = VerifyDmStore(rp);
  ASSERT_TRUE(verify_or.ok()) << verify_or.status().ToString();
  EXPECT_TRUE(verify_or.value().ok()) << verify_or.value().ToString();

  DmQueryProcessor a(&store_or.value());
  DmQueryProcessor b(&rp);
  const Rect bounds = scene.tree.bounds();
  const Rect roi =
      Rect::Of(bounds.lo_x + 0.1 * bounds.width(),
               bounds.lo_y + 0.1 * bounds.height(),
               bounds.lo_x + 0.9 * bounds.width(),
               bounds.lo_y + 0.9 * bounds.height());
  for (double frac : {0.02, 0.2}) {
    const double e = frac * scene.tree.max_lod();
    auto ra = a.ViewpointIndependent(roi, e);
    auto rb = b.ViewpointIndependent(roi, e);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    ExpectSameGeometry(ra.value(), rb.value(),
                       "group repack e=" + std::to_string(e));
  }
}

TEST(RepackStandaloneTest, ExplicitTileLevelAndThreadsWork) {
  const Scene scene = MakeScene(33, /*seed=*/3);
  auto src_env = OpenTempEnv("repack_tiles_src");
  auto store_or =
      DmStore::Build(src_env.get(), scene.base, scene.tree, scene.sr);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();

  auto dst_env = OpenTempEnv("repack_tiles_dst");
  RepackOptions ro;
  ro.tile_level = 1;
  ro.threads = 2;
  RepackReport report;
  auto rp_or = RepackDmStore(store_or.value(), dst_env.get(), ro, &report);
  ASSERT_TRUE(rp_or.ok()) << rp_or.status().ToString();
  EXPECT_EQ(report.tile_level, 1);
  auto verify_or = VerifyDmStore(rp_or.value());
  ASSERT_TRUE(verify_or.ok()) << verify_or.status().ToString();
  EXPECT_TRUE(verify_or.value().ok()) << verify_or.value().ToString();
}

}  // namespace
}  // namespace dm
