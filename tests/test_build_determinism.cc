// End-to-end determinism of the parallel ingest pipeline: every stage
// (quadric simplification, connection lists, STR packing, record
// encoding, heap append) must produce bit-identical output at any
// thread count. The strongest check is byte-equality of the finished
// database files; the stage-level checks below localize a failure.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "dm/connectivity.h"
#include "dm/dm_store.h"
#include "dm/invariants.h"
#include "index/rtree/rstar_tree.h"
#include "test_util.h"
#include "workload/dataset.h"

namespace dm {
namespace {

using testing::MakeScene;
using testing::Scene;
using testing::TempDbPath;

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

TEST(BuildDeterminismTest, SimplifyIsThreadCountInvariant) {
  const DemGrid dem = GenerateFractalDem({.side = 49, .seed = 11});
  const TriangleMesh base = TriangulateDem(dem);
  SimplifyOptions so1;
  so1.threads = 1;
  const SimplifyResult a = SimplifyMesh(base, so1);
  for (int threads : {2, 4}) {
    SimplifyOptions so;
    so.threads = threads;
    const SimplifyResult b = SimplifyMesh(base, so);
    ASSERT_EQ(a.steps.size(), b.steps.size()) << "threads=" << threads;
    for (size_t i = 0; i < a.steps.size(); ++i) {
      const CollapseStep& x = a.steps[i];
      const CollapseStep& y = b.steps[i];
      ASSERT_EQ(x.record.parent, y.record.parent) << "step " << i;
      ASSERT_EQ(x.record.child1, y.record.child1) << "step " << i;
      ASSERT_EQ(x.record.child2, y.record.child2) << "step " << i;
      // Bit-equality, not near-equality: the parallel evaluation must
      // reproduce the sequential floating-point result exactly.
      ASSERT_EQ(x.error, y.error) << "step " << i;
      ASSERT_EQ(x.parent_pos.x, y.parent_pos.x) << "step " << i;
      ASSERT_EQ(x.parent_pos.y, y.parent_pos.y) << "step " << i;
      ASSERT_EQ(x.parent_pos.z, y.parent_pos.z) << "step " << i;
    }
    ASSERT_EQ(a.roots, b.roots);
    ASSERT_EQ(a.forced_collapses, b.forced_collapses);
  }
}

TEST(BuildDeterminismTest, ConnectionListsMatchContractionReference) {
  // The parallel chain-merge builder must agree entry-for-entry with
  // the simple contraction-replay reference implementation.
  const Scene scene = MakeScene(33, /*seed=*/7);
  const auto reference =
      BuildConnectionListsContraction(scene.base, scene.tree, scene.sr);
  for (int threads : {1, 2, 4}) {
    const auto parallel =
        BuildConnectionLists(scene.base, scene.tree, scene.sr, threads);
    ASSERT_EQ(parallel.size(), reference.size()) << "threads=" << threads;
    for (size_t v = 0; v < reference.size(); ++v) {
      ASSERT_EQ(parallel[v], reference[v])
          << "node " << v << " threads=" << threads;
    }
  }
}

TEST(BuildDeterminismTest, StrOrderMatchesSerialAtAnyThreadCount) {
  const Scene scene = MakeScene(33, /*seed=*/3);
  std::vector<Box> boxes;
  boxes.reserve(static_cast<size_t>(scene.tree.num_nodes()));
  for (const PmNode& n : scene.tree.nodes()) {
    boxes.push_back(Box::Of(n.pos.x, n.pos.y, n.e_low, n.pos.x, n.pos.y,
                            n.e_high));
  }
  const std::vector<size_t> serial = RStarTree::StrOrder(boxes, 64);
  for (int threads : {2, 4}) {
    WorkerPool pool(threads);
    EXPECT_EQ(RStarTree::StrOrder(boxes, 64, pool), serial)
        << "threads=" << threads;
  }
}

TEST(BuildDeterminismTest, StoreFilesAreByteIdenticalAcrossThreadCounts) {
  // The acceptance gate: identical .db files from threads=1 and
  // threads=4 builds of the same scene, plus identical (clean) verify
  // reports from the on-disk state.
  const Scene scene = MakeScene(33, /*seed=*/7);
  std::vector<uint8_t> ref_bytes;
  std::string ref_report;
  for (int threads : {1, 4}) {
    const std::string path =
        TempDbPath("determinism_t" + std::to_string(threads));
    std::remove(path.c_str());
    auto env_or = DbEnv::Open(path, {});
    ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
    auto env = std::move(env_or).value();
    DmStoreOptions options;
    options.threads = threads;
    auto store_or =
        DmStore::Build(env.get(), scene.base, scene.tree, scene.sr, options);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();

    auto report_or = VerifyDmStore(store_or.value());
    ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
    EXPECT_TRUE(report_or.value().ok()) << report_or.value().ToString();

    ASSERT_TRUE(env->FlushAll().ok());
    const std::vector<uint8_t> bytes = FileBytes(path);
    ASSERT_FALSE(bytes.empty());
    if (threads == 1) {
      ref_bytes = bytes;
      ref_report = report_or.value().ToString();
    } else {
      EXPECT_EQ(bytes, ref_bytes) << "store bytes differ at threads=4";
      EXPECT_EQ(report_or.value().ToString(), ref_report);
    }
    env.reset();
    std::remove(path.c_str());
  }
}

TEST(BuildDeterminismTest, GroupCodecBuildIsThreadCountInvariant) {
  // The v6 group codec packs records into shared-header page blobs; the
  // packing is a serial pass over the parallel-materialized records, so
  // the finished file must still be byte-identical at any thread count.
  const Scene scene = MakeScene(33, /*seed=*/7);
  std::vector<uint8_t> ref_bytes;
  for (int threads : {1, 4}) {
    const std::string path =
        TempDbPath("determinism_v6_t" + std::to_string(threads));
    std::remove(path.c_str());
    auto env_or = DbEnv::Open(path, {});
    ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
    auto env = std::move(env_or).value();
    DmStoreOptions options;
    options.threads = threads;
    options.codec = DmCodec::kGroup;
    auto store_or =
        DmStore::Build(env.get(), scene.base, scene.tree, scene.sr, options);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();

    auto report_or = VerifyDmStore(store_or.value());
    ASSERT_TRUE(report_or.ok()) << report_or.status().ToString();
    EXPECT_TRUE(report_or.value().ok()) << report_or.value().ToString();

    ASSERT_TRUE(env->FlushAll().ok());
    const std::vector<uint8_t> bytes = FileBytes(path);
    ASSERT_FALSE(bytes.empty());
    if (threads == 1) {
      ref_bytes = bytes;
    } else {
      EXPECT_EQ(bytes, ref_bytes) << "v6 store bytes differ at threads=4";
    }
    env.reset();
    std::remove(path.c_str());
  }
}

TEST(BuildDeterminismTest, DatasetBuildIsThreadCountInvariant) {
  // Full BuildOrLoadDataset (all three method databases + cache
  // manifest) built at 1 and 4 threads into separate directories must
  // produce byte-identical database files.
  DatasetSpec spec;
  spec.name = "det";
  spec.side = 33;
  spec.seed = 7;
  const char* tmp = std::getenv("TMPDIR");
  const std::string base_dir = std::string(tmp != nullptr ? tmp : "/tmp") +
                               "/dm_det_" + std::to_string(::getpid());
  const std::string dir1 = base_dir + "_t1";
  const std::string dir4 = base_dir + "_t4";
  for (const auto& dir : {dir1, dir4}) {
    std::string cmd = "rm -rf '" + dir + "' && mkdir -p '" + dir + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
  {
    // Scoped so the environments close (flushing everything) before
    // the files are compared.
    auto built1_or = BuildOrLoadDataset(dir1, spec, {}, /*build_threads=*/1);
    ASSERT_TRUE(built1_or.ok()) << built1_or.status().ToString();
    auto built4_or = BuildOrLoadDataset(dir4, spec, {}, /*build_threads=*/4);
    ASSERT_TRUE(built4_or.ok()) << built4_or.status().ToString();
  }
  for (const char* method : {"dm", "pm", "hdov"}) {
    const std::string f1 = dir1 + "/det." + method + ".db";
    const std::string f4 = dir4 + "/det." + method + ".db";
    EXPECT_EQ(FileBytes(f1), FileBytes(f4)) << method;
  }
  for (const auto& dir : {dir1, dir4}) {
    std::string cmd = "rm -rf '" + dir + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
}

}  // namespace
}  // namespace dm
