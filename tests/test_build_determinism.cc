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
#include "dm/meta_io.h"
#include "index/rtree/rstar_tree.h"
#include "server/shard_set.h"
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

/// Writes the store's meta file the way `dmctl build` does (with a LOD
/// quantile ladder) and returns its bytes.
std::vector<uint8_t> MetaFileBytes(const std::string& path,
                                   const DmStore& store, const PmTree& tree) {
  std::vector<std::pair<double, double>> quantiles;
  for (double f : {1.0, 0.5, 0.1, 0.01}) {
    quantiles.emplace_back(f, tree.LodForCutFraction(f));
  }
  EXPECT_TRUE(SaveDmMeta(path, store.meta(), quantiles).ok());
  std::vector<uint8_t> bytes = FileBytes(path);
  std::remove(path.c_str());
  return bytes;
}

/// Each heap record's id and raw bytes (the whole blob on a group
/// page), in heap order.
struct HeapRecord {
  VertexId id = kInvalidVertex;
  std::vector<uint8_t> bytes;
};
std::vector<HeapRecord> HeapRecords(const DmStore& store) {
  std::vector<HeapRecord> out;
  Status decode_status;
  const Status scan_status = store.heap().Scan(
      [&](RecordId rid, const uint8_t* data, uint32_t size) {
        auto node_or = DecodeDmRecord(store.meta().codec, rid.slot, data, size);
        if (!node_or.ok()) {
          decode_status = node_or.status();
          return false;
        }
        out.push_back({node_or.value().id, {data, data + size}});
        return true;
      });
  EXPECT_TRUE(scan_status.ok()) << scan_status.ToString();
  EXPECT_TRUE(decode_status.ok()) << decode_status.ToString();
  return out;
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
  // The acceptance gate: identical .db and .meta files from threads=1
  // and threads=4 builds of the same scene (the meta file describes the
  // store only, no build timings), plus identical (clean) verify
  // reports from the on-disk state.
  const Scene scene = MakeScene(33, /*seed=*/7);
  std::vector<uint8_t> ref_bytes;
  std::vector<uint8_t> ref_meta;
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
    const std::vector<uint8_t> meta =
        MetaFileBytes(path + ".meta", store_or.value(), scene.tree);
    ASSERT_FALSE(meta.empty());
    if (threads == 1) {
      ref_bytes = bytes;
      ref_meta = meta;
      ref_report = report_or.value().ToString();
    } else {
      EXPECT_EQ(bytes, ref_bytes) << "store bytes differ at threads=4";
      EXPECT_EQ(meta, ref_meta) << "meta file differs at threads=4";
      EXPECT_EQ(report_or.value().ToString(), ref_report);
    }
    env.reset();
    std::remove(path.c_str());
  }
}

TEST(BuildDeterminismTest, GroupCodecBuildIsThreadCountInvariant) {
  // The group codec packs records into shared-header page blobs; the
  // packing is a serial pass over the parallel-materialized records, so
  // the finished file must still be byte-identical at any thread count.
  const Scene scene = MakeScene(33, /*seed=*/7);
  std::vector<uint8_t> ref_bytes;
  std::vector<uint8_t> ref_meta;
  for (int threads : {1, 4}) {
    const std::string path =
        TempDbPath("determinism_group_t" + std::to_string(threads));
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
    const std::vector<uint8_t> meta =
        MetaFileBytes(path + ".meta", store_or.value(), scene.tree);
    if (threads == 1) {
      ref_bytes = bytes;
      ref_meta = meta;
    } else {
      EXPECT_EQ(bytes, ref_bytes) << "group store bytes differ at threads=4";
      EXPECT_EQ(meta, ref_meta) << "group meta file differs at threads=4";
    }
    env.reset();
    std::remove(path.c_str());
  }
}

// ShardSet::Build writes every region with the store writer, in the
// source store's heap order. Two builds from one source (flat or
// group) write byte-identical replica .db and .meta files; every
// shard's heap holds its region's records in source heap order; and a
// flat shard's records are the source's bytes.
TEST(BuildDeterminismTest, ShardFilesAreByteIdenticalAcrossBuilds) {
  const Scene scene = MakeScene(33, /*seed=*/7);
  for (DmCodec codec : {DmCodec::kFlat, DmCodec::kGroup}) {
    SCOPED_TRACE(DmCodecName(codec));
    const std::string tag = DmCodecName(codec);
    const std::string src_path = TempDbPath("shard_src_" + tag);
    std::remove(src_path.c_str());
    auto env_or = DbEnv::Open(src_path, {});
    ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
    auto env = std::move(env_or).value();
    DmStoreOptions options;
    options.codec = codec;
    auto src_or =
        DmStore::Build(env.get(), scene.base, scene.tree, scene.sr, options);
    ASSERT_TRUE(src_or.ok()) << src_or.status().ToString();
    const std::vector<HeapRecord> source = HeapRecords(src_or.value());

    ShardSetOptions opt;
    opt.shards = 4;
    opt.replicas = 2;
    std::vector<std::vector<std::string>> paths(2);  // per build
    for (int build = 0; build < 2; ++build) {
      auto set_or = ShardSet::Build(
          src_or.value(),
          TempDbPath("shards_" + tag + "_b" + std::to_string(build)), opt);
      ASSERT_TRUE(set_or.ok()) << set_or.status().ToString();
      const ShardSet& set = *set_or.value();
      for (int s = 0; s < set.num_shards(); ++s) {
        for (const auto& rep : set.shard(s).replicas) {
          paths[static_cast<size_t>(build)].push_back(rep->path);
        }
      }
      if (build > 0) continue;
      // Shard of every id, and each shard's records in heap order.
      std::vector<int> shard_of(source.size(), -1);
      std::vector<std::vector<HeapRecord>> shard_records;
      for (int s = 0; s < set.num_shards(); ++s) {
        shard_records.push_back(HeapRecords(*set.shard(s).replicas[0]->store));
        for (const HeapRecord& r : shard_records.back()) {
          ASSERT_LT(static_cast<size_t>(r.id), shard_of.size());
          EXPECT_EQ(shard_of[static_cast<size_t>(r.id)], -1)
              << "node " << r.id << " in two shards";
          shard_of[static_cast<size_t>(r.id)] = s;
        }
      }
      for (int s = 0; s < set.num_shards(); ++s) {
        std::vector<VertexId> want;
        for (const HeapRecord& r : source) {
          if (shard_of[static_cast<size_t>(r.id)] == s) want.push_back(r.id);
        }
        std::vector<VertexId> got;
        for (const HeapRecord& r : shard_records[static_cast<size_t>(s)]) {
          got.push_back(r.id);
        }
        EXPECT_EQ(got, want) << "shard " << s << " is not in source order";
      }
      EXPECT_EQ(std::count(shard_of.begin(), shard_of.end(), -1), 0);
      if (codec == DmCodec::kFlat) {
        std::vector<const std::vector<uint8_t>*> by_id(source.size());
        for (const HeapRecord& r : source) {
          by_id[static_cast<size_t>(r.id)] = &r.bytes;
        }
        for (const auto& records : shard_records) {
          for (const HeapRecord& r : records) {
            EXPECT_EQ(r.bytes, *by_id[static_cast<size_t>(r.id)])
                << "node " << r.id;
          }
        }
      }
    }
    ASSERT_EQ(paths[0].size(), 8u);
    ASSERT_EQ(paths[1].size(), 8u);
    for (size_t i = 0; i < paths[0].size(); ++i) {
      for (const char* ext : {".db", ".meta"}) {
        const std::vector<uint8_t> a = FileBytes(paths[0][i] + ext);
        EXPECT_FALSE(a.empty()) << paths[0][i] << ext;
        EXPECT_EQ(a, FileBytes(paths[1][i] + ext)) << paths[1][i] << ext;
      }
    }
    for (const auto& build_paths : paths) {
      for (const std::string& p : build_paths) {
        std::remove((p + ".db").c_str());
        std::remove((p + ".meta").c_str());
      }
    }
    std::remove(src_path.c_str());
  }
}

TEST(BuildDeterminismTest, DatasetBuildIsThreadCountInvariant) {
  // Full BuildOrLoadDataset (all three method databases + cache
  // manifest) built at 1 and 4 threads into separate directories must
  // produce byte-identical database files and DM catalogs.
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
  EXPECT_EQ(FileBytes(dir1 + "/det.dm.meta"), FileBytes(dir4 + "/det.dm.meta"));
  for (const auto& dir : {dir1, dir4}) {
    std::string cmd = "rm -rf '" + dir + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }
}

}  // namespace
}  // namespace dm
