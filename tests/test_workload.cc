#include "workload/dataset.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>
#include <sys/stat.h>

#include "test_util.h"
#include "workload/bench_context.h"

namespace dm {
namespace {

std::string TempDir() {
  std::string dir = "/tmp/dm_workload_test_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

DatasetSpec TinySpec() {
  DatasetSpec spec;
  spec.name = "tiny";
  spec.side = 33;
  spec.seed = 5;
  spec.crater = false;
  return spec;
}

TEST(DatasetTest, BuildThenReloadGivesIdenticalQueries) {
  const std::string dir = TempDir();
  const DatasetSpec spec = TinySpec();
  DropDatasetCache(dir, spec);

  int64_t da_built;
  Rect roi;
  double e;
  {
    auto ctx_or = BenchContext::Create(dir, spec);
    ASSERT_TRUE(ctx_or.ok()) << ctx_or.status().ToString();
    auto& ctx = ctx_or.value();
    roi = ctx.SampleRois(0.1, 1)[0];
    e = 0.1 * ctx.dataset().max_lod;
    auto stats = ctx.RunUniform(Method::kDmSingleBase, roi, e);
    ASSERT_TRUE(stats.ok());
    da_built = stats.value().disk_accesses;
    EXPECT_GT(da_built, 0);
  }
  {
    // Second open must hit the cache (no rebuild) and reproduce the
    // exact same disk-access count.
    auto ctx_or = BenchContext::Create(dir, spec);
    ASSERT_TRUE(ctx_or.ok());
    auto& ctx = ctx_or.value();
    auto stats = ctx.RunUniform(Method::kDmSingleBase, roi, e);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().disk_accesses, da_built);
  }
}

TEST(DatasetTest, AllMethodsAnswerUniformQueries) {
  const std::string dir = TempDir();
  auto ctx_or = BenchContext::Create(dir, TinySpec());
  ASSERT_TRUE(ctx_or.ok());
  auto& ctx = ctx_or.value();
  const Rect roi = ctx.SampleRois(0.15, 1)[0];
  const double e = ctx.dataset().mean_lod;
  for (Method m : {Method::kDmSingleBase, Method::kPm, Method::kHdov}) {
    auto stats = ctx.RunUniform(m, roi, e);
    ASSERT_TRUE(stats.ok()) << MethodName(m);
    EXPECT_GT(stats.value().disk_accesses, 0) << MethodName(m);
  }
}

TEST(DatasetTest, AllMethodsAnswerViewQueries) {
  const std::string dir = TempDir();
  auto ctx_or = BenchContext::Create(dir, TinySpec());
  ASSERT_TRUE(ctx_or.ok());
  auto& ctx = ctx_or.value();
  const Rect roi = ctx.SampleRois(0.2, 1)[0];
  const ViewQuery q = ViewQuery::FromAngle(roi, 0.01 * ctx.dataset().max_lod,
                                           0.5, ctx.dataset().max_lod);
  for (Method m : {Method::kDmSingleBase, Method::kDmMultiBase, Method::kPm,
                   Method::kHdov}) {
    auto stats = ctx.RunView(m, q);
    ASSERT_TRUE(stats.ok()) << MethodName(m);
    EXPECT_GT(stats.value().disk_accesses, 0) << MethodName(m);
  }
}

TEST(DatasetTest, RoisAreDeterministicAndInsideBounds) {
  const std::string dir = TempDir();
  auto ctx_or = BenchContext::Create(dir, TinySpec());
  ASSERT_TRUE(ctx_or.ok());
  auto& ctx = ctx_or.value();
  const auto a = ctx.SampleRois(0.1, 20);
  const auto b = ctx.SampleRois(0.1, 20);
  ASSERT_EQ(a.size(), 20u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lo_x, b[i].lo_x);
    EXPECT_TRUE(ctx.dataset().bounds.Contains(a[i]));
    // Approximately the requested area (clipped at the border).
    EXPECT_LE(a[i].Area(), 0.1 * ctx.dataset().bounds.Area() * 1.01);
  }
}

TEST(DatasetTest, ConnectivityStatsPersistAcrossReload) {
  const std::string dir = TempDir();
  const DatasetSpec spec = TinySpec();
  auto first_or = BuildOrLoadDataset(dir, spec);
  ASSERT_TRUE(first_or.ok());
  const double avg = first_or.value().conn_stats.avg_similar_lod;
  EXPECT_GT(avg, 0.0);
  auto second_or = BuildOrLoadDataset(dir, spec);
  ASSERT_TRUE(second_or.ok());
  EXPECT_DOUBLE_EQ(second_or.value().conn_stats.avg_similar_lod, avg);
}

// The dataset-cache manifest parses `dm.codec` with the same checks
// as a store's meta file: the retired per-record codec (1) is
// NotSupported and any other unknown value is Corruption, instead of
// opening a store on which every decode fails.
TEST(DatasetTest, ManifestRejectsRetiredAndUnknownCodecs) {
  const std::string dir = TempDir();
  DatasetSpec spec = TinySpec();
  spec.name = "tiny_codec";
  DropDatasetCache(dir, spec);
  ASSERT_TRUE(BuildOrLoadDataset(dir, spec).ok());
  const std::string manifest = dir + "/" + spec.name + ".meta";
  std::vector<std::string> lines;
  {
    std::ifstream in(manifest);
    for (std::string l; std::getline(in, l);) lines.push_back(l);
  }
  const auto with_codec = [&](int64_t codec) {
    std::ofstream out(manifest);
    for (const std::string& l : lines) {
      out << (l.rfind("dm.codec=", 0) == 0
                  ? "dm.codec=" + std::to_string(codec)
                  : l)
          << "\n";
    }
  };
  with_codec(1);
  EXPECT_EQ(BuildOrLoadDataset(dir, spec).status().code(),
            StatusCode::kNotSupported);
  for (int64_t bad : {3, -1}) {
    with_codec(bad);
    EXPECT_EQ(BuildOrLoadDataset(dir, spec).status().code(),
              StatusCode::kCorruption)
        << bad;
  }
  DropDatasetCache(dir, spec);
}

}  // namespace
}  // namespace dm
