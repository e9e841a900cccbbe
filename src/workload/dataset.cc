#include "workload/dataset.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include "dem/crater.h"
#include "dem/fractal.h"
#include "dm/meta_io.h"
#include "mesh/triangle_mesh.h"
#include "pm/pm_tree.h"
#include "simplify/simplifier.h"

namespace dm {

namespace {

// Bump whenever the on-disk layout of any store changes; cached builds
// with a different version are rebuilt. v4: wave-based simplification
// changed the collapse sequence (and thus every store) relative to the
// strict-greedy v3 builds. v5: every page carries an 8-byte CRC32C
// trailer, shrinking the logical page size and moving every record.
// v6: DM heap records stored as frame-of-reference group blocks
// (DmCodec::kGroup), re-encoding every DM page. v7: R*-tree leaf
// entries hold the segment and its parent reach, 92 to a page, which
// re-packs every DM store.
constexpr int64_t kFormatVersion = 7;

int SideFromEnv(const char* var, int fallback) {
  const char* v = std::getenv(var);
  if (v == nullptr) return fallback;
  const int s = std::atoi(v);
  return s >= 17 ? s : fallback;
}

std::string MetaPath(const std::string& dir, const DatasetSpec& spec) {
  return dir + "/" + spec.name + ".meta";
}
/// The DM store's own catalog, in the meta_io format every store uses.
std::string DmMetaPath(const std::string& dir, const DatasetSpec& spec) {
  return dir + "/" + spec.name + ".dm.meta";
}
std::string DbPath(const std::string& dir, const DatasetSpec& spec,
                   const char* method) {
  return dir + "/" + spec.name + "." + method + ".db";
}

/// Deletes cache files that no build writes or reads any more: the
/// repacked DM copy `<name>.dm.rp.db` that data directories from
/// before the repacker's removal still hold.
void RemoveRetiredFiles(const std::string& dir, const DatasetSpec& spec) {
  std::remove(DbPath(dir, spec, "dm.rp").c_str());
}

/// Tiny key=value catalog file for reopening builds.
class MetaFile {
 public:
  void Set(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    kv_[key] = buf;
  }
  void Set(const std::string& key, int64_t v) {
    kv_[key] = std::to_string(v);
  }
  void Set(const std::string& key, uint64_t v) {
    kv_[key] = std::to_string(v);
  }

  double GetDouble(const std::string& key) const {
    return std::strtod(kv_.at(key).c_str(), nullptr);
  }
  int64_t GetInt(const std::string& key) const {
    return std::strtoll(kv_.at(key).c_str(), nullptr, 10);
  }
  bool Has(const std::string& key) const { return kv_.count(key) > 0; }

  Status Save(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return Status::IOError("cannot write " + path);
    for (const auto& [k, v] : kv_) out << k << "=" << v << "\n";
    return Status::OK();
  }
  static Result<MetaFile> Load(const std::string& path) {
    std::ifstream in(path);
    if (!in) return Status::NotFound(path);
    MetaFile mf;
    std::string line;
    while (std::getline(in, line)) {
      const auto eq = line.find('=');
      if (eq == std::string::npos) continue;
      mf.kv_[line.substr(0, eq)] = line.substr(eq + 1);
    }
    return mf;
  }

 private:
  std::map<std::string, std::string> kv_;
};

constexpr double kQuantileFractions[] = {1.0,  0.75, 0.5,   0.25,
                                         0.1,  0.05, 0.02,  0.01,
                                         0.005, 0.002, 0.001};

}  // namespace

double BuiltDataset::LodForCutFraction(double frac) const {
  if (lod_quantiles.empty()) return 0.0;
  frac = std::clamp(frac, lod_quantiles.back().first,
                    lod_quantiles.front().first);
  for (size_t i = 1; i < lod_quantiles.size(); ++i) {
    const auto& [f_hi, e_lo] = lod_quantiles[i - 1];  // bigger fraction
    const auto& [f_lo, e_hi] = lod_quantiles[i];
    if (frac <= f_hi && frac >= f_lo) {
      if (f_hi == f_lo) return e_lo;
      const double t = (f_hi - frac) / (f_hi - f_lo);
      return e_lo + t * (e_hi - e_lo);
    }
  }
  return lod_quantiles.back().second;
}

DatasetSpec SmallDatasetSpec() {
  DatasetSpec spec;
  spec.name = "small";
  spec.side = SideFromEnv("DM_SMALL_SIDE", 193);
  spec.seed = 42;
  spec.crater = false;
  return spec;
}

DatasetSpec CraterDatasetSpec() {
  DatasetSpec spec;
  spec.name = "crater";
  spec.side = SideFromEnv("DM_CRATER_SIDE", 385);
  spec.seed = 4242;
  spec.crater = true;
  return spec;
}

void DropDatasetCache(const std::string& dir, const DatasetSpec& spec) {
  std::remove(MetaPath(dir, spec).c_str());
  std::remove(DmMetaPath(dir, spec).c_str());
  std::remove(DbPath(dir, spec, "dm").c_str());
  std::remove(DbPath(dir, spec, "pm").c_str());
  std::remove(DbPath(dir, spec, "hdov").c_str());
  RemoveRetiredFiles(dir, spec);
}

Result<BuiltDataset> BuildOrLoadDataset(const std::string& dir,
                                        const DatasetSpec& spec,
                                        const DbOptions& options,
                                        int build_threads) {
  BuiltDataset ds;
  ds.spec = spec;
  RemoveRetiredFiles(dir, spec);

  // Try the cache. A cache without the DM store's own catalog file
  // predates it and is rebuilt; a catalog that fails to parse fails
  // the load.
  auto meta_or = MetaFile::Load(MetaPath(dir, spec));
  auto dm_meta_or = LoadDmMeta(DmMetaPath(dir, spec));
  if (meta_or.ok() && dm_meta_or.status().code() != StatusCode::kNotFound) {
    MetaFile mf = std::move(meta_or).value();
    const bool match =
        mf.Has("format.version") &&
        mf.GetInt("format.version") == kFormatVersion &&
        mf.Has("spec.side") && mf.GetInt("spec.side") == spec.side &&
        mf.GetInt("spec.seed") == static_cast<int64_t>(spec.seed) &&
        mf.GetInt("spec.page_size") ==
            static_cast<int64_t>(options.page_size);
    if (match) {
      DM_RETURN_NOT_OK(dm_meta_or.status());
      const LoadedDmMeta& lm = dm_meta_or.value();
      const DmMeta& dmm = lm.meta;
      DbOptions open = options;
      open.truncate = false;
      DM_ASSIGN_OR_RETURN(ds.dm_env,
                          DbEnv::Open(DbPath(dir, spec, "dm"), open));
      DM_ASSIGN_OR_RETURN(ds.pm_env,
                          DbEnv::Open(DbPath(dir, spec, "pm"), open));
      DM_ASSIGN_OR_RETURN(ds.hdov_env,
                          DbEnv::Open(DbPath(dir, spec, "hdov"), open));
      DM_ASSIGN_OR_RETURN(ds.dm, DmStore::Open(ds.dm_env.get(), dmm));

      PmDbMeta pmm;
      pmm.heap_first = static_cast<PageId>(mf.GetInt("pm.heap_first"));
      pmm.quadtree_root =
          static_cast<PageId>(mf.GetInt("pm.quadtree_root"));
      pmm.quadtree_size = mf.GetInt("pm.quadtree_size");
      pmm.btree_root = static_cast<PageId>(mf.GetInt("pm.btree_root"));
      pmm.btree_size = mf.GetInt("pm.btree_size");
      pmm.pm_root = mf.GetInt("pm.pm_root");
      pmm.num_nodes = dmm.num_nodes;
      pmm.max_lod = dmm.max_lod;
      pmm.mean_lod = dmm.mean_lod;
      pmm.bounds = dmm.bounds;
      DM_ASSIGN_OR_RETURN(ds.pm, PmDbStore::Open(ds.pm_env.get(), pmm));

      HdovMeta hm;
      hm.heap_first = static_cast<PageId>(mf.GetInt("hdov.heap_first"));
      hm.root_record =
          static_cast<uint64_t>(mf.GetInt("hdov.root_record"));
      hm.num_nodes = mf.GetInt("hdov.num_nodes");
      hm.max_lod = dmm.max_lod;
      hm.bounds = dmm.bounds;
      DM_ASSIGN_OR_RETURN(ds.hdov, HdovTree::Open(ds.hdov_env.get(), hm));

      ds.max_lod = dmm.max_lod;
      ds.mean_lod = dmm.mean_lod;
      ds.bounds = dmm.bounds;
      ds.num_leaves = dmm.num_leaves;
      ds.num_nodes = dmm.num_nodes;
      ds.conn_stats.avg_similar_lod = mf.GetDouble("conn.avg_similar");
      ds.conn_stats.max_similar_lod = mf.GetInt("conn.max_similar");
      ds.conn_stats.avg_total_connections = mf.GetDouble("conn.avg_total");
      ds.conn_stats.sampled_nodes = mf.GetInt("conn.sampled");
      ds.lod_quantiles = lm.quantiles;

      // Cold caches for the first query.
      DM_RETURN_NOT_OK(ds.dm_env->FlushAll());
      DM_RETURN_NOT_OK(ds.pm_env->FlushAll());
      DM_RETURN_NOT_OK(ds.hdov_env->FlushAll());
      ds.dm_env->ResetStats();
      ds.pm_env->ResetStats();
      ds.hdov_env->ResetStats();
      return ds;
    }
  }

  // Full build.
  DemGrid dem;
  if (spec.crater) {
    CraterParams cp;
    cp.side = spec.side;
    cp.seed = spec.seed;
    dem = GenerateCraterDem(cp);
  } else {
    FractalParams fp;
    fp.side = spec.side;
    fp.seed = spec.seed;
    dem = GenerateFractalDem(fp);
  }
  const TriangleMesh base = TriangulateDem(dem);
  SimplifyOptions simplify_options;
  simplify_options.threads = build_threads;
  const SimplifyResult sr = SimplifyMesh(base, simplify_options);
  DM_ASSIGN_OR_RETURN(const PmTree tree, PmTree::Build(base, sr));

  DM_ASSIGN_OR_RETURN(ds.dm_env,
                      DbEnv::Open(DbPath(dir, spec, "dm"), options));
  DM_ASSIGN_OR_RETURN(ds.pm_env,
                      DbEnv::Open(DbPath(dir, spec, "pm"), options));
  DM_ASSIGN_OR_RETURN(ds.hdov_env,
                      DbEnv::Open(DbPath(dir, spec, "hdov"), options));
  // The connection lists feed both the DM store and the connectivity
  // stats below; build them once.
  const auto conn = BuildConnectionLists(base, tree, sr, build_threads);
  DmStoreOptions dm_options;
  // Benches and figures measure the group layout by default; the
  // compression ablation builds its own flat variant.
  dm_options.codec = DmCodec::kGroup;
  dm_options.threads = build_threads;
  dm_options.connections = &conn;
  DM_ASSIGN_OR_RETURN(
      ds.dm, DmStore::Build(ds.dm_env.get(), base, tree, sr, dm_options));
  DM_ASSIGN_OR_RETURN(ds.pm, PmDbStore::Build(ds.pm_env.get(), tree));
  DM_ASSIGN_OR_RETURN(ds.hdov, HdovTree::Build(ds.hdov_env.get(), base,
                                               tree));

  ds.max_lod = tree.max_lod();
  ds.mean_lod = tree.mean_lod();
  ds.bounds = tree.bounds();
  ds.num_leaves = tree.num_leaves();
  ds.num_nodes = tree.num_nodes();
  for (double f : kQuantileFractions) {
    ds.lod_quantiles.emplace_back(f, tree.LodForCutFraction(f));
  }
  ds.conn_stats =
      ComputeConnectivityStats(base, tree, conn, /*sample=*/512, build_threads);

  // Persist the catalog.
  MetaFile mf;
  mf.Set("format.version", kFormatVersion);
  mf.Set("spec.side", static_cast<int64_t>(spec.side));
  mf.Set("spec.seed", static_cast<int64_t>(spec.seed));
  mf.Set("spec.page_size", static_cast<int64_t>(options.page_size));
  mf.Set("pm.heap_first", static_cast<int64_t>(ds.pm->meta().heap_first));
  mf.Set("pm.quadtree_root",
         static_cast<int64_t>(ds.pm->meta().quadtree_root));
  mf.Set("pm.quadtree_size", ds.pm->meta().quadtree_size);
  mf.Set("pm.btree_root", static_cast<int64_t>(ds.pm->meta().btree_root));
  mf.Set("pm.btree_size", ds.pm->meta().btree_size);
  mf.Set("pm.pm_root", ds.pm->meta().pm_root);
  mf.Set("hdov.heap_first",
         static_cast<int64_t>(ds.hdov->meta().heap_first));
  mf.Set("hdov.root_record",
         static_cast<uint64_t>(ds.hdov->meta().root_record));
  mf.Set("hdov.num_nodes", ds.hdov->meta().num_nodes);
  mf.Set("conn.avg_similar", ds.conn_stats.avg_similar_lod);
  mf.Set("conn.max_similar", ds.conn_stats.max_similar_lod);
  mf.Set("conn.avg_total", ds.conn_stats.avg_total_connections);
  mf.Set("conn.sampled", ds.conn_stats.sampled_nodes);
  DM_RETURN_NOT_OK(
      SaveDmMeta(DmMetaPath(dir, spec), ds.dm->meta(), ds.lod_quantiles));
  DM_RETURN_NOT_OK(mf.Save(MetaPath(dir, spec)));

  DM_RETURN_NOT_OK(ds.dm_env->FlushAll());
  DM_RETURN_NOT_OK(ds.pm_env->FlushAll());
  DM_RETURN_NOT_OK(ds.hdov_env->FlushAll());
  ds.dm_env->ResetStats();
  ds.pm_env->ResetStats();
  ds.hdov_env->ResetStats();
  return ds;
}

}  // namespace dm
