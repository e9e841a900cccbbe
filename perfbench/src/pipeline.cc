#include "pipeline.h"

#include <chrono>
#include <cstdio>

#include "common/check.h"
#include "dm/connectivity.h"
#include "dm/meta_io.h"
#include "mesh/triangle_mesh.h"
#include "simplify/simplifier.h"
#include "storage/db_env.h"
#include "trace.h"

namespace perfbench {
namespace {

// The ladder `dmctl build` stores in the meta file.
constexpr double kCatalogFractions[] = {1.0,  0.75, 0.5,  0.25, 0.1,
                                        0.05, 0.02, 0.01, 0.005};

std::vector<std::pair<double, double>> CutFractionCatalog(
    const dm::PmTree& tree) {
  std::vector<std::pair<double, double>> catalog;
  for (double f : kCatalogFractions) {
    catalog.emplace_back(f, tree.LodForCutFraction(f));
  }
  return catalog;
}

// Times one stage into `*ms` and, when tracing is on, records it as a
// span under the enclosing build span.
class Stage {
 public:
  Stage(const char* name, double* ms)
      : ms_(ms), span_(name), start_(Clock::now()) {}
  ~Stage() {
    *ms_ = std::chrono::duration<double, std::milli>(Clock::now() - start_)
               .count();
  }
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

 private:
  double* ms_;
  ScopedSpan span_;
  Clock::time_point start_;
};

}  // namespace

double CatalogLod(const std::vector<std::pair<double, double>>& catalog,
                  double fraction) {
  for (const auto& [f, e] : catalog) {
    if (f == fraction) return e;
  }
  DM_CHECK(false) << "cut fraction " << fraction << " is not in the catalog";
  return 0.0;
}

dm::Result<BuiltStore> BuildStore(
    const std::function<dm::Result<dm::DemGrid>()>& make_dem,
    const std::string& base, int threads) {
  const auto start = Clock::now();
  ScopedSpan build_span("build");
  BuiltStore out;
  out.db_path = base + ".db";
  out.meta_path = base + ".meta";
  BuildStages& st = out.stages;

  dm::DemGrid dem;
  {
    Stage s("dem", &st.dem_ms);
    DM_ASSIGN_OR_RETURN(dem, make_dem());
  }
  out.points = dem.num_points();
  dm::TriangleMesh mesh;
  {
    Stage s("triangulate", &st.triangulate_ms);
    mesh = dm::TriangulateDem(dem);
  }
  dm::SimplifyResult sr;
  {
    Stage s("simplify", &st.simplify_ms);
    dm::SimplifyOptions options;
    options.threads = threads;
    sr = dm::SimplifyMesh(mesh, options);
  }
  {
    Stage s("pm", &st.pm_ms);
    DM_ASSIGN_OR_RETURN(out.tree, dm::PmTree::Build(mesh, sr));
  }
  std::vector<std::vector<dm::VertexId>> connections;
  {
    Stage s("connectivity", &st.connectivity_ms);
    connections = dm::BuildConnectionLists(mesh, out.tree, sr, threads);
  }
  int64_t links = 0;
  for (const auto& list : connections) {
    links += static_cast<int64_t>(list.size());
  }
  st.mean_list_len = connections.empty()
                         ? 0.0
                         : static_cast<double>(links) /
                               static_cast<double>(connections.size());
  {
    Stage s("dm_store.build", &st.store_ms);
    dm::DbOptions db_options;
    db_options.async_backend = kAsyncBackend;
    DM_ASSIGN_OR_RETURN(auto env, dm::DbEnv::Open(out.db_path, db_options));
    dm::DmStoreOptions options;
    options.codec = dm::DmCodec::kGroup;
    options.threads = threads;
    options.connections = &connections;
    DM_ASSIGN_OR_RETURN(const dm::DmStore store,
                        dm::DmStore::Build(env.get(), mesh, out.tree, sr,
                                           options));
    DM_RETURN_NOT_OK(env->FlushAll());
    out.meta = store.meta();
    out.catalog = CutFractionCatalog(out.tree);
    DM_RETURN_NOT_OK(dm::SaveDmMeta(out.meta_path, out.meta, out.catalog));
    st.pages_written = env->stats().disk_writes;
  }
  st.total_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

dm::Status WriteEsriAsciiGrid(const dm::DemGrid& grid,
                              const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return dm::Status::IOError("cannot write " + path);
  std::fprintf(f,
               "ncols %d\nnrows %d\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
               "NODATA_value -9999\n",
               grid.width(), grid.height());
  // Esri rows run north to south.
  for (int y = grid.height() - 1; y >= 0; --y) {
    for (int x = 0; x < grid.width(); ++x) {
      std::fprintf(f, x == 0 ? "%.17g" : " %.17g", grid.at(x, y));
    }
    std::fputc('\n', f);
  }
  if (std::fclose(f) != 0) return dm::Status::IOError("cannot close " + path);
  return dm::Status::OK();
}

}  // namespace perfbench
