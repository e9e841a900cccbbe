#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "dm/dm_query.h"
#include "dm/dm_store.h"
#include "mesh/adjacency.h"
#include "mesh/delaunay.h"
#include "mesh/extract.h"
#include "mesh/obj_io.h"
#include "mesh/render.h"
#include "mesh/triangle_mesh.h"
#include "mesh/validate.h"
#include "test_util.h"

namespace dm {
namespace {

TEST(TriangulateDemTest, CountsMatchGrid) {
  DemGrid g(5, 4);
  const TriangleMesh mesh = TriangulateDem(g);
  EXPECT_EQ(mesh.num_vertices(), 20);
  EXPECT_EQ(mesh.num_triangles(), 2 * 4 * 3);
}

TEST(TriangulateDemTest, TrianglesAreCcwAndValid) {
  const DemGrid g = GenerateFractalDem({.side = 17, .seed = 2});
  const TriangleMesh mesh = TriangulateDem(g);
  for (const Triangle& t : mesh.triangles()) {
    const Point3& a = mesh.vertex(t[0]);
    const Point3& b = mesh.vertex(t[1]);
    const Point3& c = mesh.vertex(t[2]);
    const double cross =
        (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
    EXPECT_GT(cross, 0.0);
  }
}

TEST(TriangulateDemTest, IsATriangulatedDisk) {
  const DemGrid g = GenerateFractalDem({.side = 9, .seed = 2});
  const TriangleMesh mesh = TriangulateDem(g);
  std::vector<VertexId> ids(static_cast<size_t>(mesh.num_vertices()));
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<VertexId>(i);
  const MeshStats stats =
      ComputeMeshStats(ids, mesh.vertices(), mesh.triangles());
  EXPECT_TRUE(stats.IsManifold()) << stats.ToString();
  // Euler characteristic of a disk (triangles only): V - E + F = 1.
  EXPECT_EQ(stats.euler_characteristic, 1);
}

TEST(AdjacencyMeshTest, BuildsSymmetricAdjacency) {
  DemGrid g(3, 3);
  const TriangleMesh mesh = TriangulateDem(g);
  AdjacencyMesh adj(mesh);
  EXPECT_EQ(adj.num_alive(), 9);
  for (VertexId u = 0; u < 9; ++u) {
    for (VertexId v : adj.neighbors(u)) {
      EXPECT_TRUE(adj.HasEdge(v, u));
    }
  }
  // Grid corner has 2 or 3 neighbours depending on the diagonal.
  EXPECT_GE(adj.neighbors(0).size(), 2u);
}

TEST(AdjacencyMeshTest, CollapseRewiresNeighbourhood) {
  DemGrid g(3, 3);
  const TriangleMesh mesh = TriangulateDem(g);
  AdjacencyMesh adj(mesh);
  const VertexId u = 4;  // center
  const VertexId v = adj.neighbors(u)[0];
  ASSERT_TRUE(adj.CanCollapse(u, v));
  const auto commons = adj.CommonNeighbors(u, v);
  const CollapseRecord rec = adj.Collapse(u, v, Point3{1, 1, 0});
  EXPECT_EQ(rec.child1, u);
  EXPECT_EQ(rec.child2, v);
  EXPECT_FALSE(adj.IsAlive(u));
  EXPECT_FALSE(adj.IsAlive(v));
  EXPECT_TRUE(adj.IsAlive(rec.parent));
  EXPECT_EQ(adj.num_alive(), 8);
  // Wings recorded from the common neighbours.
  if (!commons.empty()) {
    EXPECT_EQ(rec.wing1, commons[0]);
  }
  // Parent adopted the union neighbourhood.
  for (VertexId n : adj.neighbors(rec.parent)) {
    EXPECT_TRUE(adj.IsAlive(n));
    EXPECT_TRUE(adj.HasEdge(n, rec.parent));
  }
}

TEST(AdjacencyMeshTest, CanCollapseRespectsLinkCondition) {
  // Build K4: every pair shares the other two vertices, commons == 2,
  // still collapsible; then a configuration with 3 commons is not.
  std::vector<Point3> pts{{0, 0, 0}, {2, 0, 0}, {1, 2, 0}, {1, 0.7, 0},
                          {1, -1, 0}};
  AdjacencyMesh adj(std::move(pts));
  // Triangle 0-1-2 with 3 inside connected to all, plus 4 below edge
  // 0-1 connected to 0 and 1.
  adj.AddEdge(0, 1);
  adj.AddEdge(1, 2);
  adj.AddEdge(2, 0);
  adj.AddEdge(3, 0);
  adj.AddEdge(3, 1);
  adj.AddEdge(3, 2);
  adj.AddEdge(4, 0);
  adj.AddEdge(4, 1);
  // Edge (0,1) now has commons {2, 3, 4}: blocked.
  EXPECT_EQ(adj.CommonNeighbors(0, 1).size(), 3u);
  EXPECT_FALSE(adj.CanCollapse(0, 1));
  // Edge (0,2) has commons {1, 3}: allowed.
  EXPECT_TRUE(adj.CanCollapse(0, 2));
  // ContractUnchecked works regardless.
  const CollapseRecord rec = adj.ContractUnchecked(0, 1, Point3{1, 0, 0});
  EXPECT_TRUE(adj.IsAlive(rec.parent));
  EXPECT_EQ(adj.CommonNeighbors(rec.parent, 2).size(), 1u);
}

// A graph given by global ids: ascending ids, positions and id-sorted
// neighbour lists parallel to them. The lists may name ids outside
// the graph; both extractors below see only the neighbours inside it.
struct IdGraph {
  std::vector<VertexId> ids;
  std::vector<Point3> positions;
  std::vector<std::vector<VertexId>> lists;
};

IdGraph FromAdjacency(const AdjacencyMesh& adj) {
  IdGraph g;
  g.ids = adj.AliveVertices();
  for (VertexId v : g.ids) {
    g.positions.push_back(adj.position(v));
    g.lists.push_back(adj.neighbors(v));
  }
  return g;
}

// The extractor as it was before the dense local graph: callbacks by
// global id, and an atan2 pair per comparison inside the ring sort.
// Kept as the reference for the triangles and their order.
std::vector<Triangle> ReferenceExtract(const IdGraph& g) {
  std::unordered_map<VertexId, size_t> index;
  for (size_t i = 0; i < g.ids.size(); ++i) index[g.ids[i]] = i;
  std::vector<std::vector<VertexId>> adj(g.ids.size());
  for (size_t i = 0; i < g.ids.size(); ++i) {
    for (VertexId c : g.lists[i]) {
      if (index.count(c)) adj[i].push_back(c);
    }
  }
  const std::function<Point3(VertexId)> position = [&](VertexId v) {
    return g.positions[index.at(v)];
  };
  const std::function<const std::vector<VertexId>&(VertexId)> neighbors =
      [&](VertexId v) -> const std::vector<VertexId>& {
    return adj[index.at(v)];
  };
  std::vector<Triangle> out;
  std::vector<VertexId> ring;
  for (VertexId u : g.ids) {
    const auto& nbrs = neighbors(u);
    if (nbrs.size() < 2) continue;
    const Point3 pu = position(u);
    ring.assign(nbrs.begin(), nbrs.end());
    std::sort(ring.begin(), ring.end(), [&](VertexId a, VertexId b) {
      const Point3 pa = position(a);
      const Point3 pb = position(b);
      return std::atan2(pa.y - pu.y, pa.x - pu.x) <
             std::atan2(pb.y - pu.y, pb.x - pu.x);
    });
    const size_t k = ring.size();
    for (size_t i = 0; i < k; ++i) {
      const VertexId a = ring[i];
      const VertexId b = ring[(i + 1) % k];
      if (a == b || a < u || b < u) continue;
      const auto& na = neighbors(a);
      if (!std::binary_search(na.begin(), na.end(), b)) continue;
      const Point3 pa = position(a);
      const Point3 pb = position(b);
      const double cross = (pa.x - pu.x) * (pb.y - pu.y) -
                           (pa.y - pu.y) * (pb.x - pu.x);
      if (cross <= 0) continue;
      out.push_back(Triangle{{u, a, b}});
    }
  }
  return out;
}

// ExtractTriangles over the CSR graph of `g`, built in `arena` (the
// heap when null).
std::vector<Triangle> Extract(const IdGraph& g, Arena* arena = nullptr) {
  const std::vector<std::span<const VertexId>> lists(g.lists.begin(),
                                                     g.lists.end());
  const LocalAdjacency adj = BuildLocalAdjacency(g.ids, lists, arena);
  return ExtractTriangles(
      LocalGraph{g.ids, g.positions, adj.offsets, adj.neighbors});
}

std::vector<std::array<VertexId, 3>> Corners(const std::vector<Triangle>& t) {
  std::vector<std::array<VertexId, 3>> out;
  out.reserve(t.size());
  for (const Triangle& tri : t) out.push_back(tri.v);
  return out;
}

// The extractor must return the reference's triangles in the
// reference's order, corner for corner.
void ExpectMatchesReference(const IdGraph& g, const std::string& what) {
  const std::vector<Triangle> ref = ReferenceExtract(g);
  EXPECT_FALSE(ref.empty()) << what;
  EXPECT_EQ(Corners(Extract(g)), Corners(ref)) << what;
}

TEST(ExtractTrianglesTest, RecoversGridFaces) {
  const DemGrid g = GenerateFractalDem({.side = 7, .seed = 9});
  const TriangleMesh mesh = TriangulateDem(g);
  const auto tris = Extract(FromAdjacency(AdjacencyMesh(mesh)));
  EXPECT_EQ(static_cast<int64_t>(tris.size()), mesh.num_triangles());

  std::set<std::array<VertexId, 3>> expected;
  for (Triangle t : mesh.triangles()) {
    std::sort(t.v.begin(), t.v.end());
    expected.insert(t.v);
  }
  for (Triangle t : tris) {
    std::sort(t.v.begin(), t.v.end());
    EXPECT_TRUE(expected.count(t.v));
  }
}

TEST(ExtractTrianglesTest, InteriorPointSuppressesOuterTriangle) {
  // u=0 smallest id; w=1 sits inside triangle (0, 2, 3) and connects
  // to all corners: the big triangle must NOT be reported.
  std::vector<Point3> pts{{0, 0, 0}, {1, 0.5, 0}, {3, 0, 0}, {1.5, 3, 0}};
  AdjacencyMesh adj(std::move(pts));
  adj.AddEdge(0, 2);
  adj.AddEdge(2, 3);
  adj.AddEdge(3, 0);
  adj.AddEdge(1, 0);
  adj.AddEdge(1, 2);
  adj.AddEdge(1, 3);
  const auto tris = Extract(FromAdjacency(adj));
  EXPECT_EQ(tris.size(), 3u);
  for (Triangle t : tris) {
    std::sort(t.v.begin(), t.v.end());
    EXPECT_EQ(t.v[0] == 0 && t.v[1] == 2 && t.v[2] == 3, false)
        << "outer triangle wrongly reported";
  }
}

TEST(ExtractTrianglesTest, LocalIdsFollowTheGivenIdsAndDropOutsiders) {
  // Sparse global ids; vertex 40's list names 99, which is not in the
  // graph and must not appear in the CSR.
  const std::vector<VertexId> ids{7, 40, 1000};
  const std::vector<std::vector<VertexId>> lists{{40, 1000}, {7, 99, 1000},
                                                 {7, 40}};
  const std::vector<std::span<const VertexId>> spans(lists.begin(),
                                                     lists.end());
  Arena arena;
  const LocalAdjacency adj = BuildLocalAdjacency(ids, spans, &arena);
  EXPECT_EQ(std::vector<uint32_t>(adj.offsets.begin(), adj.offsets.end()),
            (std::vector<uint32_t>{0, 2, 4, 6}));
  EXPECT_EQ(
      std::vector<uint32_t>(adj.neighbors.begin(), adj.neighbors.end()),
      (std::vector<uint32_t>{1, 2, 0, 2, 0, 1}));
  EXPECT_GT(arena.bytes_used(), 0u);
  const std::vector<Point3> pos{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  const auto tris = ExtractTriangles(
      LocalGraph{ids, pos, adj.offsets, adj.neighbors});
  ASSERT_EQ(tris.size(), 1u);
  EXPECT_EQ(tris[0].v, (std::array<VertexId, 3>{7, 40, 1000}));
}

TEST(ExtractTrianglesTest, MatchesReferenceOnFractalGrids) {
  for (int side : {5, 9, 17, 33}) {
    for (uint64_t seed : {1u, 9u, 23u}) {
      const DemGrid g = GenerateFractalDem({.side = side, .seed = seed});
      ExpectMatchesReference(FromAdjacency(AdjacencyMesh(TriangulateDem(g))),
                             "fractal side " + std::to_string(side) +
                                 " seed " + std::to_string(seed));
    }
  }
}

TEST(ExtractTrianglesTest, MatchesReferenceAfterRandomCollapses) {
  for (uint64_t seed : {3u, 17u, 101u}) {
    const DemGrid g = GenerateFractalDem({.side = 17, .seed = seed});
    AdjacencyMesh adj(TriangulateDem(g));
    Rng rng(seed);
    int collapsed = 0;
    for (int attempt = 0; attempt < 2000 && collapsed < 120; ++attempt) {
      const std::vector<VertexId> alive = adj.AliveVertices();
      const VertexId u = alive[rng.NextBelow(alive.size())];
      const std::vector<VertexId>& nbrs = adj.neighbors(u);
      if (nbrs.empty()) continue;
      const VertexId v = nbrs[rng.NextBelow(nbrs.size())];
      if (!adj.CanCollapse(u, v)) continue;
      const Point3 a = adj.position(u);
      const Point3 b = adj.position(v);
      adj.Collapse(u, v,
                   Point3{(a.x + b.x) / 2, (a.y + b.y) / 2, (a.z + b.z) / 2});
      ++collapsed;
      if (collapsed % 40 == 0) {
        ExpectMatchesReference(FromAdjacency(adj),
                               "seed " + std::to_string(seed) + " after " +
                                   std::to_string(collapsed) + " collapses");
      }
    }
    EXPECT_EQ(collapsed, 120) << "seed " << seed;
  }
}

// The cut graphs the query pipeline triangulates: every query kind
// over a built crater store must give the reference's triangle
// sequence, both from the test's own CSR and in the query result.
class CutGraphExtractTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scene_ = new testing::Scene(testing::MakeScene(65, 7, /*crater=*/true));
    env_ = testing::OpenTempEnv("mesh_cut").release();
    auto store_or =
        DmStore::Build(env_, scene_->base, scene_->tree, scene_->sr);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    store_ = new DmStore(std::move(store_or).value());
    nodes_ = new std::unordered_map<VertexId, DmNode>();
    const DmCodec codec = store_->meta().codec;
    ASSERT_TRUE(store_->heap()
                    .Scan([&](RecordId rid, const uint8_t* data,
                              uint32_t size) {
                      auto node_or =
                          DecodeDmRecord(codec, rid.slot, data, size);
                      EXPECT_TRUE(node_or.ok());
                      if (!node_or.ok()) return false;
                      DmNode node = std::move(node_or).value();
                      const VertexId id = node.id;
                      nodes_->emplace(id, std::move(node));
                      return true;
                    })
                    .ok());
  }
  static void TearDownTestSuite() {
    delete nodes_;
    delete store_;
    delete env_;
    delete scene_;
  }

  static Rect Roi(double x0, double y0, double x1, double y1) {
    const Rect b = scene_->tree.bounds();
    return Rect::Of(b.lo_x + x0 * b.width(), b.lo_y + y0 * b.height(),
                    b.lo_x + x1 * b.width(), b.lo_y + y1 * b.height());
  }

  static void Check(const Result<DmQueryResult>& result_or,
                    const std::string& what) {
    ASSERT_TRUE(result_or.ok()) << what << ": "
                                << result_or.status().ToString();
    const DmQueryResult& r = result_or.value();
    IdGraph g;
    g.ids = r.vertices;
    for (VertexId v : g.ids) {
      const DmNode& n = nodes_->at(v);
      g.positions.push_back(n.pos);
      g.lists.push_back(n.connections);
    }
    EXPECT_EQ(g.positions, r.positions) << what;
    ExpectMatchesReference(g, what);
    EXPECT_EQ(Corners(r.triangles), Corners(ReferenceExtract(g))) << what;
  }

  static testing::Scene* scene_;
  static DbEnv* env_;
  static DmStore* store_;
  static std::unordered_map<VertexId, DmNode>* nodes_;
};
testing::Scene* CutGraphExtractTest::scene_ = nullptr;
DbEnv* CutGraphExtractTest::env_ = nullptr;
DmStore* CutGraphExtractTest::store_ = nullptr;
std::unordered_map<VertexId, DmNode>* CutGraphExtractTest::nodes_ = nullptr;

TEST_F(CutGraphExtractTest, UniformCutsMatchReference) {
  DmQueryProcessor proc(store_);
  const double lod = scene_->tree.max_lod();
  for (double frac : {0.0, 0.005, 0.02, 0.1}) {
    for (const Rect& roi : {Roi(0, 0, 1, 1), Roi(0.2, 0.3, 0.7, 0.9)}) {
      Check(proc.ViewpointIndependent(roi, frac * lod),
            "uniform lod fraction " + std::to_string(frac));
    }
  }
}

TEST_F(CutGraphExtractTest, ViewDependentCutsMatchReference) {
  DmQueryProcessor proc(store_);
  const double lod = scene_->tree.max_lod();
  for (bool along_y : {true, false}) {
    ViewQuery q;
    q.roi = Roi(0.1, 0.1, 0.9, 0.9);
    q.e_min = 0.0;
    q.e_max = 0.3 * lod;
    q.gradient_along_y = along_y;
    const std::string axis = along_y ? " along y" : " along x";
    Check(proc.SingleBase(q), "single-base" + axis);
    Check(proc.MultiBase(q), "multi-base" + axis);
  }
  PerspectiveQuery p;
  p.roi = Roi(0.1, 0.1, 0.9, 0.9);
  p.viewer = Point2{p.roi.lo_x, p.roi.lo_y};
  p.tolerance = 0.3 * lod / std::max(p.roi.width(), p.roi.height());
  p.e_floor = 0.0;
  p.e_cap = lod;
  Check(proc.Perspective(p), "perspective");
}

TEST(MeshStatsTest, FlagsNonManifoldAndDuplicates) {
  std::vector<VertexId> ids{0, 1, 2, 3};
  std::vector<Point3> pos{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 5}};
  std::vector<Triangle> tris{Triangle{{0, 1, 2}}, Triangle{{0, 1, 2}},
                             Triangle{{0, 1, 3}}, Triangle{{2, 1, 3}}};
  const MeshStats stats = ComputeMeshStats(ids, pos, tris);
  EXPECT_EQ(stats.duplicate_triangles, 1);
  EXPECT_GT(stats.nonmanifold_edges, 0);
  EXPECT_FALSE(stats.IsManifold());
}

TEST(ObjIoTest, WritesValidObj) {
  const DemGrid g = GenerateFractalDem({.side = 5, .seed = 1});
  const TriangleMesh mesh = TriangulateDem(g);
  const std::string path = dm::testing::TempDbPath("obj");
  ASSERT_TRUE(WriteObj(mesh, path).ok());
  // Count v/f lines.
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[256];
  int64_t vs = 0;
  int64_t fs = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (line[0] == 'v') ++vs;
    if (line[0] == 'f') ++fs;
  }
  std::fclose(f);
  EXPECT_EQ(vs, mesh.num_vertices());
  EXPECT_EQ(fs, mesh.num_triangles());
  std::remove(path.c_str());
}

TEST(ObjIoTest, RejectsUnknownVertexReference) {
  std::vector<VertexId> ids{10, 20};
  std::vector<Point3> pos{{0, 0, 0}, {1, 0, 0}};
  std::vector<Triangle> tris{Triangle{{10, 20, 99}}};
  const std::string path = dm::testing::TempDbPath("obj_bad");
  EXPECT_FALSE(WriteObj(ids, pos, tris, path).ok());
  std::remove(path.c_str());
}


TEST(DelaunayTest, TriangulatesASquare) {
  std::vector<Point3> pts{{0, 0, 1}, {1, 0, 2}, {1, 1, 3}, {0, 1, 4}};
  auto mesh_or = DelaunayTriangulate(pts);
  ASSERT_TRUE(mesh_or.ok()) << mesh_or.status().ToString();
  const TriangleMesh& mesh = mesh_or.value();
  EXPECT_EQ(mesh.num_vertices(), 4);
  EXPECT_EQ(mesh.num_triangles(), 2);
  // z carried through untouched.
  EXPECT_EQ(mesh.vertex(2).z, 3.0);
}

TEST(DelaunayTest, RejectsDegenerateInput) {
  EXPECT_FALSE(DelaunayTriangulate({{0, 0, 0}, {1, 1, 0}}).ok());
  EXPECT_FALSE(
      DelaunayTriangulate({{0, 0, 0}, {1, 1, 0}, {0, 0, 5}, {2, 2, 0}})
          .ok());  // duplicate footprint
}

TEST(DelaunayTest, OutputIsDelaunayAndManifold) {
  Rng rng(77);
  std::vector<Point3> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back(Point3{rng.Uniform(0, 100), rng.Uniform(0, 100),
                         rng.Uniform(0, 50)});
  }
  auto mesh_or = DelaunayTriangulate(pts);
  ASSERT_TRUE(mesh_or.ok());
  const TriangleMesh& mesh = mesh_or.value();
  EXPECT_EQ(mesh.num_vertices(), 300);

  // Structural validity: manifold triangulated disk over the hull.
  std::vector<VertexId> ids(300);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<VertexId>(i);
  const MeshStats stats =
      ComputeMeshStats(ids, mesh.vertices(), mesh.triangles());
  EXPECT_TRUE(stats.IsManifold()) << stats.ToString();
  EXPECT_EQ(stats.euler_characteristic, 1);

  // Empty circumcircle property against a sample of points.
  int checked = 0;
  for (size_t t = 0; t < mesh.triangles().size(); t += 17) {
    const Triangle& tri = mesh.triangles()[t];
    for (size_t p = 0; p < pts.size(); p += 11) {
      const VertexId pid = static_cast<VertexId>(p);
      if (pid == tri[0] || pid == tri[1] || pid == tri[2]) continue;
      EXPECT_FALSE(InCircumcircle(mesh.vertex(tri[0]), mesh.vertex(tri[1]),
                                  mesh.vertex(tri[2]), mesh.vertex(pid)))
          << "triangle " << t << " violates Delaunay vs point " << p;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100);
}

TEST(DelaunayTest, CcwOrientationThroughout) {
  Rng rng(78);
  std::vector<Point3> pts;
  for (int i = 0; i < 120; ++i) {
    pts.push_back(Point3{rng.Uniform(0, 10), rng.Uniform(0, 10), 0});
  }
  auto mesh_or = DelaunayTriangulate(pts);
  ASSERT_TRUE(mesh_or.ok());
  for (const Triangle& t : mesh_or.value().triangles()) {
    const Point3& a = mesh_or.value().vertex(t[0]);
    const Point3& b = mesh_or.value().vertex(t[1]);
    const Point3& c = mesh_or.value().vertex(t[2]);
    EXPECT_GT((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x), 0.0);
  }
}

TEST(DelaunayTest, IncircleOrientationSane) {
  const Point3 a{0, 0, 0};
  const Point3 b{2, 0, 0};
  const Point3 c{1, 2, 0};
  EXPECT_TRUE(InCircumcircle(a, b, c, Point3{1, 0.5, 0}));
  EXPECT_FALSE(InCircumcircle(a, b, c, Point3{10, 10, 0}));
}


TEST(RenderTest, WritesAValidPpm) {
  const DemGrid g = GenerateFractalDem({.side = 17, .seed = 3});
  const TriangleMesh mesh = TriangulateDem(g);
  std::vector<VertexId> ids(static_cast<size_t>(mesh.num_vertices()));
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<VertexId>(i);
  const std::string path = dm::testing::TempDbPath("ppm");
  RenderOptions opt;
  opt.width = 64;
  opt.height = 48;
  ASSERT_TRUE(RenderHillshade(ids, mesh.vertices(), mesh.triangles(), path,
                              opt)
                  .ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[3] = {0};
  ASSERT_EQ(std::fread(magic, 1, 2, f), 2u);
  EXPECT_EQ(std::string(magic), "P6");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  char header[64];
  const int header_len =
      std::snprintf(header, sizeof(header), "P6\n%d %d\n255\n", 64, 48);
  EXPECT_EQ(size, header_len + 64 * 48 * 3);
  std::remove(path.c_str());
}

TEST(RenderTest, CoversMostPixelsAndShadesSlopes) {
  const DemGrid g = GenerateFractalDem({.side = 33, .seed = 8});
  const TriangleMesh mesh = TriangulateDem(g);
  std::vector<VertexId> ids(static_cast<size_t>(mesh.num_vertices()));
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<VertexId>(i);
  const std::string path = dm::testing::TempDbPath("ppm2");
  ASSERT_TRUE(
      RenderHillshade(ids, mesh.vertices(), mesh.triangles(), path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  // Skip header (3 lines).
  char line[64];
  for (int i = 0; i < 3; ++i) ASSERT_NE(std::fgets(line, sizeof(line), f),
                                        nullptr);
  std::vector<uint8_t> px(512 * 512 * 3);
  ASSERT_EQ(std::fread(px.data(), 1, px.size(), f), px.size());
  std::fclose(f);
  int64_t lit = 0;
  std::set<uint8_t> reds;
  for (size_t i = 0; i < px.size(); i += 3) {
    if (px[i] + px[i + 1] + px[i + 2] > 0) ++lit;
    reds.insert(px[i]);
  }
  EXPECT_GT(lit, 512 * 512 * 9 / 10);  // terrain fills the frame
  EXPECT_GT(reds.size(), 16u);         // real shading variation
  std::remove(path.c_str());
}

TEST(RenderTest, RejectsBadInputs) {
  std::vector<VertexId> ids{0};
  std::vector<Point3> pos{{0, 0, 0}};
  EXPECT_FALSE(
      RenderHillshade(ids, pos, {Triangle{{0, 1, 2}}}, "/tmp/x.ppm").ok());
  RenderOptions opt;
  opt.width = 0;
  EXPECT_FALSE(RenderHillshade(ids, pos, {}, "/tmp/x.ppm", opt).ok());
}

}  // namespace
}  // namespace dm
