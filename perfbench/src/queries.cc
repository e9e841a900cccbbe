#include "queries.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.h"

namespace perfbench {
namespace {

// Position stream of every query set (PaperGrid, ServeMix, UniformChecks):
// the sets are fixed, and a run's seed only orders them.
constexpr uint64_t kFixedLocationSeed = 0x5eed0f16;

dm::Rect RandomRoi(const dm::Rect& b, double area_fraction, dm::Rng* rng) {
  const double side = std::sqrt(area_fraction * b.Area());
  const double x = rng->Uniform(b.lo_x, std::max(b.lo_x, b.hi_x - side));
  const double y = rng->Uniform(b.lo_y, std::max(b.lo_y, b.hi_y - side));
  return dm::Rect::Of(x, y, std::min(x + side, b.hi_x),
                      std::min(y + side, b.hi_y));
}

dm::QueryRequest Uniform(const dm::Rect& roi, double e) {
  dm::QueryRequest r;
  r.kind = dm::QueryRequest::Kind::kUniform;
  r.roi = roi;
  r.e = e;
  return r;
}

dm::QueryRequest View(const BuiltStore& s, const dm::Rect& roi, double e_min,
                      double angle, bool multi_base, bool along_y) {
  dm::QueryRequest r;
  r.kind = dm::QueryRequest::Kind::kView;
  r.view = dm::ViewQuery::FromAngle(roi, e_min, angle, s.meta.max_lod,
                                    along_y);
  r.multi_base = multi_base;
  return r;
}

// fig6/fig8 sweep values (bench/fig6_uniform.cc, bench/fig8_viewdep.cc).
constexpr double kRoiSweep[] = {0.01, 0.02, 0.05, 0.10, 0.15, 0.20};
constexpr double kLodSweep[] = {0.50, 0.25, 0.10, 0.05, 0.02, 0.01};
constexpr double kEminSweep[] = {0.75, 0.50, 0.25, 0.10, 0.05};
constexpr double kAngleSweep[] = {0.1, 0.25, 0.5, 0.75, 0.9};

}  // namespace

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kUniform:
      return "uniform";
    case QueryKind::kSingleBase:
      return "single_base";
    case QueryKind::kMultiBase:
      return "multi_base";
    case QueryKind::kPerspective:
      return "perspective";
  }
  return "unknown";
}

QueryKind KindOf(const dm::QueryRequest& request) {
  switch (request.kind) {
    case dm::QueryRequest::Kind::kUniform:
      return QueryKind::kUniform;
    case dm::QueryRequest::Kind::kView:
      return request.multi_base ? QueryKind::kMultiBase
                                : QueryKind::kSingleBase;
    case dm::QueryRequest::Kind::kPerspective:
      return QueryKind::kPerspective;
  }
  return QueryKind::kUniform;
}

std::vector<dm::QueryRequest> PaperGrid(const BuiltStore& s, int locations) {
  const dm::Rect& b = s.meta.bounds;
  dm::Rng rng(kFixedLocationSeed);
  std::vector<dm::QueryRequest> out;
  // fig6: ROI sweep at the 10% working resolution, LOD sweep at 5% ROI.
  for (double roi : kRoiSweep) {
    for (int i = 0; i < locations; ++i) {
      out.push_back(Uniform(RandomRoi(b, roi, &rng), CatalogLod(s.catalog, 0.10)));
    }
  }
  for (double lod : kLodSweep) {
    for (int i = 0; i < locations; ++i) {
      out.push_back(Uniform(RandomRoi(b, 0.05, &rng), CatalogLod(s.catalog, lod)));
    }
  }
  // fig8: ROI sweep, e_min sweep and angle sweep around (10% ROI, e_min
  // at the 50% cut, half of theta_max); single- and multi-base alike.
  struct ViewPoint {
    double roi, e_min_frac, angle;
  };
  std::vector<ViewPoint> points;
  for (double roi : kRoiSweep) points.push_back({roi, 0.50, 0.5});
  for (double f : kEminSweep) points.push_back({0.10, f, 0.5});
  for (double a : kAngleSweep) points.push_back({0.10, 0.50, a});
  for (const ViewPoint& p : points) {
    for (int i = 0; i < locations; ++i) {
      const dm::Rect roi = RandomRoi(b, p.roi, &rng);
      const double e_min = CatalogLod(s.catalog, p.e_min_frac);
      out.push_back(View(s, roi, e_min, p.angle, false, true));
      out.push_back(View(s, roi, e_min, p.angle, true, true));
    }
  }
  return out;
}

std::vector<dm::QueryRequest> ServeMix(const BuiltStore& s, int count) {
  constexpr double kRois[] = {0.01, 0.02, 0.05, 0.10};
  constexpr double kUniformLods[] = {0.25, 0.10, 0.05, 0.02};
  constexpr double kEmins[] = {0.50, 0.25, 0.10};
  constexpr double kAngles[] = {0.1, 0.25, 0.5};
  const dm::Rect& b = s.meta.bounds;
  dm::Rng rng(kFixedLocationSeed);
  std::vector<dm::QueryRequest> out;
  out.reserve(static_cast<size_t>(count));
  // Kinds take turns and each kind steps through its parameter grid in
  // order; positions (and the view gradient's axis) come from the fixed
  // position stream.
  for (size_t i = 0; i < static_cast<size_t>(count); ++i) {
    const auto kind = static_cast<QueryKind>(i % kNumKinds);
    const size_t step = i / kNumKinds;
    const double roi_frac = kRois[step % std::size(kRois)];
    const size_t combo = step / std::size(kRois);
    const dm::Rect roi = RandomRoi(b, roi_frac, &rng);
    switch (kind) {
      case QueryKind::kUniform:
        out.push_back(Uniform(
            roi, CatalogLod(s.catalog,
                            kUniformLods[combo % std::size(kUniformLods)])));
        break;
      case QueryKind::kSingleBase:
      case QueryKind::kMultiBase:
        out.push_back(View(
            s, roi, CatalogLod(s.catalog, kEmins[combo % std::size(kEmins)]),
            kAngles[combo / std::size(kEmins) % std::size(kAngles)],
            kind == QueryKind::kMultiBase, rng.NextBelow(2) == 0));
        break;
      case QueryKind::kPerspective: {
        // Viewer at the centre of the near edge (the fig8 convention);
        // the required LOD rises from e_floor to the 1% cut's LOD at the
        // far corners.
        dm::QueryRequest r;
        r.kind = dm::QueryRequest::Kind::kPerspective;
        dm::PerspectiveQuery& p = r.perspective;
        p.roi = roi;
        p.viewer = dm::Point2{(roi.lo_x + roi.hi_x) / 2, roi.lo_y};
        p.e_floor = CatalogLod(s.catalog, kEmins[combo % std::size(kEmins)]);
        p.e_cap = CatalogLod(s.catalog, 0.005);
        const double far = std::hypot(roi.width() / 2, roi.height());
        p.tolerance =
            (CatalogLod(s.catalog, 0.01) - p.e_floor) / std::max(far, 1e-9);
        out.push_back(r);
        break;
      }
    }
  }
  return out;
}

std::vector<dm::QueryRequest> UniformChecks(const BuiltStore& s, int count) {
  const dm::Rect& b = s.meta.bounds;
  dm::Rng rng(kFixedLocationSeed);
  std::vector<dm::QueryRequest> out;
  out.reserve(static_cast<size_t>(count));
  // The small end of the fig6 sweeps: the check covers every part of
  // the terrain without the large-ROI fine-LOD queries dominating time.
  constexpr double kRois[] = {0.01, 0.02, 0.05};
  constexpr double kLods[] = {0.10, 0.05, 0.02, 0.01};
  for (size_t i = 0; i < static_cast<size_t>(count); ++i) {
    const double roi = kRois[i % std::size(kRois)];
    const double lod = kLods[i / std::size(kRois) % std::size(kLods)];
    out.push_back(Uniform(RandomRoi(b, roi, &rng), CatalogLod(s.catalog, lod)));
  }
  return out;
}

dm::Result<dm::DmQueryResult> RunQuery(dm::DmQueryProcessor* proc,
                                       const dm::QueryRequest& request) {
  switch (request.kind) {
    case dm::QueryRequest::Kind::kUniform:
      return proc->ViewpointIndependent(request.roi, request.e);
    case dm::QueryRequest::Kind::kView:
      return request.multi_base ? proc->MultiBase(request.view)
                                : proc->SingleBase(request.view);
    case dm::QueryRequest::Kind::kPerspective:
      return proc->Perspective(request.perspective);
  }
  return dm::Status::InvalidArgument("unknown query kind");
}

uint64_t HashGeometry(const dm::DmQueryResult& result) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i + 8 <= bytes; i += 8) {
      uint64_t w;
      std::memcpy(&w, p + i, 8);
      h = (h ^ w) * 0xff51afd7ed558ccdULL;
      h ^= h >> 29;
    }
    h = (h ^ bytes) * 0xc4ceb9fe1a85ec53ULL;
  };
  mix(result.vertices.data(), result.vertices.size() * sizeof(dm::VertexId));
  mix(result.positions.data(), result.positions.size() * sizeof(dm::Point3));
  mix(result.triangles.data(), result.triangles.size() * sizeof(dm::Triangle));
  return h;
}

std::vector<dm::VertexId> BruteForceCut(const dm::PmTree& tree,
                                        const dm::Rect& roi, double e) {
  std::vector<dm::VertexId> ids;
  for (const dm::PmNode& n : tree.nodes()) {
    if (n.e_low <= e && e < n.e_high && roi.Contains(n.pos.x, n.pos.y)) {
      ids.push_back(n.id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace perfbench
