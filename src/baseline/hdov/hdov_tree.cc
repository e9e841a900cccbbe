#include "baseline/hdov/hdov_tree.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>

#include "pm/cut_replay.h"

namespace dm {

namespace {

// Mesh-vertex record: what an LOD-R-tree node actually stores per
// vertex of its approximation mesh — position, shading normal, and the
// triangle fan (ids of the adjacent vertices in this LOD's mesh).
// Layout: [id i64][x y z f64][nx ny nz f64][fan_count u32][fan i64...]
struct PointRec {
  int64_t id = 0;
  double x = 0, y = 0, z = 0;
  double nx = 0, ny = 0, nz = 1;
  std::vector<int64_t> fan;

  uint32_t EncodedSize() const {
    return 8 + 48 + 4 + static_cast<uint32_t>(fan.size()) * 8;
  }
  void EncodeTo(std::vector<uint8_t>* out) const {
    out->clear();
    out->resize(EncodedSize());
    uint8_t* p = out->data();
    std::memcpy(p, &id, 8);
    std::memcpy(p + 8, &x, 8);
    std::memcpy(p + 16, &y, 8);
    std::memcpy(p + 24, &z, 8);
    std::memcpy(p + 32, &nx, 8);
    std::memcpy(p + 40, &ny, 8);
    std::memcpy(p + 48, &nz, 8);
    const uint32_t k = static_cast<uint32_t>(fan.size());
    std::memcpy(p + 56, &k, 4);
    std::memcpy(p + 60, fan.data(), static_cast<size_t>(k) * 8);
  }
  static bool Decode(const uint8_t* data, uint32_t size, PointRec* out) {
    if (size < 60) return false;
    std::memcpy(&out->id, data, 8);
    std::memcpy(&out->x, data + 8, 8);
    std::memcpy(&out->y, data + 16, 8);
    std::memcpy(&out->z, data + 24, 8);
    std::memcpy(&out->nx, data + 32, 8);
    std::memcpy(&out->ny, data + 40, 8);
    std::memcpy(&out->nz, data + 48, 8);
    uint32_t k = 0;
    std::memcpy(&k, data + 56, 4);
    if (size != 60 + k * 8) return false;
    out->fan.resize(k);
    std::memcpy(out->fan.data(), data + 60, static_cast<size_t>(k) * 8);
    return true;
  }
};

// Elevation angle of the line-of-sight rays used for horizon
// visibility (a viewer slightly above the terrain at great distance).
constexpr double kLosSlope = 0.08;  // ~4.6 degrees

template <typename T>
void Append(std::vector<uint8_t>* out, T v) {
  const size_t n = out->size();
  out->resize(n + sizeof(T));
  std::memcpy(out->data() + n, &v, sizeof(T));
}
template <typename T>
T Read(const uint8_t*& p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  p += sizeof(T);
  return v;
}

}  // namespace

// Directory record: region rect, approximation LOD, level, the
// contiguous run of point records (first packed rid + count), the
// visibility sector values, and (for internal nodes) four child
// directory rids. Variable length.
struct HdovTree::DirRecord {
  Rect region;
  double lod = 0.0;
  int32_t level = 0;  // 0 = leaf (single tile)
  uint64_t first_point = 0;
  int64_t point_count = 0;
  std::vector<float> visibility;
  std::vector<uint64_t> children;  // empty for leaves

  void EncodeTo(std::vector<uint8_t>* out) const {
    Append<double>(out, region.lo_x);
    Append<double>(out, region.lo_y);
    Append<double>(out, region.hi_x);
    Append<double>(out, region.hi_y);
    Append<double>(out, lod);
    Append<int32_t>(out, level);
    Append<uint64_t>(out, first_point);
    Append<int64_t>(out, point_count);
    Append<uint32_t>(out, static_cast<uint32_t>(visibility.size()));
    for (float v : visibility) Append<float>(out, v);
    Append<uint32_t>(out, static_cast<uint32_t>(children.size()));
    for (uint64_t c : children) Append<uint64_t>(out, c);
  }

  static Result<DirRecord> Decode(const uint8_t* data, uint32_t size) {
    if (size < 8 * 5 + 4 + 8 + 8 + 4 + 4) {
      return Status::Corruption("HDoV directory record too small");
    }
    const uint8_t* p = data;
    DirRecord r;
    r.region.lo_x = Read<double>(p);
    r.region.lo_y = Read<double>(p);
    r.region.hi_x = Read<double>(p);
    r.region.hi_y = Read<double>(p);
    r.lod = Read<double>(p);
    r.level = Read<int32_t>(p);
    r.first_point = Read<uint64_t>(p);
    r.point_count = Read<int64_t>(p);
    const uint32_t nv = Read<uint32_t>(p);
    r.visibility.resize(nv);
    for (uint32_t i = 0; i < nv; ++i) r.visibility[i] = Read<float>(p);
    const uint32_t nc = Read<uint32_t>(p);
    r.children.resize(nc);
    for (uint32_t i = 0; i < nc; ++i) r.children[i] = Read<uint64_t>(p);
    return r;
  }
};

Result<HdovTree> HdovTree::Build(DbEnv* env, const TriangleMesh& base,
                                 const PmTree& tree,
                                 const HdovOptions& options) {
  // Blocks per side multiply by s = sqrt(fanout) per level; round the
  // grid to a power of s so the hierarchy is exact.
  const int s = std::max(
      2, static_cast<int>(std::lround(std::sqrt(options.fanout))));
  int grid = 1;
  while (grid * s <= options.grid_side) grid *= s;
  int depth_max = 0;
  for (int g = grid; g > 1; g /= s) ++depth_max;

  const Rect bounds = tree.bounds();
  const double wx = std::max(bounds.width(), 1e-12);
  const double wy = std::max(bounds.height(), 1e-12);

  // Per-tile maximum elevation, for the horizon visibility test.
  std::vector<double> tile_max(static_cast<size_t>(grid) * grid,
                               -1e300);
  auto tile_of = [&](double x, double y) {
    int tx = static_cast<int>((x - bounds.lo_x) / wx * grid);
    int ty = static_cast<int>((y - bounds.lo_y) / wy * grid);
    tx = std::clamp(tx, 0, grid - 1);
    ty = std::clamp(ty, 0, grid - 1);
    return ty * grid + tx;
  };
  for (const Point3& v : base.vertices()) {
    auto& m = tile_max[static_cast<size_t>(tile_of(v.x, v.y))];
    m = std::max(m, v.z);
  }

  // Per-depth approximation LOD: chosen so a node at depth d holds
  // roughly total/4^depth_max * 4^d... i.e. constant points per node.
  const int64_t leaves = tree.num_leaves();
  std::vector<double> depth_lod(static_cast<size_t>(depth_max) + 1, 0.0);
  const int64_t r = std::max(2, options.generalization);
  for (int d = 0; d < depth_max; ++d) {
    // A node at height h = depth_max - d keeps 1/r of its children's
    // combined resolution, so the global cut backing this depth has
    // leaves / r^h points.
    int64_t divisor = 1;
    for (int i = 0; i < depth_max - d; ++i) divisor *= r;
    depth_lod[static_cast<size_t>(d)] =
        tree.LodForCutSize(std::max<int64_t>(1, leaves / divisor));
  }
  depth_lod[static_cast<size_t>(depth_max)] = 0.0;  // leaves: full res

  // Global approximation meshes per depth: vertices plus adjacency,
  // from which each node's stored mesh records (vertex + normal +
  // triangle fan) are cut out.
  std::vector<QuotientCut> depth_cut(static_cast<size_t>(depth_max) + 1);
  for (int d = 0; d <= depth_max; ++d) {
    depth_cut[static_cast<size_t>(d)] = ComputeUniformCut(
        base, tree, bounds, depth_lod[static_cast<size_t>(d)]);
  }

  DM_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Create(env));
  HdovTree hdov(env, std::move(heap));
  int64_t dir_count = 0;

  // Horizon visibility of a region for a viewing sector: fraction of
  // 3x3 sample points whose LOS (rising at kLosSlope) clears every
  // tile-max along the ray to the terrain edge.
  const int sectors = std::max(1, options.visibility_sectors);
  auto region_visibility = [&](const Rect& region) {
    std::vector<float> vis(static_cast<size_t>(sectors), 0.0f);
    for (int s = 0; s < sectors; ++s) {
      const double theta = 2.0 * 3.14159265358979 * (s + 0.5) / sectors;
      const double dx = std::cos(theta);
      const double dy = std::sin(theta);
      int clear = 0;
      int total = 0;
      for (int sy = 0; sy < 3; ++sy) {
        for (int sx = 0; sx < 3; ++sx) {
          const double px =
              region.lo_x + (sx + 0.5) / 3.0 * region.width();
          const double py =
              region.lo_y + (sy + 0.5) / 3.0 * region.height();
          const double pz =
              tile_max[static_cast<size_t>(tile_of(px, py))];
          ++total;
          bool blocked = false;
          const double step = std::min(wx, wy) / grid;
          for (double t = step; ; t += step) {
            const double qx = px + dx * t;
            const double qy = py + dy * t;
            if (!bounds.Contains(qx, qy)) break;
            const double horizon = pz + kLosSlope * t;
            if (tile_max[static_cast<size_t>(tile_of(qx, qy))] >
                horizon) {
              blocked = true;
              break;
            }
          }
          if (!blocked) ++clear;
        }
      }
      vis[static_cast<size_t>(s)] =
          static_cast<float>(clear) / static_cast<float>(total);
    }
    return vis;
  };

  // Post-order build so children rids exist before the parent record.
  std::function<Result<uint64_t>(int, int, int)> build_node =
      [&](int d, int bx, int by) -> Result<uint64_t> {
    int blocks = 1;  // blocks per side at this depth: s^d
    for (int i = 0; i < d; ++i) blocks *= s;
    Rect region = Rect::Of(bounds.lo_x + wx * bx / blocks,
                           bounds.lo_y + wy * by / blocks,
                           bounds.lo_x + wx * (bx + 1) / blocks,
                           bounds.lo_y + wy * (by + 1) / blocks);
    DirRecord rec;
    rec.region = region;
    rec.level = depth_max - d;
    rec.lod = depth_lod[static_cast<size_t>(d)];
    rec.visibility = region_visibility(region);

    if (d < depth_max) {
      for (int cy = 0; cy < s; ++cy) {
        for (int cx = 0; cx < s; ++cx) {
          DM_ASSIGN_OR_RETURN(
              const uint64_t child,
              build_node(d + 1, bx * s + cx, by * s + cy));
          rec.children.push_back(child);
        }
      }
    }

    // This node's approximation mesh: the depth cut restricted to the
    // region, laid out contiguously ("indexed-vertical storage").
    bool first = true;
    std::vector<uint8_t> buf;
    const QuotientCut& cut = depth_cut[static_cast<size_t>(d)];
    for (VertexId v : cut.vertices) {
      const PmNode& n = tree.node(v);
      if (!region.Contains(n.pos.x, n.pos.y)) continue;
      PointRec pr;
      pr.id = v;
      pr.x = n.pos.x;
      pr.y = n.pos.y;
      pr.z = n.pos.z;
      auto adj_it = cut.adjacency.find(v);
      if (adj_it != cut.adjacency.end()) {
        pr.fan.assign(adj_it->second.begin(), adj_it->second.end());
      }
      // Shading normal: sum of the fan triangles' cross products.
      Point3 acc{0, 0, 0};
      if (pr.fan.size() >= 2) {
        std::vector<VertexId> ring(pr.fan.begin(), pr.fan.end());
        std::sort(ring.begin(), ring.end(), [&](VertexId a, VertexId b) {
          const Point3& pa = tree.node(a).pos;
          const Point3& pb = tree.node(b).pos;
          return std::atan2(pa.y - n.pos.y, pa.x - n.pos.x) <
                 std::atan2(pb.y - n.pos.y, pb.x - n.pos.x);
        });
        for (size_t i = 0; i < ring.size(); ++i) {
          const Point3& a = tree.node(ring[i]).pos;
          const Point3& b = tree.node(ring[(i + 1) % ring.size()]).pos;
          acc = acc + Cross(a - n.pos, b - n.pos);
        }
      }
      const double len = Norm(acc);
      if (len > 1e-12) {
        pr.nx = acc.x / len;
        pr.ny = acc.y / len;
        pr.nz = acc.z / len;
      }
      pr.EncodeTo(&buf);
      DM_ASSIGN_OR_RETURN(
          const RecordId rid,
          hdov.heap_.Append(buf.data(), static_cast<uint32_t>(buf.size())));
      if (first) {
        rec.first_point = rid.Pack();
        first = false;
      }
      ++rec.point_count;
    }

    buf.clear();
    rec.EncodeTo(&buf);
    DM_ASSIGN_OR_RETURN(
        const RecordId rid,
        hdov.heap_.Append(buf.data(), static_cast<uint32_t>(buf.size())));
    ++dir_count;
    return rid.Pack();
  };

  DM_ASSIGN_OR_RETURN(const uint64_t root, build_node(0, 0, 0));
  hdov.meta_.heap_first = hdov.heap_.first_page();
  hdov.meta_.root_record = root;
  hdov.meta_.num_nodes = dir_count;
  hdov.meta_.max_lod = tree.max_lod();
  hdov.meta_.bounds = bounds;
  return hdov;
}

Result<HdovTree> HdovTree::Open(DbEnv* env, const HdovMeta& meta) {
  DM_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Open(env, meta.heap_first));
  HdovTree hdov(env, std::move(heap));
  hdov.meta_ = meta;
  return hdov;
}

Status HdovTree::Traverse(
    const Rect& r, const std::function<double(const Rect&)>& required_e,
    const std::function<double(const Rect&, const std::vector<float>&)>&
        visibility,
    DmQueryResult* result, QueryStats* stats) {
  std::vector<uint64_t> stack{meta_.root_record};
  std::vector<uint8_t> buf;
  while (!stack.empty()) {
    const uint64_t packed = stack.back();
    stack.pop_back();
    DM_RETURN_NOT_OK(heap_.Get(RecordId::Unpack(packed), &buf));
    DM_ASSIGN_OR_RETURN(
        DirRecord dir,
        DirRecord::Decode(buf.data(), static_cast<uint32_t>(buf.size())));
    ++stats->nodes_fetched;
    if (!dir.region.Intersects(r)) continue;

    // A barely visible region tolerates a proportionally larger
    // approximation error — HDoV's data reduction.
    const double vis = std::max(0.05, visibility(dir.region,
                                                 dir.visibility));
    const double req = required_e(dir.region) / vis;
    if (dir.lod <= req || dir.children.empty()) {
      // Fetch this node's contiguous point run; records were appended
      // back-to-back, so the run walks the heap page chain.
      RecordId rid = RecordId::Unpack(dir.first_point);
      for (int64_t i = 0; i < dir.point_count; ++i) {
        DM_RETURN_NOT_OK(heap_.Get(rid, &buf));
        PointRec pr;
        if (!PointRec::Decode(buf.data(), static_cast<uint32_t>(buf.size()),
                              &pr)) {
          return Status::Corruption("HDoV mesh record malformed");
        }
        if (r.Contains(pr.x, pr.y)) {
          result->vertices.push_back(pr.id);
          result->positions.push_back(Point3{pr.x, pr.y, pr.z});
        }
        // Advance to the next record of the run.
        DM_ASSIGN_OR_RETURN(PageGuard page, env_->pool().Fetch(rid.page));
        uint16_t slot_count;
        std::memcpy(&slot_count, page.data() + 4, 2);
        ++rid.slot;
        if (rid.slot >= slot_count) {
          PageId next;
          std::memcpy(&next, page.data(), 4);  // heap next_page header
          rid.page = next;
          rid.slot = 0;
        }
        if (rid.page == kInvalidPage && i + 1 < dir.point_count) {
          return Status::Corruption("HDoV point run truncated");
        }
      }
      continue;
    }
    for (uint64_t c : dir.children) stack.push_back(c);
  }
  return Status::OK();
}

Result<DmQueryResult> HdovTree::Uniform(const Rect& r, double e) {
  DmQueryResult result;
  QueryStats stats;
  const int64_t reads0 = env_->stats().disk_reads;
  DM_RETURN_NOT_OK(Traverse(
      r, [e](const Rect&) { return e; },
      [](const Rect&, const std::vector<float>&) { return 1.0; }, &result,
      &stats));
  stats.disk_accesses = env_->stats().disk_reads - reads0;
  result.stats = stats;
  return result;
}

Result<DmQueryResult> HdovTree::ViewDependent(const ViewQuery& q,
                                              Point2 viewer,
                                              bool use_visibility) {
  DmQueryResult result;
  QueryStats stats;
  const int64_t reads0 = env_->stats().disk_reads;

  DM_RETURN_NOT_OK(Traverse(
      q.roi,
      [&q](const Rect& region) {
        // Most demanding LOD over the region (conservative: the finer
        // of the two plane corners).
        const double e00 = q.RequiredE(region.lo_x, region.lo_y);
        const double e11 = q.RequiredE(region.hi_x, region.hi_y);
        return std::min(e00, e11);
      },
      [viewer, use_visibility](const Rect& region,
                               const std::vector<float>& sectors) {
        if (!use_visibility || sectors.empty()) return 1.0;
        // Stored degree of visibility for the sector facing the
        // viewer (the direction the region is seen from).
        const double cx = (region.lo_x + region.hi_x) / 2;
        const double cy = (region.lo_y + region.hi_y) / 2;
        const double theta =
            std::atan2(viewer.y - cy, viewer.x - cx);
        const double two_pi = 2.0 * 3.14159265358979;
        double frac = theta / two_pi;
        frac -= std::floor(frac);
        const size_t s = std::min(
            sectors.size() - 1,
            static_cast<size_t>(frac * static_cast<double>(sectors.size())));
        return static_cast<double>(sectors[s]);
      },
      &result, &stats));
  stats.disk_accesses = env_->stats().disk_reads - reads0;
  result.stats = stats;
  return result;
}

}  // namespace dm
