#include "dm/repack.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/geometry.h"
#include "common/hilbert.h"
#include "common/parallel.h"
#include "dm/dm_node.h"
#include "index/rtree/rstar_tree.h"
#include "storage/heap_file.h"
#include "storage/page.h"

namespace dm {
namespace {

/// Placement key of one record. The comparator below is a total order
/// (src index tie-break), so the repacked layout has exactly one valid
/// answer at any thread count.
struct PlaceKey {
  uint64_t tile = 0;     // Hilbert cell of (x, y) at the tile grid level
  double e_cap = 0.0;    // e_high with +inf capped at max_lod
  uint64_t hilbert = 0;  // full-resolution Hilbert key (intra-tile tie)
  uint32_t src = 0;      // index in heap scan (storage) order
};

/// Tile-major, coarse-first-within-tile. A uniform cut at LOD e is the
/// set {e_low <= e < e_high}; within one tile, e_cap-descending order
/// puts that set directly after the tile's strictly-coarser ancestors
/// ({e_low > e}, about the same count), so every cut reads one
/// near-contiguous page run per ROI tile instead of one record per
/// page. View-dependent cubes [e_min, e_max] read the same prefix cut
/// at e_min, so they coalesce identically.
bool PlaceLess(const PlaceKey& a, const PlaceKey& b) {
  if (a.tile != b.tile) return a.tile < b.tile;
  if (a.e_cap != b.e_cap) return a.e_cap > b.e_cap;  // coarse first
  if (a.hilbert != b.hilbert) return a.hilbert < b.hilbert;
  return a.src < b.src;
}

double Normalize01(double v, double lo, double hi) {
  if (!(hi > lo)) return 0.0;
  const double t = (v - lo) / (hi - lo);
  return std::min(std::max(t, 0.0), 1.0 - 1e-12);
}

}  // namespace

Result<DmStore> RepackDmStore(const DmStore& src, DbEnv* dst_env,
                              const RepackOptions& options,
                              RepackReport* report) {
  const DmMeta& meta = src.meta();

  // 1. Scan the source heap in storage order (deterministic). For the
  // flat codec the raw record bytes are carried verbatim:
  // DmNode links are VertexIds, not RecordIds, so nothing inside a
  // record depends on placement. Group blobs share frame-of-reference
  // bases with their page-mates, so their records cannot move
  // verbatim — carry the decoded nodes and re-encode fresh groups in
  // placement order below.
  const bool group = meta.codec == DmCodec::kGroup;
  std::vector<std::vector<uint8_t>> raw;
  std::vector<DmNode> nodes;
  std::vector<Point3> pos;
  std::vector<double> e_low;
  std::vector<double> e_high;
  if (group) {
    nodes.reserve(static_cast<size_t>(meta.num_nodes));
  } else {
    raw.reserve(static_cast<size_t>(meta.num_nodes));
  }
  pos.reserve(static_cast<size_t>(meta.num_nodes));
  Status decode_status;
  Status scan_status = src.heap().Scan(
      [&](RecordId rid, const uint8_t* data, uint32_t size) {
        auto node_or = DecodeDmRecord(meta.codec, rid.slot, data, size);
        if (!node_or.ok()) {
          decode_status = node_or.status();
          return false;
        }
        pos.push_back(node_or.value().pos);
        e_low.push_back(node_or.value().e_low);
        e_high.push_back(node_or.value().e_high);
        if (group) {
          nodes.push_back(std::move(node_or).value());
        } else {
          raw.emplace_back(data, data + size);
        }
        return true;
      });
  DM_RETURN_NOT_OK(scan_status);
  DM_RETURN_NOT_OK(decode_status);
  const size_t n = pos.size();
  if (n == 0) {
    return Status::InvalidArgument("repack: source store has no records");
  }
  if (static_cast<int64_t>(n) != meta.num_nodes) {
    return Status::Corruption("repack: heap record count " +
                              std::to_string(n) + " != catalog num_nodes " +
                              std::to_string(meta.num_nodes));
  }

  WorkerPool pool(options.threads);

  // 2. Tile grid granularity. A tile is one Hilbert cell of the (x, y)
  // footprint; within a tile the cut of a typical query should span
  // several heap pages so runs amortize, which puts the auto target at
  // a few dozen pages of records per tile (a 10%-of-points cut then
  // still covers 3-4 contiguous pages of it).
  const uint32_t leaf_cap = RStarTree::LeafCapacityFor(dst_env->page_size());
  const int64_t src_pages =
      std::max<int64_t>(1, static_cast<int64_t>(src.heap().num_pages()));
  const size_t recs_per_page = std::max<size_t>(1, n / src_pages);
  int tile_level = options.tile_level;
  if (tile_level < 0) {
    const size_t target_tile_nodes = 32 * recs_per_page;
    const size_t tiles = std::max<size_t>(1, n / target_tile_nodes);
    tile_level = 0;
    while (tile_level < 8 && (size_t{1} << (2 * tile_level)) < tiles) {
      ++tile_level;
    }
  }
  tile_level = std::min(tile_level, 16);

  // 3. Placement order: (tile, e_cap desc, Hilbert(x, y), src). The
  // tile is the top bits of the full-resolution Hilbert key, so tile
  // traversal itself follows the space-filling curve.
  std::vector<PlaceKey> keys(n);
  const int tile_shift = 2 * (16 - tile_level);
  ParallelFor(pool, static_cast<int64_t>(n), 1024,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  const size_t s = static_cast<size_t>(i);
                  const uint64_t h = HilbertKeyUnit(
                      Normalize01(pos[s].x, meta.bounds.lo_x, meta.bounds.hi_x),
                      Normalize01(pos[s].y, meta.bounds.lo_y,
                                  meta.bounds.hi_y));
                  keys[s].tile = h >> tile_shift;
                  keys[s].e_cap =
                      std::isinf(e_high[s]) ? meta.max_lod : e_high[s];
                  keys[s].hilbert = h;
                  keys[s].src = static_cast<uint32_t>(s);
                }
              });
  ParallelStableSort(pool, keys, PlaceLess);

  // 4. Rewrite the heap in placement order (page allocation stays
  // sequential, so the destination file is deterministic), then
  // rebuild the R*-tree over the new RecordIds with exactly the
  // segment geometry DmStore::Build uses — heap pages keep their
  // alignment with R*-tree leaves, just under the new grouping.
  DM_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Create(dst_env));
  std::vector<RecordId> rids;
  if (group) {
    // Re-encode groups over the placement order: a serial greedy pack
    // (same one Build uses), so the destination pages are
    // thread-count invariant and every group's bases reflect its new
    // page-mates.
    std::vector<std::vector<uint8_t>> blobs;
    std::vector<uint32_t> blob_counts;
    DM_RETURN_NOT_OK(EncodeNodeGroups(
        [&](size_t i) -> const DmNode& { return nodes[keys[i].src]; }, n,
        dst_env->page_size() - HeapFile::kPageHeaderSize, &blobs,
        &blob_counts));
    rids.reserve(n);
    for (size_t g = 0; g < blobs.size(); ++g) {
      DM_ASSIGN_OR_RETURN(
          RecordId first,
          heap.AppendBlock(blobs[g].data(),
                           static_cast<uint32_t>(blobs[g].size()),
                           blob_counts[g]));
      for (uint32_t s = 0; s < blob_counts[g]; ++s) {
        rids.push_back(RecordId{first.page, static_cast<uint16_t>(s)});
      }
    }
  } else {
    std::vector<std::vector<uint8_t>> ordered(n);
    for (size_t i = 0; i < n; ++i) ordered[i] = std::move(raw[keys[i].src]);
    DM_RETURN_NOT_OK(heap.AppendMany(ordered, &rids));
  }

  std::vector<std::pair<Box, uint64_t>> entries(n);
  ParallelFor(pool, static_cast<int64_t>(n), 1024,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  const size_t d = static_cast<size_t>(i);
                  const size_t s = keys[d].src;
                  const double top =
                      std::isinf(e_high[s]) ? meta.max_lod : e_high[s];
                  entries[d].first =
                      Box::Of(pos[s].x, pos[s].y, e_low[s], pos[s].x, pos[s].y,
                              std::max(top, e_low[s]));
                  entries[d].second = rids[d].Pack();
                }
              });
  DM_ASSIGN_OR_RETURN(RStarTree rtree, RStarTree::BulkLoad(dst_env, entries));

  DmMeta out = meta;
  out.heap_first = heap.first_page();
  out.rtree_root = rtree.root();
  out.rtree_size = rtree.size();
  out.repacked = true;
  DM_RETURN_NOT_OK(dst_env->FlushAll());

  if (report != nullptr) {
    report->num_nodes = static_cast<int64_t>(n);
    report->tile_level = tile_level;
    report->leaf_capacity = leaf_cap;
  }
  return DmStore::Open(dst_env, out);
}

}  // namespace dm
