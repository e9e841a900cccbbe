#include "dm/dm_store.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "dm/connectivity.h"

namespace dm {

namespace {
double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

Result<DmStore> DmStore::Build(DbEnv* env, const TriangleMesh& base,
                               const PmTree& tree, const SimplifyResult& sr,
                               const DmStoreOptions& options) {
  WorkerPool pool(EffectiveThreads(options.threads));
  DmBuildTimings local_timings;
  DmBuildTimings* timings =
      options.timings != nullptr ? options.timings : &local_timings;
  auto clock = std::chrono::steady_clock::now();
  auto take_stage = [&](double* slot) {
    *slot = MillisSince(clock);
    clock = std::chrono::steady_clock::now();
  };

  std::vector<std::vector<VertexId>> own_connections;
  if (options.connections == nullptr) {
    own_connections = BuildConnectionLists(base, tree, sr, pool.threads());
  }
  const std::vector<std::vector<VertexId>>& connections =
      options.connections != nullptr ? *options.connections : own_connections;
  take_stage(&timings->conn_millis);

  const int64_t total = tree.num_nodes();
  const Rect bounds = tree.bounds();
  const double max_lod = tree.max_lod();

  // Vertical segments in (x, y, e); the root's +inf top is capped at
  // the dataset maximum (no query ever exceeds it).
  std::vector<Box> segments(static_cast<size_t>(total));
  ParallelFor(pool, total, 1024, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const PmNode& n = tree.node(i);
      const double top = std::isinf(n.e_high) ? max_lod : n.e_high;
      segments[static_cast<size_t>(i)] =
          Box::Of(n.pos.x, n.pos.y, n.e_low, n.pos.x, n.pos.y,
                  std::max(top, n.e_low));
    }
  });

  // Records are laid out in the STR packing order of their index
  // entries (clustered storage): records co-retrieved by a range query
  // land on the same heap pages, and the packed R*-tree over the same
  // order has near-disjoint leaves — this preserves "(x, y)
  // clustering ... as much as possible" while also clustering the LOD
  // dimension the paper's queries slice on.
  const std::vector<size_t> order = RStarTree::StrOrder(
      segments, RStarTree::LeafCapacityFor(env->page_size()), pool);
  take_stage(&timings->str_millis);

  const DmCodec codec =
      options.codec != DmCodec::kFlat
          ? options.codec
          : (options.compress_records ? DmCodec::kCompressed : DmCodec::kFlat);

  // Materialize records in STR order (disjoint slots, so the loop
  // parallelizes over index ranges). Per-record codecs encode here
  // too; the group codec needs whole DmNodes for its shared-base pass.
  std::vector<std::vector<uint8_t>> encoded;
  std::vector<DmNode> recs;
  if (codec == DmCodec::kGroup) {
    recs.resize(order.size());
  } else {
    encoded.resize(order.size());
  }
  ParallelFor(pool, static_cast<int64_t>(order.size()), 256,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  const size_t idx = order[static_cast<size_t>(i)];
                  const PmNode& n = tree.node(static_cast<VertexId>(idx));
                  DmNode rec;
                  rec.id = n.id;
                  rec.pos = n.pos;
                  rec.e_low = n.e_low;
                  rec.e_high = n.e_high;
                  rec.parent = n.parent;
                  rec.child1 = n.child1;
                  rec.child2 = n.child2;
                  rec.wing1 = n.wing1;
                  rec.wing2 = n.wing2;
                  rec.connections = connections[idx];
                  if (codec == DmCodec::kGroup) {
                    recs[static_cast<size_t>(i)] = std::move(rec);
                  } else if (codec == DmCodec::kCompressed) {
                    rec.EncodeCompressedTo(&encoded[static_cast<size_t>(i)]);
                  } else {
                    rec.EncodeTo(&encoded[static_cast<size_t>(i)]);
                  }
                }
              });
  // Group packing is a serial greedy pass over the deterministic STR
  // order — bases and dictionaries freeze per group as records arrive,
  // so the blobs (and with them every page) are thread-count invariant.
  std::vector<std::vector<uint8_t>> blobs;
  std::vector<uint32_t> blob_counts;
  if (codec == DmCodec::kGroup) {
    DM_RETURN_NOT_OK(EncodeNodeGroups(
        [&](size_t i) -> const DmNode& { return recs[i]; }, recs.size(),
        env->page_size() - HeapFile::kPageHeaderSize, &blobs, &blob_counts));
  }
  take_stage(&timings->encode_millis);

  // ... then append sequentially in STR order, so page allocation and
  // record ids are independent of the thread count.
  DM_ASSIGN_OR_RETURN(HeapFile heap, HeapFile::Create(env));
  std::vector<RecordId> rids;
  rids.reserve(order.size());
  if (codec == DmCodec::kGroup) {
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
    DM_CHECK(rids.size() == order.size())
        << "group packing lost records: " << rids.size() << " of "
        << order.size();
  } else {
    DM_RETURN_NOT_OK(heap.AppendMany(encoded, &rids));
  }
  std::vector<std::pair<Box, uint64_t>> entries;
  entries.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    entries.emplace_back(segments[order[i]], rids[i].Pack());
  }
  take_stage(&timings->append_millis);

  DM_ASSIGN_OR_RETURN(RStarTree rtree, RStarTree::BulkLoad(env, entries));
  take_stage(&timings->bulkload_millis);
  DmStore store(env, std::move(heap), std::move(rtree));

  store.meta_.heap_first = store.heap_.first_page();
  store.meta_.rtree_root = store.rtree_.root();
  store.meta_.rtree_size = store.rtree_.size();
  store.meta_.num_nodes = total;
  store.meta_.num_leaves = tree.num_leaves();
  store.meta_.max_lod = max_lod;
  store.meta_.mean_lod = tree.mean_lod();
  store.meta_.bounds = bounds;
  store.meta_.codec = codec;
  DM_RETURN_NOT_OK(store.LoadCatalog());
  take_stage(&timings->catalog_millis);
  // A rebuild yields a new store and thus a brand-new cache; any cache
  // of a previous generation dies with its store, so no decoded node
  // can outlive the heap records it came from.
  const DbOptions& opts = env->options();
  if (opts.node_cache_bytes > 0) {
    store.EnableNodeCache(opts.node_cache_bytes, opts.node_cache_shards);
  }
  return store;
}

Result<DmStore> DmStore::Open(DbEnv* env, const DmMeta& meta) {
  HeapFile heap = HeapFile::Open(env, meta.heap_first);
  RStarTree rtree = RStarTree::Open(env, meta.rtree_root, meta.rtree_size);
  DmStore store(env, std::move(heap), std::move(rtree));
  store.meta_ = meta;
  // Open() recomputed heap paging; meta_.rtree_root may have rotated
  // since the caller's snapshot only if they persisted a stale meta —
  // trust the caller.
  DM_RETURN_NOT_OK(store.LoadCatalog());
  const DbOptions& opts = env->options();
  if (opts.node_cache_bytes > 0) {
    store.EnableNodeCache(opts.node_cache_bytes, opts.node_cache_shards);
  }
  return store;
}

void DmStore::EnableNodeCache(size_t bytes, uint32_t shards) {
  if (bytes == 0) {
    node_cache_.reset();
    return;
  }
  node_cache_ = std::make_unique<NodeCache>(bytes, shards);
}

Status DmStore::LoadCatalog() {
  node_extents_.clear();
  DM_RETURN_NOT_OK(rtree_.CollectNodeExtents(&node_extents_));
  e_axis_map_ = EAxisMap::FromNodeExtents(node_extents_);
  data_space_ = Box::FromRect(meta_.bounds.empty()
                                  ? Rect::Of(0, 0, 1, 1)
                                  : meta_.bounds,
                              0.0, std::max(meta_.max_lod, 1e-12));
  if (meta_.bounds.empty() && !node_extents_.empty()) {
    // Build path: meta_ not yet filled when called from Build; the
    // caller sets bounds before LoadCatalog, so this is only a guard.
    data_space_ = node_extents_.front().box;
  }

  // Segment-interval sample for the record-level cost term: one pass
  // over the index entries, thinning deterministically to stay small.
  std::vector<std::pair<double, double>> sample;
  {
    constexpr size_t kMaxSample = 8192;
    size_t stride = 1;
    size_t counter = 0;
    DM_RETURN_NOT_OK(rtree_.RangeQueryEntries(
        data_space_, [&](const Box& b, uint64_t) {
          if (counter++ % stride == 0) {
            sample.emplace_back(b.lo[2], b.hi[2]);
            if (sample.size() >= kMaxSample) {
              // Thin: keep every other element, double the stride.
              std::vector<std::pair<double, double>> thinned;
              thinned.reserve(kMaxSample / 2);
              for (size_t i = 0; i < sample.size(); i += 2) {
                thinned.push_back(sample[i]);
              }
              sample = std::move(thinned);
              stride *= 2;
            }
          }
          return true;
        }));
  }
  cost_inputs_.nodes = nullptr;  // re-bound by the accessor
  cost_inputs_.data_space = data_space_;
  cost_inputs_.e_map = e_axis_map_;
  cost_inputs_.segment_sample = std::move(sample);
  cost_inputs_.total_records = heap_.num_records();
  cost_inputs_.records_per_page =
      heap_.num_pages() > 0
          ? static_cast<double>(heap_.num_records()) /
                static_cast<double>(heap_.num_pages())
          : 16.0;
  return Status::OK();
}

Result<DmNode> DmStore::FetchNode(RecordId rid) const {
  std::vector<uint8_t> buf;
  DM_RETURN_NOT_OK(heap_.Get(rid, &buf));
  return DecodeDmRecord(meta_.codec, rid.slot, buf.data(),
                        static_cast<uint32_t>(buf.size()));
}

int64_t DmStore::FetchFailures::FailedPages() const {
  std::vector<PageId> pages;
  pages.reserve(records.size());
  for (const RecordFetchFailure& f : records) pages.push_back(f.rid.page);
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  return static_cast<int64_t>(pages.size());
}

Status DmStore::FetchNodes(const std::vector<uint64_t>& sorted_rids,
                           const std::function<void(const NodeRef&)>& fn,
                           FetchCounts* counts,
                           FetchFailures* failures) const {
  std::vector<RecordFetchFailure>* rec_failures =
      failures != nullptr ? &failures->records : nullptr;
  // Probe the cache per rid (when enabled), then batch-fetch only the
  // misses. The miss subsequence of a sorted rid list is itself
  // sorted, so run coalescing still applies to it. Records decode as
  // each page run lands (overlapping the reads still in flight when an
  // async device is bound), but delivery to `fn` is buffered back into
  // the caller's rid order below, so callers see byte-identical node
  // sequences whatever the device. Scratch is thread-local so the warm
  // all-hit path never touches the heap (FetchNodes is not reentrant
  // within a thread; query workers each have their own).
  thread_local std::vector<NodeRef> out;
  thread_local std::vector<RecordId> miss_rids;
  thread_local std::vector<size_t> miss_idx;
  out.clear();
  out.resize(sorted_rids.size());
  miss_rids.clear();
  miss_idx.clear();
  for (size_t i = 0; i < sorted_rids.size(); ++i) {
    out[i] =
        node_cache_ != nullptr ? node_cache_->Lookup(sorted_rids[i]) : nullptr;
    if (out[i] == nullptr) {
      miss_rids.push_back(RecordId::Unpack(sorted_rids[i]));
      miss_idx.push_back(i);
    }
  }
  if (counts != nullptr && node_cache_ != nullptr) {
    counts->cache_hits +=
        static_cast<int64_t>(sorted_rids.size() - miss_rids.size());
    counts->cache_misses += static_cast<int64_t>(miss_rids.size());
  }
  if (!miss_rids.empty()) {
    size_t delivered = 0;
    size_t next = 0;  // miss slot just past the last delivered record
    const auto decode_miss = [&](RecordId rid, const uint8_t* data,
                                 uint32_t len) -> Status {
      // Records of one run arrive in rid order, so the slot is usually
      // the one after the last; async runs complete out of index order
      // and tolerant fetch skips lost records, so otherwise binary
      // search the (sorted) miss list.
      size_t k = next;
      if (k >= miss_rids.size() || miss_rids[k] != rid) {
        const auto it = std::lower_bound(
            miss_rids.begin(), miss_rids.end(), rid,
            [](RecordId a, RecordId b) { return a.Pack() < b.Pack(); });
        DM_CHECK(it != miss_rids.end() && *it == rid)
            << "batch fetch delivered a record that was never requested";
        k = static_cast<size_t>(it - miss_rids.begin());
      }
      next = k + 1;
      auto node_or = DecodeDmRecord(meta_.codec, rid.slot, data, len);
      if (!node_or.ok()) {
        if (rec_failures == nullptr) return node_or.status();
        rec_failures->push_back({rid, node_or.status()});
        return Status::OK();
      }
      // dm-lint: allow(hot-path-alloc) decode miss allocates by design
      auto ref = std::make_shared<const DmNode>(std::move(node_or).value());
      if (node_cache_ != nullptr) node_cache_->Insert(rid.Pack(), ref);
      out[miss_idx[k]] = std::move(ref);
      ++delivered;
      return Status::OK();
    };
    DM_RETURN_NOT_OK(heap_.GetMany(miss_rids, decode_miss, rec_failures));
    DM_CHECK(failures != nullptr || delivered == miss_idx.size())
        << "batch fetch delivered " << delivered << " of " << miss_idx.size()
        << " missed records";
  }
  for (const NodeRef& ref : out) {
    if (ref != nullptr) fn(ref);  // null = lost record in tolerant mode
  }
  out.clear();  // drop the refs; evicted nodes should not outlive this
  return Status::OK();
}

}  // namespace dm
