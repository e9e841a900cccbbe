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

  const bool group = options.codec == DmCodec::kGroup;

  // Materialize records in STR order (disjoint slots, so the loop
  // parallelizes over index ranges). The flat codec encodes here too;
  // the group codec needs whole DmNodes for its shared-base pass.
  std::vector<std::vector<uint8_t>> encoded;
  std::vector<DmNode> recs;
  if (group) {
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
                  if (group) {
                    recs[static_cast<size_t>(i)] = std::move(rec);
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
  if (group) {
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
  if (group) {
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
  store.meta_.codec = options.codec;
  store.meta_.reach = BuildReachTable(tree);
  DM_RETURN_NOT_OK(store.LoadCatalog());
  take_stage(&timings->catalog_millis);
  // A rebuild yields a new store and thus a brand-new cache; any cache
  // of a previous generation dies with its store, so no decoded node
  // can outlive the heap records it came from.
  const DbOptions& opts = env->options();
  if (opts.node_cache_bytes > 0) {
    store.EnableNodeCache(opts.node_cache_bytes);
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
    store.EnableNodeCache(opts.node_cache_bytes);
  }
  return store;
}

void DmStore::EnableNodeCache(size_t bytes) {
  node_cache_.reset();  // free the old table before allocating a new one
  if (bytes > 0) node_cache_ = std::make_unique<NodeCache>(bytes, page_first_);
}

Status DmStore::LoadCatalog() {
  CostCatalog::Stats stats;
  DM_RETURN_NOT_OK(rtree_.CollectNodeExtents(&stats.nodes));
  stats.e_map = EAxisMap::FromNodeExtents(stats.nodes);
  stats.data_space = Box::FromRect(meta_.bounds.empty()
                                       ? Rect::Of(0, 0, 1, 1)
                                       : meta_.bounds,
                                   0.0, std::max(meta_.max_lod, 1e-12));
  if (meta_.bounds.empty() && !stats.nodes.empty()) {
    // Build path: meta_ not yet filled when called from Build; the
    // caller sets bounds before LoadCatalog, so this is only a guard.
    stats.data_space = stats.nodes.front().box;
  }

  // Segment-interval sample for the record-level cost term: one pass
  // over the index entries, thinning deterministically to stay small.
  // The same pass sizes every heap page's record slots for the
  // decoded-node cache's table.
  std::vector<std::pair<double, double>>& sample = stats.segment_sample;
  std::vector<uint32_t> page_records;
  {
    constexpr size_t kMaxSample = 8192;
    size_t stride = 1;
    size_t counter = 0;
    DM_RETURN_NOT_OK(rtree_.RangeQueryEntries(
        stats.data_space, [&](const Box& b, uint64_t packed) {
          const RecordId rid = RecordId::Unpack(packed);
          if (rid.page >= page_records.size()) {
            page_records.resize(size_t{rid.page} + 1, 0);
          }
          page_records[rid.page] =
              std::max<uint32_t>(page_records[rid.page], rid.slot + 1u);
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
  stats.total_records = heap_.num_records();
  stats.records_per_page =
      heap_.num_pages() > 0
          ? static_cast<double>(heap_.num_records()) /
                static_cast<double>(heap_.num_pages())
          : 16.0;
  catalog_ = std::make_shared<const CostCatalog>(std::move(stats));
  page_first_.assign(1, 0);
  page_first_.reserve(page_records.size() + 1);
  for (uint32_t n : page_records) {
    page_first_.push_back(page_first_.back() + n);
  }
  return Status::OK();
}

Result<DmNode> DmStore::FetchNode(RecordId rid) const {
  // Decode from the pinned page, as FetchNodes does: on a block page
  // the record resolves to the whole blob, which a copying Get would
  // duplicate (about 4 KB) for every record.
  DM_ASSIGN_OR_RETURN(const HeapFile::RecordView view, heap_.Pin(rid));
  return DecodeDmRecord(meta_.codec, rid.slot, view.data, view.size);
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
  // each page run lands, but delivery to `fn` is buffered back into
  // the caller's rid order below: that interleaves the cache hits with
  // the misses, and puts back the records a tolerant re-fetch delivers
  // last. Scratch is thread-local so the warm
  // all-hit path never touches the heap (FetchNodes is not reentrant
  // within a thread; query workers each have their own).
  thread_local std::vector<NodeRef> out;
  thread_local std::vector<RecordId> miss_rids;
  thread_local std::vector<size_t> miss_idx;
  NodeCache* const cache = node_cache_.get();
  out.clear();
  out.resize(sorted_rids.size());
  miss_rids.clear();
  miss_idx.clear();
  for (size_t i = 0; i < sorted_rids.size(); ++i) {
    const RecordId rid = RecordId::Unpack(sorted_rids[i]);
    const DmNode* hit = cache != nullptr ? cache->Find(rid) : nullptr;
    if (hit != nullptr) {
      out[i] = NodeRef(NodeRef(), hit);  // the table owns it: no refcount
    } else {
      miss_rids.push_back(rid);
      miss_idx.push_back(i);
    }
  }
  if (cache != nullptr) {
    const auto misses = static_cast<int64_t>(miss_rids.size());
    const auto hits = static_cast<int64_t>(sorted_rids.size()) - misses;
    cache->Count(hits, misses);
    if (counts != nullptr) {
      counts->cache_hits += hits;
      counts->cache_misses += misses;
    }
  }
  if (!miss_rids.empty()) {
    size_t delivered = 0;
    size_t next = 0;  // miss slot just past the last delivered record
    const auto decode_miss = [&](RecordId rid, const uint8_t* data,
                                 uint32_t len) -> Status {
      // Misses arrive in rid order, so the slot is usually the one
      // after the last; a tolerant fetch skips lost records and
      // re-fetches a failed run last, so otherwise binary search the
      // (sorted) miss list.
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
      const DmNode* resident =
          cache != nullptr ? cache->Publish(rid, &node_or.value()) : nullptr;
      if (resident != nullptr) {
        out[miss_idx[k]] = NodeRef(NodeRef(), resident);
      } else {
        // dm-lint: allow(hot-path-alloc) an unadmitted decode is owned
        out[miss_idx[k]] =
            std::make_shared<const DmNode>(std::move(node_or).value());
      }
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
  out.clear();  // free the decodes the cache did not admit
  return Status::OK();
}

}  // namespace dm
