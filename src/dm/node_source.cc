#include "dm/node_source.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "storage/io_deadline.h"

namespace dm {

Status DmStoreSource::FetchBox(const Box& box, bool allow_degraded,
                               TimePoint deadline, NodeSink* sink,
                               BoxFetchStats* stats) {
  DM_CHECK(sink != nullptr && stats != nullptr)
      << "FetchBox output parameters must be non-null";
  // Arm the thread-local I/O deadline for everything below: index
  // descent, heap scatter-gather, async completion waits. Nested scopes
  // only tighten, so a router's shorter per-attempt budget survives.
  ScopedIoDeadline guard(deadline);
  ++stats->range_queries;
  // RangeQuery result scratch: thread-local so one source instance
  // serves concurrent workers; capacity sticks per thread.
  thread_local std::vector<uint64_t> rid_scratch;
  std::vector<uint64_t>& rids = rid_scratch;
  rids.clear();
  const int64_t reads_before = store_->env()->stats().disk_reads;
  Status index_st = store_->rtree().RangeQuery(box, &rids);
  stats->index_io += store_->env()->stats().disk_reads - reads_before;
  if (!index_st.ok()) {
    if (allow_degraded &&
        index_st.code() == StatusCode::kDeadlineExceeded) {
      // The budget expired before the index finished: without the node
      // set there is nothing to degrade record-by-record, so the whole
      // region is reported missing and the query goes on sparser
      // (DESIGN.md §16). Any other index failure stays fatal — see
      // DmQueryOptions::allow_degraded.
      ++stats->shards_missed;
      stats->deadline_hit = true;
      return Status::OK();
    }
    return index_st;
  }
  // Fetch in page order: the R*-tree returns leaf entries in traversal
  // order, while records are clustered in STR (or, repacked,
  // tile-Hilbert) page order; sorting by record id
  // visits each heap page once and lets the store coalesce runs of
  // adjacent pages into scatter-gather disk reads.
  std::sort(rids.begin(), rids.end());
  // Cut-aware heap prefetch, issued before the demand fetch so the
  // speculative reads overlap this query's own decode; Prefetch is a
  // no-op without an async device.
  const uint32_t pf_depth = store_->env()->options().prefetch_depth;
  if (pf_depth > 0 && !rids.empty()) {
    if (store_->meta().repacked) {
      // Repacked layout: the cut lands on a few contiguous page runs
      // (one per LOD band the ROI intersects), and refinement demands
      // the pages just past each run's end — the same ROI in the next
      // finer band. Extend the tail runs; finest bands first, where
      // refinement lands next. Depth scales with the fetch's own
      // footprint so small box fetches don't drown in speculative
      // reads they could never use.
      uint32_t fetch_pages = 1;
      for (size_t i = 1; i < rids.size(); ++i) {
        if (RecordId::Unpack(rids[i]).page !=
            RecordId::Unpack(rids[i - 1]).page) {
          ++fetch_pages;
        }
      }
      const uint32_t depth = std::min(pf_depth, fetch_pages);
      uint32_t issued = 0;
      PageId run_end = RecordId::Unpack(rids.back()).page;
      PageId prev = run_end;
      for (size_t i = rids.size(); i-- > 0 && issued < 4;) {
        const PageId page = RecordId::Unpack(rids[i]).page;
        if (page + 1 < prev) {  // gap: [.. page] [prev ..] are two runs
          store_->env()->pool().Prefetch(run_end + 1, depth);
          ++issued;
          run_end = page;
        }
        prev = page;
      }
      if (issued < 4) {
        store_->env()->pool().Prefetch(run_end + 1, depth);
      }
    } else {
      // Append-order (STR) layout: records are clustered in STR order,
      // so the pages just above this fetch's span hold the adjacent
      // (finer) LOD band that refining this cut demands next.
      store_->env()->pool().Prefetch(RecordId::Unpack(rids.back()).page + 1,
                                     pf_depth);
    }
  }
  // The R*-tree result count sizes the caller's node map up front, so
  // the hot path never rehashes mid-fetch.
  sink->Reserve(rids.size());
  DmStore::FetchCounts counts;
  DmStore::FetchFailures failures;
  DM_RETURN_NOT_OK(store_->FetchNodes(
      rids,
      [sink, stats](const NodeRef& node) {
        ++stats->nodes_fetched;
        sink->Deliver(node);
      },
      &counts, allow_degraded ? &failures : nullptr));
  stats->cache_hits += counts.cache_hits;
  stats->cache_misses += counts.cache_misses;
  if (!failures.empty()) {
    stats->records_failed += static_cast<int64_t>(failures.records.size());
    stats->pages_failed += failures.FailedPages();
    for (const RecordFetchFailure& f : failures.records) {
      if (f.status.code() == StatusCode::kDeadlineExceeded) {
        stats->deadline_hit = true;
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace dm
