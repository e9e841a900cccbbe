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
  // descent and heap scatter-gather reads. Nested scopes
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
  // order, while records are clustered in STR page order; sorting by
  // record id visits each heap page once and lets the store coalesce
  // runs of adjacent pages into scatter-gather disk reads.
  std::sort(rids.begin(), rids.end());
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
