#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "storage/io_deadline.h"

namespace perfbench {

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t& Tracer::CurrentParent() {
  thread_local int64_t parent = -1;
  return parent;
}

int64_t& Tracer::CurrentRequest() {
  thread_local int64_t request = -1;
  return request;
}

Tracer::ThreadBuffer* Tracer::LocalBuffer() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->spans.reserve(1 << 14);
    local = owned.get();
    dm::MutexLock lock(mu_);
    buffers_.push_back(std::move(owned));
  }
  return local;
}

void Tracer::Record(const Span& span) { LocalBuffer()->spans.push_back(span); }

void Tracer::Adopt(int64_t request, int64_t parent) {
  ThreadBuffer* buf = LocalBuffer();
  for (size_t i = buf->adopted; i < buf->spans.size(); ++i) {
    Span& s = buf->spans[i];
    if (s.request == -1) s.request = request;
    if (s.parent == -1) s.parent = parent;
  }
  buf->adopted = buf->spans.size();
}

dm::Status Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return dm::Status::IOError("cannot write " + path);
  dm::MutexLock lock(mu_);
  for (const auto& buf : buffers_) {
    for (const Span& s : buf->spans) {
      std::fprintf(f, "%lld\t%lld\t%lld\t%s\t%lld\t%lld\n",
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  if (std::fclose(f) != 0) return dm::Status::IOError("cannot close " + path);
  return dm::Status::OK();
}

ScopedSpan::ScopedSpan(const char* name) : on_(Tracer::Get().enabled()) {
  if (!on_) return;
  Tracer& t = Tracer::Get();
  span_.id = t.NewId();
  span_.name = name;
  span_.parent = Tracer::CurrentParent();
  span_.request = Tracer::CurrentRequest();
  saved_parent_ = Tracer::CurrentParent();
  Tracer::CurrentParent() = span_.id;
  span_.start_ns = t.NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  Tracer& t = Tracer::Get();
  span_.end_ns = t.NowNs();
  Tracer::CurrentParent() = saved_parent_;
  t.Record(span_);
}

dm::Status TracedSource::FetchBox(const dm::Box& box, bool allow_degraded,
                                  TimePoint deadline, NodeSink* sink,
                                  dm::BoxFetchStats* stats) {
  // Degraded mode has its own loss accounting; the benchmark runs
  // strict queries only, so that path is never traced.
  if (!Tracer::Get().enabled() || allow_degraded) {
    return plain_.FetchBox(box, allow_degraded, deadline, sink, stats);
  }
  DM_CHECK(store_->env()->options().prefetch_depth == 0)
      << "the traced fetch composes the prefetch-free read path";
  ScopedSpan fetch_span("dm_fetch");
  dm::ScopedIoDeadline guard(deadline);
  ++stats->range_queries;

  thread_local std::vector<uint64_t> rids;
  rids.clear();
  {
    ScopedSpan span("index");
    const int64_t reads0 = store_->env()->stats().disk_reads;
    DM_RETURN_NOT_OK(store_->rtree().RangeQuery(box, &rids));
    const int64_t reads = store_->env()->stats().disk_reads - reads0;
    stats->index_io += reads;
    counters_->index_disk_reads.fetch_add(reads, std::memory_order_relaxed);
    counters_->rids.fetch_add(static_cast<int64_t>(rids.size()),
                             std::memory_order_relaxed);
  }
  std::sort(rids.begin(), rids.end());
  sink->Reserve(rids.size());

  ScopedSpan span("dm_store");
  const int64_t reads0 = store_->env()->stats().disk_reads;
  dm::DmStore::FetchCounts counts;
  DM_RETURN_NOT_OK(store_->FetchNodes(
      rids,
      [sink, stats](const dm::NodeRef& node) {
        ++stats->nodes_fetched;
        sink->Deliver(node);
      },
      &counts));
  counters_->heap_disk_reads.fetch_add(
      store_->env()->stats().disk_reads - reads0, std::memory_order_relaxed);
  stats->cache_hits += counts.cache_hits;
  stats->cache_misses += counts.cache_misses;
  counters_->cache_hits.fetch_add(counts.cache_hits, std::memory_order_relaxed);
  counters_->cache_misses.fetch_add(counts.cache_misses,
                                    std::memory_order_relaxed);
  return dm::Status::OK();
}

}  // namespace perfbench
