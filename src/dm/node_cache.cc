#include "dm/node_cache.h"

#include <utility>

#include "common/check.h"

namespace dm {

NodeCache::NodeCache(size_t capacity_bytes, std::vector<uint32_t> page_first)
    : capacity_bytes_(capacity_bytes), page_first_(std::move(page_first)) {
  DM_CHECK(!page_first_.empty()) << "node cache needs a page index";
  // dm-lint: allow(hot-path-alloc) the table is allocated once per cache
  slots_.reset(new std::atomic<const DmNode*>[page_first_.back()]());
}

NodeCache::~NodeCache() {
  for (size_t i = 0; i < page_first_.back(); ++i) {
    delete slots_[i].load(std::memory_order_relaxed);
  }
}

size_t NodeCache::EntryBytes(const DmNode& node) {
  // The decoded footprint; an estimate is fine, since the budget bounds
  // memory and is not an accounting invariant.
  return sizeof(DmNode) + node.connections.capacity() * sizeof(VertexId);
}

const DmNode* NodeCache::Publish(RecordId rid, DmNode* node) {
  const size_t i = SlotOf(rid);
  if (i == kNoSlot) return nullptr;
  if (const DmNode* resident = slots_[i].load(std::memory_order_acquire)) {
    return resident;
  }
  const size_t bytes = EntryBytes(*node);
  size_t used = charged_.load(std::memory_order_relaxed);
  do {
    if (used + bytes > capacity_bytes_) return nullptr;
  } while (!charged_.compare_exchange_weak(used, used + bytes,
                                           std::memory_order_relaxed));
  // dm-lint: allow(hot-path-alloc) a record is published at most once
  const DmNode* mine = new DmNode(std::move(*node));
  const DmNode* expected = nullptr;
  if (slots_[i].compare_exchange_strong(expected, mine,
                                        std::memory_order_acq_rel)) {
    return mine;
  }
  // A racing worker published first: its node is the one everyone uses.
  delete mine;
  charged_.fetch_sub(bytes, std::memory_order_relaxed);
  return expected;
}

void NodeCache::Count(int64_t hits, int64_t misses) {
  if (hits != 0) hits_.fetch_add(hits, std::memory_order_relaxed);
  if (misses != 0) misses_.fetch_add(misses, std::memory_order_relaxed);
}

NodeCacheStats NodeCache::stats() const {
  NodeCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.bytes = static_cast<int64_t>(charged_.load(std::memory_order_relaxed));
  for (size_t i = 0; i < page_first_.back(); ++i) {
    if (slots_[i].load(std::memory_order_relaxed) != nullptr) ++s.entries;
  }
  return s;
}

}  // namespace dm
