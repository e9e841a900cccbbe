#ifndef DIRECTMESH_DM_NODE_CACHE_H_
#define DIRECTMESH_DM_NODE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "dm/dm_node.h"
#include "storage/page.h"

namespace dm {

/// Decoded-node cache counters.
struct NodeCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t entries = 0;  // resident nodes
  int64_t bytes = 0;    // decoded bytes charged to the budget
};

/// Fill-once table of fully decoded DmNodes, one slot per heap record.
/// It sits between DmStore and the buffer pool: a hit skips the page
/// pin, the slot lookup and the decode entirely, which is the point of
/// Dillabaugh-style traversal-ready nodes layered over compact on-disk
/// records (DESIGN.md §9).
///
/// A record's slot is `page_first[rid.page] + rid.slot`, so a hit is
/// one bounds check and one acquire load: no lock, no hash, no
/// refcount. The first decode of a record is published by CAS while
/// the byte budget has room; a racing worker that loses the CAS frees
/// its copy and uses the winner's node. Nothing is ever evicted: the
/// budget means "admit until full", and past it a miss stays a miss.
///
/// Lifetime: a resident node lives as long as the table, i.e. until
/// its store is destroyed or re-sizes its cache (EnableNodeCache, which
/// requires quiescence). That is what lets DmStore hand out resident
/// nodes as non-owning NodeRefs.
class NodeCache {
 public:
  /// `page_first[p]` is the slot of record 0 on heap page p, and
  /// `page_first[p + 1] - page_first[p]` is the page's record count;
  /// the last element is the table size. `capacity_bytes` bounds the
  /// decoded bytes the table admits.
  NodeCache(size_t capacity_bytes, std::vector<uint32_t> page_first);
  ~NodeCache();

  NodeCache(const NodeCache&) = delete;
  NodeCache& operator=(const NodeCache&) = delete;

  size_t capacity_bytes() const { return capacity_bytes_; }

  /// The resident node of `rid`, or nullptr. A rid outside the table is
  /// a miss.
  const DmNode* Find(RecordId rid) const {
    const size_t i = SlotOf(rid);
    return i == kNoSlot ? nullptr : slots_[i].load(std::memory_order_acquire);
  }

  /// Publishes the decode of `rid` if the budget has room and returns
  /// the resident node: `*node` moved into the table, or the node a
  /// racing worker published first. Returns nullptr, leaving `*node`
  /// untouched, when the record is not admitted.
  const DmNode* Publish(RecordId rid, DmNode* node);

  /// Adds one batch fetch's hit/miss split to the counters.
  void Count(int64_t hits, int64_t misses);

  /// Walks the table; meant for reports, not for the query path.
  NodeCacheStats stats() const;

 private:
  static constexpr size_t kNoSlot = ~size_t{0};

  size_t SlotOf(RecordId rid) const {
    const size_t page = rid.page;
    if (page + 1 >= page_first_.size()) return kNoSlot;
    const uint32_t first = page_first_[page];
    if (rid.slot >= page_first_[page + 1] - first) return kNoSlot;
    return first + rid.slot;
  }
  static size_t EntryBytes(const DmNode& node);

  const size_t capacity_bytes_;
  const std::vector<uint32_t> page_first_;
  std::unique_ptr<std::atomic<const DmNode*>[]> slots_;
  std::atomic<size_t> charged_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
};

}  // namespace dm

#endif  // DIRECTMESH_DM_NODE_CACHE_H_
