#ifndef DIRECTMESH_STORAGE_HEAP_FILE_H_
#define DIRECTMESH_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "storage/db_env.h"
#include "storage/page.h"

namespace dm {

/// One record a tolerant batch fetch could not produce, with the
/// Status (kIOError, kCorruption, kUnavailable after retries...) that
/// sank it. Queries map these to degraded nodes instead of failing.
struct RecordFetchFailure {
  RecordId rid;
  Status status;
};

/// Append-only heap file of variable-length records in slotted pages.
///
/// Page layout: [next_page u32][slot_count u16][free_off u16]
/// [record bytes grow up][...free...][slot dir grows down], slot =
/// [offset u16][length u16]. Records never span pages; the largest
/// storable record is page_size - 12.
///
/// Block pages (group codec): bit 15 of the slot-count word marks a page
/// holding one group-encoded blob instead of a slot directory; the low
/// 15 bits carry the number of logical records inside the blob. The
/// blob occupies [kPageHeaderSize, free_off) and there is no slot
/// directory, so the whole logical page minus the 8-byte header is
/// payload. Point reads address records as RecordId{page, index}: any
/// index below the record count resolves to the full blob, and the
/// codec layer (DmNodeGroup) seeks the record inside it. Slotted and
/// block pages may coexist in one chain; Append* treats a block tail
/// as full and chains.
///
/// DmStore::Build appends terrain nodes in the STR packing order of
/// their index entries, so disk pages preserve spatial clustering, as
/// the paper's setup requires. That build order is the one on-disk
/// layout.
///
/// Concurrency: `Get`, `GetMany`, and `Scan` are const and safe to
/// call from many threads once building is done (all mutable state is
/// behind the thread-safe buffer pool). `Append` is single-writer.
class HeapFile {
 public:
  /// Creates a new heap file in `env`, allocating its first page.
  static Result<HeapFile> Create(DbEnv* env);

  /// Opens an existing heap file by its first page id, walking the
  /// page chain to its tail to count pages and records. Fails with the
  /// status of the first chain page that cannot be fetched (a torn
  /// chain never opens with a short record count).
  static Result<HeapFile> Open(DbEnv* env, PageId first_page);

  PageId first_page() const { return first_page_; }
  int64_t num_records() const { return num_records_; }
  int64_t num_pages() const { return num_pages_; }

  /// Fixed per-page header: next_page u32 + slot_count u16 + free_off
  /// u16. Block blobs start right after it.
  static constexpr uint32_t kPageHeaderSize = 8;

  /// Largest record this file can store.
  uint32_t MaxRecordSize() const { return env_->page_size() - 12; }

  /// Largest block blob a page can hold (no slot directory, just the
  /// page header).
  uint32_t MaxBlockSize() const { return env_->page_size() - kPageHeaderSize; }

  /// Appends a record, returns its id.
  Result<RecordId> Append(const uint8_t* data, uint32_t size);

  /// Appends one group blob of `record_count` logical records as a
  /// block page (see class comment). The blob always lands on its own
  /// page — a fresh one unless the current tail is completely empty —
  /// and the returned id is RecordId{page, 0}; records inside it are
  /// addressed as {page, 0..record_count-1}.
  Result<RecordId> AppendBlock(const uint8_t* data, uint32_t size,
                               uint32_t record_count);

  /// Appends `records` back to back, pushing each record's id to
  /// `rids` (when non-null). Produces exactly the pages repeated
  /// Append calls would — same ids, same bytes — but pins the tail
  /// page once per page instead of once per record, which is the
  /// dominant cost of bulk loading.
  Status AppendMany(const std::vector<std::vector<uint8_t>>& records,
                    std::vector<RecordId>* rids = nullptr);

  /// Record `rid`'s bytes inside its page, which stays pinned (and
  /// the bytes valid) for as long as the view lives. On a block page
  /// the bytes are the whole blob; the codec seeks the record by slot.
  struct RecordView {
    PageGuard page;
    const uint8_t* data = nullptr;
    uint32_t size = 0;
  };
  Result<RecordView> Pin(RecordId rid) const;

  /// Reads record `rid` into `out` (replacing its contents): a copy of
  /// what Pin sees.
  Status Get(RecordId rid, std::vector<uint8_t>* out) const;

  /// Batch point lookup: `rids` must be sorted ascending by
  /// (page, slot) — the order `RecordId::Pack` sorts in — and may
  /// repeat. Runs of adjacent heap pages (capped at the pool's
  /// MaxRunPages) go to BufferPool::FetchRuns in one batch, so their
  /// misses coalesce into scatter-gather reads; disk-read accounting
  /// matches per-record Get calls exactly. The callback sees each
  /// record's bytes in rid order (the pool delivers runs in index
  /// order), except for the tolerant re-fetch below.
  ///
  /// With `failures == nullptr` the first error is fatal. Otherwise
  /// the fetch is tolerant: an unreadable or corrupt page fails only
  /// the records on it. A failed run is re-fetched page by page after
  /// the batch drains (so its surviving records arrive last), each
  /// lost record lands in `failures` with the Status that killed it,
  /// and the call still returns OK. Callback errors (the caller's own
  /// decode logic) stay fatal either way.
  Status GetMany(
      const std::vector<RecordId>& rids,
      const std::function<Status(RecordId, const uint8_t*, uint32_t)>&
          callback,
      std::vector<RecordFetchFailure>* failures = nullptr) const;

  /// Full scan in storage order. The callback may return false to stop.
  Status Scan(const std::function<bool(RecordId, const uint8_t*, uint32_t)>&
                  callback) const;

 private:
  HeapFile(DbEnv* env, PageId first_page)
      : env_(env), first_page_(first_page), tail_page_(first_page) {}

  /// Links a fresh, empty page after the tail page `*tail` and makes it
  /// the new tail: `*tail` then pins the fresh page.
  Status ChainFreshPage(PageGuard* tail);

  /// Tolerant per-page re-fetch of rids[begin, end) after a coalesced
  /// run failed: only the records on bad pages are lost (appended to
  /// `failures`, which must be non-null); callback errors stay fatal.
  Status RefetchRunByPage(
      const std::vector<RecordId>& rids, size_t begin, size_t end,
      const std::function<Status(RecordId, const uint8_t*, uint32_t)>&
          callback,
      std::vector<RecordFetchFailure>* failures) const;

  DbEnv* env_;
  PageId first_page_;
  PageId tail_page_;
  int64_t num_records_ = 0;
  int64_t num_pages_ = 1;
};

}  // namespace dm

#endif  // DIRECTMESH_STORAGE_HEAP_FILE_H_
