#include "storage/heap_file.h"

#include <cstring>

#include "common/check.h"

namespace dm {

namespace {

// Page header offsets.
constexpr uint32_t kNextPageOff = 0;   // u32
constexpr uint32_t kSlotCountOff = 4;  // u16
constexpr uint32_t kFreeOffOff = 6;    // u16
constexpr uint32_t kHeaderSize = 8;
constexpr uint32_t kSlotSize = 4;  // u16 offset + u16 length

// Bit 15 of the slot-count word marks a block page (one group blob, no
// slot directory); the low 15 bits are the logical record count.
constexpr uint16_t kBlockSlotFlag = 0x8000;

bool IsBlockPage(uint16_t slot_word) { return (slot_word & kBlockSlotFlag) != 0; }
uint16_t PageRecordCount(uint16_t slot_word) {
  return static_cast<uint16_t>(slot_word & ~kBlockSlotFlag);
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
uint16_t LoadU16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }
void StoreU16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, sizeof(v)); }

}  // namespace

Result<HeapFile> HeapFile::Create(DbEnv* env) {
  DM_ASSIGN_OR_RETURN(PageGuard page, env->pool().NewPage());
  StoreU32(page.data() + kNextPageOff, kInvalidPage);
  StoreU16(page.data() + kSlotCountOff, 0);
  StoreU16(page.data() + kFreeOffOff, kHeaderSize);
  page.MarkDirty();
  return HeapFile(env, page.id());
}

HeapFile HeapFile::Open(DbEnv* env, PageId first_page) {
  HeapFile hf(env, first_page);
  // Walk to the tail to support further appends; also recounts records.
  PageId id = first_page;
  hf.num_pages_ = 0;
  hf.num_records_ = 0;
  while (id != kInvalidPage) {
    auto page_or = env->pool().Fetch(id);
    if (!page_or.ok()) break;  // truncated file: treat walked prefix as all
    PageGuard page = std::move(page_or).value();
    hf.num_records_ += PageRecordCount(LoadU16(page.data() + kSlotCountOff));
    ++hf.num_pages_;
    hf.tail_page_ = id;
    id = LoadU32(page.data() + kNextPageOff);
  }
  return hf;
}

Result<RecordId> HeapFile::Append(const uint8_t* data, uint32_t size) {
  if (size > MaxRecordSize()) {
    return Status::InvalidArgument("record of " + std::to_string(size) +
                                   " bytes exceeds page capacity");
  }
  DM_ASSIGN_OR_RETURN(PageGuard page, env_->pool().Fetch(tail_page_));
  uint16_t slot_count = LoadU16(page.data() + kSlotCountOff);
  uint16_t free_off = LoadU16(page.data() + kFreeOffOff);
  const uint32_t page_size = env_->page_size();
  const uint32_t dir_top = page_size - (slot_count + 1u) * kSlotSize;

  // A block tail has no slot directory to extend: always chain.
  if (IsBlockPage(slot_count) || free_off + size > dir_top) {
    // Tail page full: chain a new page.
    DM_ASSIGN_OR_RETURN(PageGuard fresh, env_->pool().NewPage());
    StoreU32(fresh.data() + kNextPageOff, kInvalidPage);
    StoreU16(fresh.data() + kSlotCountOff, 0);
    StoreU16(fresh.data() + kFreeOffOff, kHeaderSize);
    fresh.MarkDirty();
    StoreU32(page.data() + kNextPageOff, fresh.id());
    page.MarkDirty();
    tail_page_ = fresh.id();
    ++num_pages_;
    page = std::move(fresh);
    slot_count = 0;
    free_off = kHeaderSize;
  }

  std::memcpy(page.data() + free_off, data, size);
  uint8_t* slot = page.data() + page_size - (slot_count + 1u) * kSlotSize;
  StoreU16(slot, static_cast<uint16_t>(free_off));
  StoreU16(slot + 2, static_cast<uint16_t>(size));
  StoreU16(page.data() + kSlotCountOff, static_cast<uint16_t>(slot_count + 1));
  StoreU16(page.data() + kFreeOffOff, static_cast<uint16_t>(free_off + size));
  page.MarkDirty();
  ++num_records_;
  return RecordId{page.id(), slot_count};
}

Status HeapFile::AppendMany(const std::vector<std::vector<uint8_t>>& records,
                            std::vector<RecordId>* rids) {
  if (records.empty()) return Status::OK();
  const uint32_t page_size = env_->page_size();
  DM_ASSIGN_OR_RETURN(PageGuard page, env_->pool().Fetch(tail_page_));
  uint16_t slot_count = LoadU16(page.data() + kSlotCountOff);
  uint16_t free_off = LoadU16(page.data() + kFreeOffOff);
  for (const std::vector<uint8_t>& rec : records) {
    const auto size = static_cast<uint32_t>(rec.size());
    if (size > MaxRecordSize()) {
      return Status::InvalidArgument("record of " + std::to_string(size) +
                                     " bytes exceeds page capacity");
    }
    const uint32_t dir_top = page_size - (slot_count + 1u) * kSlotSize;
    if (IsBlockPage(slot_count) || free_off + size > dir_top) {
      DM_ASSIGN_OR_RETURN(PageGuard fresh, env_->pool().NewPage());
      StoreU32(fresh.data() + kNextPageOff, kInvalidPage);
      StoreU16(fresh.data() + kSlotCountOff, 0);
      StoreU16(fresh.data() + kFreeOffOff, kHeaderSize);
      fresh.MarkDirty();
      StoreU32(page.data() + kNextPageOff, fresh.id());
      page.MarkDirty();
      tail_page_ = fresh.id();
      ++num_pages_;
      page = std::move(fresh);
      slot_count = 0;
      free_off = kHeaderSize;
    }
    std::memcpy(page.data() + free_off, rec.data(), size);
    uint8_t* slot = page.data() + page_size - (slot_count + 1u) * kSlotSize;
    StoreU16(slot, free_off);
    StoreU16(slot + 2, static_cast<uint16_t>(size));
    ++num_records_;
    if (rids != nullptr) rids->push_back(RecordId{page.id(), slot_count});
    ++slot_count;
    free_off = static_cast<uint16_t>(free_off + size);
    StoreU16(page.data() + kSlotCountOff, slot_count);
    StoreU16(page.data() + kFreeOffOff, free_off);
    page.MarkDirty();
  }
  return Status::OK();
}

Result<RecordId> HeapFile::AppendBlock(const uint8_t* data, uint32_t size,
                                       uint32_t record_count) {
  if (size > MaxBlockSize()) {
    return Status::InvalidArgument("block of " + std::to_string(size) +
                                   " bytes exceeds page capacity");
  }
  if (record_count == 0 || record_count >= kBlockSlotFlag) {
    return Status::InvalidArgument("block record count " +
                                   std::to_string(record_count) +
                                   " outside [1, 32767]");
  }
  DM_ASSIGN_OR_RETURN(PageGuard page, env_->pool().Fetch(tail_page_));
  const uint16_t tail_slots = LoadU16(page.data() + kSlotCountOff);
  const uint16_t tail_free = LoadU16(page.data() + kFreeOffOff);
  if (tail_slots != 0 || tail_free != kHeaderSize) {
    // Tail already holds data (slotted or block): chain a fresh page so
    // the blob owns its page exclusively.
    DM_ASSIGN_OR_RETURN(PageGuard fresh, env_->pool().NewPage());
    StoreU32(fresh.data() + kNextPageOff, kInvalidPage);
    StoreU16(fresh.data() + kSlotCountOff, 0);
    StoreU16(fresh.data() + kFreeOffOff, kHeaderSize);
    fresh.MarkDirty();
    StoreU32(page.data() + kNextPageOff, fresh.id());
    page.MarkDirty();
    tail_page_ = fresh.id();
    ++num_pages_;
    page = std::move(fresh);
  }
  std::memcpy(page.data() + kHeaderSize, data, size);
  StoreU16(page.data() + kSlotCountOff,
           static_cast<uint16_t>(kBlockSlotFlag | record_count));
  StoreU16(page.data() + kFreeOffOff,
           static_cast<uint16_t>(kHeaderSize + size));
  page.MarkDirty();
  num_records_ += record_count;
  return RecordId{page.id(), 0};
}

namespace {

/// Locates record `slot` inside a pinned page, validating the slot
/// directory before any bytes are touched. On a block page every
/// record index below the count resolves to the whole blob; the codec
/// layer seeks the record inside it using the RecordId's slot.
Status LocateSlot(const uint8_t* page_data, uint32_t page_size, PageId page_id,
                  uint16_t slot_idx, const uint8_t** data, uint16_t* len) {
  const uint16_t slot_word = LoadU16(page_data + kSlotCountOff);
  if (IsBlockPage(slot_word)) {
    if (slot_idx >= PageRecordCount(slot_word)) {
      return Status::NotFound("record " + std::to_string(slot_idx) +
                              " out of range on block page " +
                              std::to_string(page_id));
    }
    const uint16_t free_off = LoadU16(page_data + kFreeOffOff);
    DM_ENSURE(free_off > kHeaderSize && free_off <= page_size,
              Status::Corruption("block page " + std::to_string(page_id) +
                                 ": bad free offset"));
    *data = page_data + kHeaderSize;
    *len = static_cast<uint16_t>(free_off - kHeaderSize);
    return Status::OK();
  }
  const uint16_t slot_count = slot_word;
  if (slot_idx >= slot_count) {
    return Status::NotFound("slot " + std::to_string(slot_idx) +
                            " out of range on page " +
                            std::to_string(page_id));
  }
  const uint8_t* slot = page_data + page_size - (slot_idx + 1u) * kSlotSize;
  const uint16_t off = LoadU16(slot);
  *len = LoadU16(slot + 2);
  DM_ENSURE(off >= kHeaderSize &&
                static_cast<uint32_t>(off) + *len <= page_size,
            Status::Corruption("slot " + std::to_string(slot_idx) +
                               " on page " + std::to_string(page_id) +
                               " points outside the page"));
  *data = page_data + off;
  return Status::OK();
}

}  // namespace

Status HeapFile::Get(RecordId rid, std::vector<uint8_t>* out) const {
  DM_ASSIGN_OR_RETURN(PageGuard page, env_->pool().Fetch(rid.page));
  const uint8_t* data = nullptr;
  uint16_t len = 0;
  DM_RETURN_NOT_OK(LocateSlot(page.data(), env_->page_size(), rid.page,
                              rid.slot, &data, &len));
  out->assign(data, data + len);
  return Status::OK();
}

Status HeapFile::RefetchRunByPage(
    const std::vector<RecordId>& rids, size_t begin, size_t end,
    const std::function<Status(RecordId, const uint8_t*, uint32_t)>& callback,
    std::vector<RecordFetchFailure>* failures) const {
  // Re-fetch the failed run one page at a time so only the records on
  // the bad page are lost.
  size_t k = begin;
  while (k < end) {
    const PageId p = rids[k].page;
    size_t e = k;
    while (e < end && rids[e].page == p) ++e;
    auto page_or = env_->pool().Fetch(p);
    if (!page_or.ok()) {
      for (size_t t = k; t < e; ++t) {
        failures->push_back({rids[t], page_or.status()});
      }
    } else {
      PageGuard page = std::move(page_or).value();
      for (size_t t = k; t < e; ++t) {
        const uint8_t* data = nullptr;
        uint16_t len = 0;
        const Status st = LocateSlot(page.data(), env_->page_size(), p,
                                     rids[t].slot, &data, &len);
        if (!st.ok()) {
          failures->push_back({rids[t], st});
          continue;
        }
        DM_RETURN_NOT_OK(callback(rids[t], data, len));
      }
    }
    k = e;
  }
  return Status::OK();
}

Status HeapFile::GetMany(
    const std::vector<RecordId>& rids,
    const std::function<Status(RecordId, const uint8_t*, uint32_t)>& callback,
    std::vector<RecordFetchFailure>* failures) const {
  // Grow runs of consecutive distinct pages, capped by the pool's pin
  // budget, and hand them all to the pool in one batch.
  struct Span {
    size_t begin;
    size_t end;  // rid index range served by this run
  };
  std::vector<Span> spans;
  std::vector<BufferPool::RunRequest> runs;
  const uint32_t max_run = env_->pool().MaxRunPages();
  size_t i = 0;
  while (i < rids.size()) {
    const PageId first = rids[i].page;
    PageId last = first;
    uint32_t npages = 1;
    size_t j = i + 1;
    for (; j < rids.size(); ++j) {
      DM_DCHECK(rids[j - 1].Pack() <= rids[j].Pack())
          << "GetMany requires rids sorted by (page, slot)";
      const PageId p = rids[j].page;
      if (p == last) continue;
      if (p == last + 1 && npages < max_run) {
        last = p;
        ++npages;
        continue;
      }
      break;
    }
    spans.push_back({i, j});
    runs.push_back({first, npages});
    i = j;
  }

  Status fatal;  // first fatal error (callback, or any error when strict)
  // Failed runs fall back to per-page fetches, but not from inside the
  // run callback (it must not re-enter the pool) — queue them for a
  // pass after the batch drains.
  std::vector<size_t> failed_runs;
  DM_RETURN_NOT_OK(env_->pool().FetchRuns(
      runs.data(), runs.size(),
      [&](size_t ri, Status run_st, std::vector<PageGuard>* guards) {
        if (!fatal.ok()) return;  // just drain the remaining runs
        if (!run_st.ok()) {
          if (failures == nullptr) {
            fatal = std::move(run_st);
          } else {
            failed_runs.push_back(ri);
          }
          return;
        }
        const PageId first = runs[ri].first;
        for (size_t k = spans[ri].begin; k < spans[ri].end; ++k) {
          const RecordId rid = rids[k];
          const uint8_t* data = nullptr;
          uint16_t len = 0;
          const Status st = LocateSlot((*guards)[rid.page - first].data(),
                                       env_->page_size(), rid.page, rid.slot,
                                       &data, &len);
          if (!st.ok()) {
            if (failures == nullptr) {
              fatal = st;
              return;
            }
            failures->push_back({rid, st});
            continue;
          }
          const Status cs = callback(rid, data, len);
          if (!cs.ok()) {
            fatal = cs;
            return;
          }
        }
      }));
  DM_RETURN_NOT_OK(fatal);
  for (const size_t ri : failed_runs) {
    DM_RETURN_NOT_OK(RefetchRunByPage(rids, spans[ri].begin, spans[ri].end,
                                      callback, failures));
  }
  return Status::OK();
}

Status HeapFile::Scan(
    const std::function<bool(RecordId, const uint8_t*, uint32_t)>& callback)
    const {
  PageId id = first_page_;
  while (id != kInvalidPage) {
    DM_ASSIGN_OR_RETURN(PageGuard page, env_->pool().Fetch(id));
    const uint16_t slot_word = LoadU16(page.data() + kSlotCountOff);
    if (IsBlockPage(slot_word)) {
      // One callback per logical record, all sharing the blob bytes.
      const uint16_t count = PageRecordCount(slot_word);
      const uint16_t free_off = LoadU16(page.data() + kFreeOffOff);
      DM_ENSURE(free_off > kHeaderSize && free_off <= env_->page_size(),
                Status::Corruption("block page " + std::to_string(id) +
                                   ": bad free offset"));
      const uint8_t* blob = page.data() + kHeaderSize;
      const auto blob_len = static_cast<uint32_t>(free_off - kHeaderSize);
      for (uint16_t s = 0; s < count; ++s) {
        if (!callback(RecordId{id, s}, blob, blob_len)) {
          return Status::OK();
        }
      }
      id = LoadU32(page.data() + kNextPageOff);
      continue;
    }
    const uint16_t slot_count = slot_word;
    for (uint16_t s = 0; s < slot_count; ++s) {
      const uint8_t* slot =
          page.data() + env_->page_size() - (s + 1u) * kSlotSize;
      const uint16_t off = LoadU16(slot);
      const uint16_t len = LoadU16(slot + 2);
      DM_ENSURE(off >= kHeaderSize &&
                    static_cast<uint32_t>(off) + len <= env_->page_size(),
                Status::Corruption("slot " + std::to_string(s) + " on page " +
                                   std::to_string(id) +
                                   " points outside the page"));
      if (!callback(RecordId{id, s}, page.data() + off, len)) {
        return Status::OK();
      }
    }
    id = LoadU32(page.data() + kNextPageOff);
  }
  return Status::OK();
}

}  // namespace dm
