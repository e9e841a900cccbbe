#ifndef DIRECTMESH_STORAGE_PAGE_H_
#define DIRECTMESH_STORAGE_PAGE_H_

#include <cstdint>

namespace dm {

/// Page number within a database file. Page 0 is valid; kInvalidPage
/// marks absent links.
using PageId = uint32_t;
inline constexpr PageId kInvalidPage = 0xFFFFFFFFu;

/// Default page size. The benches sweep this in the page-size ablation;
/// everything reads the runtime value from DbEnv.
inline constexpr uint32_t kDefaultPageSize = 4096;

/// Integrity trailer at the end of every page:
///   [crc32c u32][format u8][reserved u8 x3]
/// The CRC covers the page's logical bytes (physical size minus the
/// trailer), is stamped by the buffer pool on flush, and verified on
/// every disk read. Structures above the pool see only the logical
/// size (`DbEnv::page_size()`), so their layouts need no changes.
/// A freshly allocated all-zero page carries no stamp yet; verify
/// accepts it (crc field 0 + zero payload) so allocate-then-read
/// races stay legal.
///
/// Format history (the trailer byte): v5 introduced the CRC trailer
/// with per-record slotted heap pages; v6 added group-coded heap
/// block pages (DESIGN.md §15) — the slot directory gained a block
/// flag and heap records may be frame-of-reference coded per page, so
/// a v5 reader must not interpret v6 pages (and vice versa); v7 stores
/// each R*-tree leaf entry as its segment plus the node's own parent
/// reach (44 B, DESIGN.md §14), where v6 stored a 56 B box. DbEnv
/// refuses to open a store whose trailer byte is a known-but-different
/// version (Status::VersionMismatch, see page_crc.h).
inline constexpr uint32_t kPageTrailerSize = 8;
inline constexpr uint8_t kPageFormatVersion = 7;
/// Oldest format byte that ever appeared in a trailer (v1–v4 predate
/// the trailer itself, so no stamped page can carry them).
inline constexpr uint8_t kMinPageFormatVersion = 5;
/// Upper bound of the "plausibly a future format" window used when
/// classifying a foreign trailer byte at open time: bytes in
/// (kPageFormatVersion, kMaxPlausiblePageFormatVersion] read as a
/// newer store, anything beyond as plain corruption.
inline constexpr uint8_t kMaxPlausiblePageFormatVersion = 15;
inline constexpr uint32_t kPageTrailerCrcOff = 0;
inline constexpr uint32_t kPageTrailerFormatOff = 4;

/// Reference to a record inside a heap file: page plus slot index.
struct RecordId {
  PageId page = kInvalidPage;
  uint16_t slot = 0;

  bool valid() const { return page != kInvalidPage; }

  /// Packs into 48 bits (page:32, slot:16) for storage in index
  /// payloads.
  uint64_t Pack() const {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static RecordId Unpack(uint64_t packed) {
    RecordId rid;
    rid.page = static_cast<PageId>(packed >> 16);
    rid.slot = static_cast<uint16_t>(packed & 0xFFFF);
    return rid;
  }

  friend bool operator==(const RecordId& a, const RecordId& b) {
    return a.page == b.page && a.slot == b.slot;
  }
};

}  // namespace dm

#endif  // DIRECTMESH_STORAGE_PAGE_H_
