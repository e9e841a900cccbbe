#ifndef DIRECTMESH_DM_DM_NODE_H_
#define DIRECTMESH_DM_DM_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"

namespace dm {

struct DmNode;

/// Handle to an immutable decoded node. A node resident in the
/// decoded-node cache comes as a non-owning handle (empty owner,
/// `use_count() == 0`): every query worker aliases the table's one
/// decode, and copying the handle touches no refcount. It stays valid
/// until the store is destroyed or re-sizes its cache (DmStore::
/// EnableNodeCache). Any other decode comes owning, as a plain
/// shared_ptr.
using NodeRef = std::shared_ptr<const DmNode>;

/// A Direct Mesh node: the PM record plus the LOD interval and the
/// list of connection points with similar LOD ("a direct mesh is
/// constructed from a PM by adding a list of IDs for the connection
/// points of similar LOD to each node").
struct DmNode {
  VertexId id = kInvalidVertex;
  Point3 pos;
  double e_low = 0.0;
  double e_high = 0.0;  // +inf at the root
  VertexId parent = kInvalidVertex;
  VertexId child1 = kInvalidVertex;
  VertexId child2 = kInvalidVertex;
  VertexId wing1 = kInvalidVertex;
  VertexId wing2 = kInvalidVertex;
  /// Connection points with similar (interval-overlapping) LOD,
  /// sorted by id.
  std::vector<VertexId> connections;

  bool is_leaf() const { return child1 == kInvalidVertex; }
  bool AliveAt(double e) const { return e_low <= e && e < e_high; }
  bool IntervalOverlaps(double lo, double hi) const {
    // [e_low, e_high) vs [lo, hi]
    return e_low <= hi && e_high > lo;
  }

  /// Serialized size in bytes (flat encoding).
  uint32_t EncodedSize() const;
  /// Appends the flat binary encoding to `out`.
  void EncodeTo(std::vector<uint8_t>* out) const;
  /// Decodes a record produced by EncodeTo.
  static Result<DmNode> Decode(const uint8_t* data, uint32_t size);
};

/// On-disk record codec of a DM store's heap file. Persisted in the
/// store meta as its integer value; every reader dispatches through
/// DecodeDmRecord so the two formats coexist behind one call site.
/// Value 1 belonged to the retired per-record varint codec and is
/// never reused.
enum class DmCodec : uint8_t {
  kFlat = 0,   ///< fixed-width records, the paper's layout (EncodeTo)
  kGroup = 2,  ///< v6 page-level frame-of-reference groups
};

/// Human-readable codec name for tooling ("flat" / "group").
const char* DmCodecName(DmCodec codec);

/// Parses a persisted codec value (meta sidecar or dataset-cache
/// manifest). 1, the retired per-record codec, is NotSupported; any
/// other value outside {0, 2} is Corruption.
Result<DmCodec> ParseDmCodec(int64_t value);

/// Builds one v6 group blob: many nodes encoded against shared
/// frame-of-reference bases (DESIGN.md §15). The blob layout is
///
///   header (40 B): n u16 | dir_off u16 | dict_off u16 | dict_count u16
///                  | base_id i64 | base_x f64 | base_y f64 | base_z f64
///   bodies:        concatenated per-record varint bodies [40, dir_off)
///   directory:     n x u16 body start offsets at dir_off (record i's
///                  body ends where record i+1 begins, or at dir_off)
///   dictionary:    dict_count x f64 raw bit patterns at dict_off
///
/// Bases freeze at the first record added (first id, first position's
/// raw doubles) and the e-value dictionary is insertion-ordered, so a
/// group's bytes depend only on the record sequence — never on thread
/// count or hash order. Add() tracks the exact final blob size and
/// rejects (returning false, with no state change) any record that
/// would push it past `max_bytes`, which makes greedy first-fit
/// packing over a deterministic order itself deterministic.
class DmNodeGroupEncoder {
 public:
  explicit DmNodeGroupEncoder(uint32_t max_bytes) : max_bytes_(max_bytes) {}

  /// Appends `node` to the group. Returns false without changing any
  /// state if the encoded blob would exceed max_bytes (or a u16
  /// offset/count limit); the caller then finishes this group and
  /// starts a fresh one.
  bool Add(const DmNode& node);

  uint32_t count() const { return n_; }
  /// Exact size of the blob Finish() would produce right now.
  uint32_t size_bytes() const;

  /// Assembles the blob into `out` (overwriting it) and resets the
  /// encoder for the next group. Requires count() >= 1.
  void Finish(std::vector<uint8_t>* out);

 private:
  uint32_t max_bytes_;
  uint32_t n_ = 0;
  int64_t base_id_ = 0;
  double base_x_ = 0, base_y_ = 0, base_z_ = 0;
  std::vector<uint8_t> bodies_;
  std::vector<uint16_t> offsets_;          // body starts, blob-relative
  std::vector<uint64_t> dict_;             // f64 bit patterns, insertion order
  std::unordered_map<uint64_t, uint32_t> dict_index_;
};

/// Read-side access to a v6 group blob. Stateless: each call re-parses
/// the 40-byte header (cheap) and touches only the requested record's
/// body, so a point fetch of one record decodes one record, not the
/// page.
struct DmNodeGroup {
  /// Number of records in the blob.
  static Result<uint32_t> Count(const uint8_t* data, uint32_t size);
  /// Decodes record `index` (0-based). Every malformed input —
  /// truncation, bad offsets, overlong varints, out-of-range
  /// dictionary indexes, trailing bytes — returns Corruption.
  static Result<DmNode> DecodeRecord(const uint8_t* data, uint32_t size,
                                     uint32_t index);
};

/// Decodes one heap record under `codec`. For kGroup, `slot` is the
/// record index inside the blob (RecordId::slot); the flat codec
/// ignores it because the bytes are the whole record.
Result<DmNode> DecodeDmRecord(DmCodec codec, uint16_t slot,
                              const uint8_t* data, uint32_t size);

/// Greedy first-fit group packing shared by the store builder and the
/// shard builder: feeds `node_at(0..count)` in order into group encoders
/// capped at `max_block_bytes`, emitting one blob + record count per
/// group. Fails (Internal) only if a single record exceeds the cap.
Status EncodeNodeGroups(const std::function<const DmNode&(size_t)>& node_at,
                        size_t count, uint32_t max_block_bytes,
                        std::vector<std::vector<uint8_t>>* blobs,
                        std::vector<uint32_t>* counts);

}  // namespace dm

#endif  // DIRECTMESH_DM_DM_NODE_H_
