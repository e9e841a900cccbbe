#include "dm/dm_node.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "dm/varint.h"

namespace dm {

namespace {
// Fixed part: id, parent, child1, child2, wing1, wing2 (6 x i64),
// x, y, z, e_low, e_high (5 x f64), conn_count (u32).
constexpr uint32_t kFixedSize = 6 * 8 + 5 * 8 + 4;

// e_high = +inf (root) is stored as the largest finite double so the
// record is bit-stable; Decode restores the infinity.
constexpr double kInfSentinel = std::numeric_limits<double>::max();

template <typename T>
void Append(std::vector<uint8_t>* out, T v) {
  const size_t n = out->size();
  out->resize(n + sizeof(T));
  std::memcpy(out->data() + n, &v, sizeof(T));
}

template <typename T>
T Read(const uint8_t*& p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  p += sizeof(T);
  return v;
}
}  // namespace

uint32_t DmNode::EncodedSize() const {
  return kFixedSize + static_cast<uint32_t>(connections.size()) * 8;
}

void DmNode::EncodeTo(std::vector<uint8_t>* out) const {
  out->reserve(out->size() + EncodedSize());
  Append<int64_t>(out, id);
  Append<int64_t>(out, parent);
  Append<int64_t>(out, child1);
  Append<int64_t>(out, child2);
  Append<int64_t>(out, wing1);
  Append<int64_t>(out, wing2);
  Append<double>(out, pos.x);
  Append<double>(out, pos.y);
  Append<double>(out, pos.z);
  Append<double>(out, e_low);
  Append<double>(out,
                 std::isinf(e_high) ? kInfSentinel : e_high);
  Append<uint32_t>(out, static_cast<uint32_t>(connections.size()));
  for (VertexId c : connections) Append<int64_t>(out, c);
}

Result<DmNode> DmNode::Decode(const uint8_t* data, uint32_t size) {
  if (size < kFixedSize) {
    return Status::Corruption("DM node record too small");
  }
  const uint8_t* p = data;
  DmNode n;
  n.id = Read<int64_t>(p);
  n.parent = Read<int64_t>(p);
  n.child1 = Read<int64_t>(p);
  n.child2 = Read<int64_t>(p);
  n.wing1 = Read<int64_t>(p);
  n.wing2 = Read<int64_t>(p);
  n.pos.x = Read<double>(p);
  n.pos.y = Read<double>(p);
  n.pos.z = Read<double>(p);
  n.e_low = Read<double>(p);
  n.e_high = Read<double>(p);
  if (n.e_high == kInfSentinel) {
    n.e_high = std::numeric_limits<double>::infinity();
  }
  const uint32_t count = Read<uint32_t>(p);
  if (size != kFixedSize + count * 8) {
    return Status::Corruption("DM node record size mismatch");
  }
  n.connections.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    n.connections[i] = Read<int64_t>(p);
  }
  return n;
}

namespace {

// ---- v6 group codec (DESIGN.md §15) ----------------------------------

constexpr uint32_t kGroupHeaderSize = 40;
// rflags bits 0/1/2: x/y/z stored as frame-of-reference integer
// residuals; the rest must be zero.
constexpr uint8_t kForX = 0x01;
constexpr uint8_t kForY = 0x02;
constexpr uint8_t kForZ = 0x04;
constexpr uint8_t kRflagsMask = kForX | kForY | kForZ;
// Group record counts live in the low 15 bits of the heap page's slot
// word (the block flag takes bit 15), so a group never exceeds this.
constexpr uint32_t kMaxGroupRecords = 0x7FFF;

uint64_t BitsOf(double v) {
  uint64_t b;
  std::memcpy(&b, &v, 8);
  return b;
}

double DoubleOf(uint64_t b) {
  double v;
  std::memcpy(&v, &b, 8);
  return v;
}

// DEM positions sit on an integer grid; QEM-placed internal vertices
// generally do not. A value participates in FoR coding only when it is
// exactly representable as an int64 within the double-exact window
// (|v| <= 9e15 < 2^53), so residual round-trips are bit-lossless.
bool IntegralValue(double v, int64_t* out) {
  if (!(v >= -9e15 && v <= 9e15)) return false;
  if (std::floor(v) != v) return false;
  *out = std::llround(v);
  return true;
}

struct GroupHeader {
  uint32_t n = 0;
  uint32_t dir_off = 0;
  uint32_t dict_off = 0;
  uint32_t dict_count = 0;
  int64_t base_id = 0;
  double base_x = 0, base_y = 0, base_z = 0;
};

Status ParseGroupHeader(const uint8_t* data, uint32_t size, GroupHeader* h) {
  if (size < kGroupHeaderSize) {
    return Status::Corruption("group blob: short header");
  }
  uint16_t u;
  std::memcpy(&u, data + 0, 2);
  h->n = u;
  std::memcpy(&u, data + 2, 2);
  h->dir_off = u;
  std::memcpy(&u, data + 4, 2);
  h->dict_off = u;
  std::memcpy(&u, data + 6, 2);
  h->dict_count = u;
  std::memcpy(&h->base_id, data + 8, 8);
  std::memcpy(&h->base_x, data + 16, 8);
  std::memcpy(&h->base_y, data + 24, 8);
  std::memcpy(&h->base_z, data + 32, 8);
  if (h->n < 1) return Status::Corruption("group blob: empty group");
  if (h->dir_off < kGroupHeaderSize || h->dir_off > size ||
      h->dict_off != h->dir_off + 2 * h->n ||
      h->dict_off + 8 * h->dict_count != size) {
    return Status::Corruption("group blob: inconsistent section offsets");
  }
  return Status::OK();
}

// Encodes one record body against the group bases. Appends to `out`.
void EncodeGroupBody(const DmNode& node, int64_t base_id, double base_x,
                     double base_y, double base_z,
                     const std::function<uint32_t(uint64_t)>& dict_idx,
                     std::vector<uint8_t>* out) {
  uint8_t rflags = 0;
  int64_t vi[3], bi[3];
  const double vals[3] = {node.pos.x, node.pos.y, node.pos.z};
  const double bases[3] = {base_x, base_y, base_z};
  const uint8_t bits[3] = {kForX, kForY, kForZ};
  for (int a = 0; a < 3; ++a) {
    if (IntegralValue(vals[a], &vi[a]) && IntegralValue(bases[a], &bi[a])) {
      rflags |= bits[a];
    }
  }
  out->push_back(rflags);
  PutVarint(out, ZigZag(node.id - base_id));
  for (int a = 0; a < 3; ++a) {
    if (rflags & bits[a]) {
      PutVarint(out, ZigZag(vi[a] - bi[a]));
    } else {
      const size_t p = out->size();
      out->resize(p + 8);
      std::memcpy(out->data() + p, &vals[a], 8);
    }
  }
  PutVarint(out, dict_idx(BitsOf(node.e_low)));
  PutVarint(out, dict_idx(BitsOf(node.e_high)));
  auto put_link = [&](VertexId link) {
    PutVarint(out,
              link == kInvalidVertex ? 0 : ZigZag(link - node.id) + 1);
  };
  put_link(node.parent);
  put_link(node.child1);
  put_link(node.child2);
  put_link(node.wing1);
  put_link(node.wing2);
  PutVarint(out, node.connections.size());
  VertexId prev = node.id;
  for (VertexId c : node.connections) {
    PutVarint(out, ZigZag(c - prev));
    prev = c;
  }
}

}  // namespace

const char* DmCodecName(DmCodec codec) {
  switch (codec) {
    case DmCodec::kFlat:
      return "flat";
    case DmCodec::kGroup:
      return "group";
  }
  return "unknown";
}

Result<DmCodec> ParseDmCodec(int64_t value) {
  switch (value) {
    case static_cast<int64_t>(DmCodec::kFlat):
      return DmCodec::kFlat;
    case static_cast<int64_t>(DmCodec::kGroup):
      return DmCodec::kGroup;
    case 1:
      return Status::NotSupported(
          "codec 1 (the per-record varint codec) is retired; rebuild the "
          "store with the flat or group codec");
  }
  return Status::Corruption("unknown codec " + std::to_string(value));
}

bool DmNodeGroupEncoder::Add(const DmNode& node) {
  // Candidate bases: frozen ones, or this node's if the group is empty.
  const int64_t base_id = n_ == 0 ? node.id : base_id_;
  const double bx = n_ == 0 ? node.pos.x : base_x_;
  const double by = n_ == 0 ? node.pos.y : base_y_;
  const double bz = n_ == 0 ? node.pos.z : base_z_;

  // Dictionary lookups go through `pending` so a rejected Add commits
  // nothing; e_low and e_high may share one new entry.
  std::vector<std::pair<uint64_t, uint32_t>> pending;
  auto dict_idx = [&](uint64_t bits) -> uint32_t {
    auto it = dict_index_.find(bits);
    if (it != dict_index_.end()) return it->second;
    for (const auto& p : pending) {
      if (p.first == bits) return p.second;
    }
    const uint32_t idx =
        static_cast<uint32_t>(dict_.size() + pending.size());
    pending.emplace_back(bits, idx);
    return idx;
  };

  std::vector<uint8_t> body;
  EncodeGroupBody(node, base_id, bx, by, bz, dict_idx, &body);

  const uint64_t new_dict = dict_.size() + pending.size();
  const uint64_t new_size = kGroupHeaderSize + bodies_.size() + body.size() +
                            2 * (n_ + 1ull) + 8 * new_dict;
  const uint64_t body_start = kGroupHeaderSize + bodies_.size();
  if (new_size > max_bytes_ || new_size > 0xFFFF ||
      body_start > 0xFFFF || n_ + 1 > kMaxGroupRecords ||
      new_dict > 0xFFFF) {
    return false;
  }

  if (n_ == 0) {
    base_id_ = base_id;
    base_x_ = bx;
    base_y_ = by;
    base_z_ = bz;
  }
  offsets_.push_back(static_cast<uint16_t>(body_start));
  bodies_.insert(bodies_.end(), body.begin(), body.end());
  for (const auto& p : pending) {
    dict_.push_back(p.first);
    dict_index_.emplace(p.first, p.second);
  }
  ++n_;
  return true;
}

uint32_t DmNodeGroupEncoder::size_bytes() const {
  return static_cast<uint32_t>(kGroupHeaderSize + bodies_.size() + 2 * n_ +
                               8 * dict_.size());
}

void DmNodeGroupEncoder::Finish(std::vector<uint8_t>* out) {
  DM_CHECK(n_ >= 1) << "Finish on empty group";
  const uint16_t n = static_cast<uint16_t>(n_);
  const uint16_t dir_off =
      static_cast<uint16_t>(kGroupHeaderSize + bodies_.size());
  const uint16_t dict_off = static_cast<uint16_t>(dir_off + 2 * n_);
  const uint16_t dict_count = static_cast<uint16_t>(dict_.size());
  out->clear();
  out->reserve(size_bytes());
  Append<uint16_t>(out, n);
  Append<uint16_t>(out, dir_off);
  Append<uint16_t>(out, dict_off);
  Append<uint16_t>(out, dict_count);
  Append<int64_t>(out, base_id_);
  Append<double>(out, base_x_);
  Append<double>(out, base_y_);
  Append<double>(out, base_z_);
  out->insert(out->end(), bodies_.begin(), bodies_.end());
  for (uint16_t off : offsets_) Append<uint16_t>(out, off);
  for (uint64_t bits : dict_) Append<uint64_t>(out, bits);
  DM_DCHECK(out->size() == size_bytes());
  n_ = 0;
  bodies_.clear();
  offsets_.clear();
  dict_.clear();
  dict_index_.clear();
}

Result<uint32_t> DmNodeGroup::Count(const uint8_t* data, uint32_t size) {
  GroupHeader h;
  DM_RETURN_NOT_OK(ParseGroupHeader(data, size, &h));
  return h.n;
}

Result<DmNode> DmNodeGroup::DecodeRecord(const uint8_t* data, uint32_t size,
                                         uint32_t index) {
  GroupHeader h;
  DM_RETURN_NOT_OK(ParseGroupHeader(data, size, &h));
  if (index >= h.n) {
    return Status::Corruption("group blob: record index " +
                              std::to_string(index) + " out of range (n=" +
                              std::to_string(h.n) + ")");
  }
  auto dir_entry = [&](uint32_t i) {
    uint16_t off;
    std::memcpy(&off, data + h.dir_off + 2 * i, 2);
    return static_cast<uint32_t>(off);
  };
  const uint32_t body_start = dir_entry(index);
  const uint32_t body_end =
      index + 1 < h.n ? dir_entry(index + 1) : h.dir_off;
  if (body_start < kGroupHeaderSize || body_start > body_end ||
      body_end > h.dir_off) {
    return Status::Corruption("group blob: bad body offsets");
  }

  uint32_t pos = body_start;
  if (pos >= body_end) {
    return Status::Corruption("group blob: empty record body");
  }
  const uint8_t rflags = data[pos++];
  if (rflags & ~kRflagsMask) {
    return Status::Corruption("group blob: unknown record flags");
  }
  uint64_t v = 0;
  DmNode n;
  if (!GetVarint(data, body_end, &pos, &v)) {
    return Status::Corruption("group blob: truncated id");
  }
  n.id = h.base_id + UnZigZag(v);

  double* coords[3] = {&n.pos.x, &n.pos.y, &n.pos.z};
  const double bases[3] = {h.base_x, h.base_y, h.base_z};
  const uint8_t bits[3] = {kForX, kForY, kForZ};
  for (int a = 0; a < 3; ++a) {
    if (rflags & bits[a]) {
      int64_t bi;
      if (!IntegralValue(bases[a], &bi)) {
        return Status::Corruption("group blob: FoR flag with fractional base");
      }
      if (!GetVarint(data, body_end, &pos, &v)) {
        return Status::Corruption("group blob: truncated coordinate");
      }
      *coords[a] = static_cast<double>(bi + UnZigZag(v));
    } else {
      if (pos + 8 > body_end) {
        return Status::Corruption("group blob: truncated raw coordinate");
      }
      std::memcpy(coords[a], data + pos, 8);
      pos += 8;
    }
  }

  auto get_dict = [&](double* out_val) {
    uint64_t idx;
    if (!GetVarint(data, body_end, &pos, &idx)) return false;
    if (idx >= h.dict_count) return false;
    uint64_t dbits;
    std::memcpy(&dbits, data + h.dict_off + 8 * idx, 8);
    *out_val = DoubleOf(dbits);
    return true;
  };
  if (!get_dict(&n.e_low) || !get_dict(&n.e_high)) {
    return Status::Corruption("group blob: bad LOD dictionary index");
  }

  auto get_link = [&](VertexId* link) {
    uint64_t raw;
    if (!GetVarint(data, body_end, &pos, &raw)) return false;
    *link = raw == 0 ? kInvalidVertex : n.id + UnZigZag(raw - 1);
    return true;
  };
  if (!get_link(&n.parent) || !get_link(&n.child1) || !get_link(&n.child2) ||
      !get_link(&n.wing1) || !get_link(&n.wing2)) {
    return Status::Corruption("group blob: truncated links");
  }

  uint64_t count = 0;
  if (!GetVarint(data, body_end, &pos, &count) || count > (1u << 24) ||
      count > body_end - pos) {
    return Status::Corruption("group blob: bad connection count");
  }
  n.connections.resize(count);
  VertexId prev = n.id;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t d;
    if (!GetVarint(data, body_end, &pos, &d)) {
      return Status::Corruption("group blob: truncated connection list");
    }
    prev += UnZigZag(d);
    n.connections[i] = prev;
  }
  if (pos != body_end) {
    return Status::Corruption("group blob: trailing record bytes");
  }
  return n;
}

Result<DmNode> DecodeDmRecord(DmCodec codec, uint16_t slot,
                              const uint8_t* data, uint32_t size) {
  switch (codec) {
    case DmCodec::kFlat:
      return DmNode::Decode(data, size);
    case DmCodec::kGroup:
      return DmNodeGroup::DecodeRecord(data, size, slot);
  }
  return Status::Corruption("unknown DM codec");
}

Status EncodeNodeGroups(const std::function<const DmNode&(size_t)>& node_at,
                        size_t count, uint32_t max_block_bytes,
                        std::vector<std::vector<uint8_t>>* blobs,
                        std::vector<uint32_t>* counts) {
  blobs->clear();
  counts->clear();
  DmNodeGroupEncoder enc(max_block_bytes);
  for (size_t i = 0; i < count; ++i) {
    const DmNode& node = node_at(i);
    if (enc.Add(node)) continue;
    if (enc.count() == 0) {
      return Status::Internal("DM node " + std::to_string(node.id) +
                              " does not fit in a " +
                              std::to_string(max_block_bytes) +
                              "-byte group block");
    }
    counts->push_back(enc.count());
    blobs->emplace_back();
    enc.Finish(&blobs->back());
    if (!enc.Add(node)) {
      return Status::Internal("DM node " + std::to_string(node.id) +
                              " does not fit in a " +
                              std::to_string(max_block_bytes) +
                              "-byte group block");
    }
  }
  if (enc.count() > 0) {
    counts->push_back(enc.count());
    blobs->emplace_back();
    enc.Finish(&blobs->back());
  }
  return Status::OK();
}

}  // namespace dm
