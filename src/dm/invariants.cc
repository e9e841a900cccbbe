#include "dm/invariants.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "common/check.h"
#include "storage/buffer_pool.h"

namespace dm {

namespace {

/// Appends violations to a report, enforcing the per-invariant cap.
class Reporter {
 public:
  Reporter(InvariantReport* report, const InvariantOptions& options)
      : report_(report), options_(options) {
    // A non-positive cap would suppress every violation and yield a
    // failing report with no recorded evidence; always keep at least
    // the first finding per invariant.
    options_.max_violations_per_invariant =
        std::max<int64_t>(1, options_.max_violations_per_invariant);
  }

  void Add(const char* invariant, std::string detail) {
    int64_t& n = per_invariant_[invariant];
    ++n;
    if (n > options_.max_violations_per_invariant) {
      ++report_->suppressed;
      return;
    }
    report_->violations.push_back(
        InvariantViolation{invariant, std::move(detail)});
  }

 private:
  InvariantReport* report_;
  InvariantOptions options_;
  std::unordered_map<std::string, int64_t> per_invariant_;
};

struct LoadedNodes {
  /// Decoded records indexed by node id; `present[id]` marks slots
  /// actually seen on disk.
  std::vector<DmNode> nodes;
  std::vector<bool> present;
  /// Packed RecordId -> node id, for cross-checking index payloads.
  std::unordered_map<uint64_t, VertexId> rid_to_id;
  int64_t records = 0;
};

/// The id space records may legally reference: the global id bound for
/// a spatial shard (DmMeta::id_space), num_nodes for a complete store.
int64_t IdSpaceOf(const DmMeta& meta) {
  return meta.id_space > 0 ? meta.id_space : meta.num_nodes;
}

/// A shard store holds a sparse subset of a larger id space; absent
/// ids, and links or connection targets that land outside the shard,
/// are expected there — not corruption (DESIGN.md §16).
bool IsPartialStore(const DmMeta& meta) {
  return IdSpaceOf(meta) > meta.num_nodes;
}

Status LoadNodes(const DmStore& store, Reporter& rep, LoadedNodes* out) {
  const int64_t total = IdSpaceOf(store.meta());
  out->nodes.resize(static_cast<size_t>(total));
  out->present.assign(static_cast<size_t>(total), false);
  out->rid_to_id.reserve(static_cast<size_t>(total));
  const DmCodec codec = store.meta().codec;
  DM_RETURN_NOT_OK(store.heap().Scan([&](RecordId rid, const uint8_t* data,
                                         uint32_t size) {
    ++out->records;
    Result<DmNode> node_or = DecodeDmRecord(codec, rid.slot, data, size);
    if (!node_or.ok()) {
      rep.Add(kInvariantRecordDecode,
              "record (" + std::to_string(rid.page) + ", " +
                  std::to_string(rid.slot) +
                  ") does not decode: " + node_or.status().ToString());
      return true;
    }
    DmNode node = std::move(node_or).value();
    if (node.id < 0 || node.id >= total) {
      rep.Add(kInvariantRecordDecode,
              "record (" + std::to_string(rid.page) + ", " +
                  std::to_string(rid.slot) + ") carries id " +
                  std::to_string(node.id) + " outside [0, " +
                  std::to_string(total) + ")");
      return true;
    }
    if (out->present[static_cast<size_t>(node.id)]) {
      rep.Add(kInvariantRecordDecode,
              "node " + std::to_string(node.id) + " stored twice");
      return true;
    }
    out->present[static_cast<size_t>(node.id)] = true;
    out->rid_to_id.emplace(rid.Pack(), node.id);
    out->nodes[static_cast<size_t>(node.id)] = std::move(node);
    return true;
  }));
  return Status::OK();
}

bool IntervalsOverlap(const DmNode& a, const DmNode& b) {
  return std::max(a.e_low, b.e_low) < std::min(a.e_high, b.e_high);
}

std::string NodeTag(VertexId id) { return "node " + std::to_string(id); }

void CheckLodIntervals(const LoadedNodes& ln, const DmMeta& meta,
                       Reporter& rep) {
  const int64_t total = IdSpaceOf(meta);
  const bool partial = IsPartialStore(meta);
  int64_t roots = 0;
  int64_t leaves = 0;
  for (VertexId id = 0; id < total; ++id) {
    if (!ln.present[static_cast<size_t>(id)]) {
      // In a shard, an absent id lives in another region's store; the
      // exact per-shard record count is still enforced by the caller's
      // records == num_nodes check.
      if (!partial) {
        rep.Add(kInvariantNodeCount, NodeTag(id) + " missing from the heap");
      }
      continue;
    }
    const DmNode& n = ln.nodes[static_cast<size_t>(id)];
    if (!(n.e_low >= 0.0)) {
      rep.Add(kInvariantLodInterval,
              NodeTag(id) + " has negative e_low " + std::to_string(n.e_low));
    }
    if (!(n.e_low <= n.e_high)) {
      rep.Add(kInvariantLodInterval,
              NodeTag(id) + " has inverted interval [" +
                  std::to_string(n.e_low) + ", " + std::to_string(n.e_high) +
                  ")");
    }
    if (n.is_leaf()) {
      ++leaves;
      if (n.e_low != 0.0) {
        rep.Add(kInvariantLodInterval,
                NodeTag(id) + " is a leaf but e_low = " +
                    std::to_string(n.e_low) + " (normalization puts leaves "
                    "at 0)");
      }
    }
    if (n.parent == kInvalidVertex) {
      ++roots;
      if (!std::isinf(n.e_high)) {
        rep.Add(kInvariantLodInterval,
                NodeTag(id) + " is the root but e_high = " +
                    std::to_string(n.e_high) + " (expected +inf)");
      }
    } else if (n.parent >= 0 && n.parent < total &&
               ln.present[static_cast<size_t>(n.parent)]) {
      // Nesting along the ancestor chain: a child's interval must end
      // exactly where its parent's begins, which chains into monotone
      // leaf-to-root nesting.
      const DmNode& p = ln.nodes[static_cast<size_t>(n.parent)];
      if (n.e_high != p.e_low) {
        rep.Add(kInvariantLodInterval,
                NodeTag(id) + " interval tops out at " +
                    std::to_string(n.e_high) + " but parent " +
                    std::to_string(n.parent) + " starts at " +
                    std::to_string(p.e_low));
      }
    }
  }
  // Every store is a subset of ONE PM tree, so there is exactly one
  // global root; a shard sees it only when the root vertex falls in
  // its region.
  if (partial ? roots > 1 : roots != 1) {
    rep.Add(kInvariantTreeLinks,
            std::string("expected ") +
                (partial ? "at most one root" : "exactly one root") +
                ", found " + std::to_string(roots));
  }
  if (leaves != meta.num_leaves) {
    rep.Add(kInvariantNodeCount,
            "catalog claims " + std::to_string(meta.num_leaves) +
                " leaves, store has " + std::to_string(leaves));
  }
}

void CheckParentReach(const LoadedNodes& ln, const ReachTable& reach,
                      Reporter& rep) {
  const int64_t total = static_cast<int64_t>(ln.nodes.size());
  for (VertexId id = 0; id < total; ++id) {
    if (!ln.present[static_cast<size_t>(id)]) continue;
    const DmNode& n = ln.nodes[static_cast<size_t>(id)];
    // Links to absent parents are tree-links' (or a shard's) business.
    if (n.parent < 0 || n.parent >= total ||
        !ln.present[static_cast<size_t>(n.parent)]) {
      continue;
    }
    const double dist =
        XyDistance(n.pos, ln.nodes[static_cast<size_t>(n.parent)].pos);
    const double bound = ReachAt(reach, n.e_high);
    if (!(dist <= bound)) {
      rep.Add(kInvariantParentReach,
              NodeTag(id) + " lies " + std::to_string(dist) +
                  " from parent " + std::to_string(n.parent) +
                  " but the reach table allows " + std::to_string(bound) +
                  " at e_high " + std::to_string(n.e_high));
    }
  }
}

void CheckTreeLinks(const LoadedNodes& ln, Reporter& rep) {
  const int64_t total = static_cast<int64_t>(ln.nodes.size());
  auto in_range = [&](VertexId v) { return v >= 0 && v < total; };
  for (VertexId id = 0; id < total; ++id) {
    if (!ln.present[static_cast<size_t>(id)]) continue;
    const DmNode& n = ln.nodes[static_cast<size_t>(id)];
    for (const VertexId link : {n.parent, n.child1, n.child2}) {
      if (link != kInvalidVertex && !in_range(link)) {
        rep.Add(kInvariantTreeLinks,
                NodeTag(id) + " links to out-of-range node " +
                    std::to_string(link));
      }
    }
    if ((n.child1 == kInvalidVertex) != (n.child2 == kInvalidVertex)) {
      rep.Add(kInvariantTreeLinks,
              NodeTag(id) + " has exactly one child (PM collapses always "
              "produce two)");
    }
    for (const VertexId child : {n.child1, n.child2}) {
      if (child == kInvalidVertex || !in_range(child) ||
          !ln.present[static_cast<size_t>(child)]) {
        continue;
      }
      if (ln.nodes[static_cast<size_t>(child)].parent != id) {
        rep.Add(kInvariantTreeLinks,
                NodeTag(child) + " does not point back to its parent " +
                    std::to_string(id));
      }
    }
  }
}

int64_t CheckConnectionLists(const LoadedNodes& ln, bool partial,
                             Reporter& rep) {
  const int64_t total = static_cast<int64_t>(ln.nodes.size());
  int64_t checked = 0;
  for (VertexId id = 0; id < total; ++id) {
    if (!ln.present[static_cast<size_t>(id)]) continue;
    const DmNode& n = ln.nodes[static_cast<size_t>(id)];
    if (!std::is_sorted(n.connections.begin(), n.connections.end())) {
      rep.Add(kInvariantConnectionList,
              NodeTag(id) + " connection list is not sorted");
    }
    if (std::adjacent_find(n.connections.begin(), n.connections.end()) !=
        n.connections.end()) {
      rep.Add(kInvariantConnectionList,
              NodeTag(id) + " connection list has duplicates");
    }
    for (const VertexId c : n.connections) {
      ++checked;
      if (c < 0 || c >= total) {
        rep.Add(kInvariantConnectionList,
                NodeTag(id) + " lists connection " + std::to_string(c) +
                    " outside the id space");
        continue;
      }
      if (!ln.present[static_cast<size_t>(c)]) {
        // Connection lists cross region boundaries; in a shard an
        // in-range absent target lives in a sibling shard, and the
        // symmetry/overlap checks run where it is stored.
        if (!partial) {
          rep.Add(kInvariantConnectionList,
                  NodeTag(id) + " lists connection " + std::to_string(c) +
                      " which is not a stored node");
        }
        continue;
      }
      if (c == id) {
        rep.Add(kInvariantConnectionList,
                NodeTag(id) + " lists itself as a connection");
        continue;
      }
      const DmNode& other = ln.nodes[static_cast<size_t>(c)];
      if (!IntervalsOverlap(n, other)) {
        rep.Add(kInvariantConnectionList,
                NodeTag(id) + " lists " + std::to_string(c) +
                    " but their LOD intervals do not overlap (never "
                    "co-alive)");
      }
      if (!std::binary_search(other.connections.begin(),
                              other.connections.end(), id)) {
        rep.Add(kInvariantConnectionList,
                "connection " + std::to_string(id) + " -> " +
                    std::to_string(c) + " is not symmetric");
      }
    }
  }
  return checked;
}

int64_t CheckRTree(const DmStore& store, const LoadedNodes& ln,
                   Reporter& rep) {
  struct NodeInfo {
    uint16_t level = 0;
    Box box;  // exact union of the node's entry boxes
    bool seen = false;
  };
  std::unordered_map<PageId, NodeInfo> infos;
  // Parent-side expectations, resolved after the walk (children are
  // visited after the parent records the entry box).
  struct ChildRef {
    PageId parent = kInvalidPage;
    PageId child = kInvalidPage;
    Box entry_box;
    uint16_t parent_level = 0;
  };
  std::vector<ChildRef> refs;
  int64_t visited = 0;
  int64_t leaf_entries = 0;
  const double max_lod = store.meta().max_lod;

  const Status walk = store.rtree().VisitNodes(
      [&](PageId id, uint16_t level, const std::vector<RTreeEntry>& entries) {
        ++visited;
        NodeInfo info;
        info.level = level;
        info.seen = true;
        for (const auto& [box, payload, reach] : entries) {
          info.box.ExpandToInclude(box);
          if (level > 0) {
            refs.push_back(
                ChildRef{id, static_cast<PageId>(payload), box, level});
            continue;
          }
          ++leaf_entries;
          // Leaf entries must be the vertical LOD segment of the
          // record they reference, exactly as Build wrote it.
          const auto it = ln.rid_to_id.find(payload);
          if (it == ln.rid_to_id.end()) {
            rep.Add(kInvariantRTreeEntry,
                    "leaf entry on page " + std::to_string(id) +
                        " references record " + std::to_string(payload) +
                        " which is not in the heap");
            continue;
          }
          const DmNode& n = ln.nodes[static_cast<size_t>(it->second)];
          const double top = std::isinf(n.e_high) ? max_lod : n.e_high;
          const Box expect =
              Box::Of(n.pos.x, n.pos.y, n.e_low, n.pos.x, n.pos.y,
                      std::max(top, n.e_low));
          if (box.lo != expect.lo || box.hi != expect.hi) {
            rep.Add(kInvariantRTreeEntry,
                    "leaf entry for " + NodeTag(n.id) + " on page " +
                        std::to_string(id) + " is " + box.ToString() +
                        ", expected the LOD segment " + expect.ToString());
          }
          // The entry's parent reach must be the parent distance
          // rounded up to float (0 at the root): an understated one
          // drops nodes from bounded fetches. A shard may lack the
          // parent; its copied reach is checked in the source.
          const bool root = n.parent == kInvalidVertex;
          if (!root && (n.parent < 0 ||
                        n.parent >= static_cast<VertexId>(ln.nodes.size()) ||
                        !ln.present[static_cast<size_t>(n.parent)])) {
            continue;
          }
          const float want = ParentReach(
              n.pos,
              root ? nullptr : &ln.nodes[static_cast<size_t>(n.parent)].pos);
          if (reach != want) {
            rep.Add(kInvariantParentReach,
                    "leaf entry for " + NodeTag(n.id) + " on page " +
                        std::to_string(id) + " stores parent reach " +
                        std::to_string(reach) + ", expected " +
                        std::to_string(want));
          }
        }
        infos[id] = info;
        return true;
      });
  if (!walk.ok()) {
    rep.Add(kInvariantRTreeMbb, "index walk failed: " + walk.ToString());
    return visited;
  }

  for (const ChildRef& ref : refs) {
    const auto it = infos.find(ref.child);
    if (it == infos.end() || !it->second.seen) {
      rep.Add(kInvariantRTreeMbb,
              "page " + std::to_string(ref.parent) +
                  " references child page " + std::to_string(ref.child) +
                  " that the walk never reached");
      continue;
    }
    const NodeInfo& child = it->second;
    if (child.level + 1 != ref.parent_level) {
      rep.Add(kInvariantRTreeMbb,
              "page " + std::to_string(ref.child) + " is at level " +
                  std::to_string(child.level) + " under a level-" +
                  std::to_string(ref.parent_level) + " parent");
    }
    if (!ref.entry_box.Contains(child.box)) {
      rep.Add(kInvariantRTreeMbb,
              "MBB of page " + std::to_string(ref.child) + " " +
                  child.box.ToString() + " is not contained in its parent "
                  "entry " + ref.entry_box.ToString());
    }
  }

  if (leaf_entries != store.meta().rtree_size) {
    rep.Add(kInvariantNodeCount,
            "index holds " + std::to_string(leaf_entries) +
                " leaf entries, catalog claims " +
                std::to_string(store.meta().rtree_size));
  }
  return visited;
}

}  // namespace

std::string InvariantReport::ToString() const {
  std::ostringstream out;
  out << "invariant audit: " << nodes_checked << " nodes, "
      << connections_checked << " connection entries, " << rtree_nodes_checked
      << " index nodes checked";
  if (ok()) {
    out << "; all invariants hold";
    return out.str();
  }
  out << "; " << violations.size() << " violation(s)";
  if (suppressed > 0) out << " (+" << suppressed << " suppressed)";
  for (const InvariantViolation& v : violations) {
    out << "\n  [" << v.invariant << "] " << v.detail;
  }
  return out.str();
}

Result<InvariantReport> VerifyDmStore(const DmStore& store,
                                      const InvariantOptions& options) {
  InvariantReport report;
  Reporter rep(&report, options);

  LoadedNodes ln;
  DM_RETURN_NOT_OK(LoadNodes(store, rep, &ln));
  report.nodes_checked = ln.records;
  if (ln.records != store.meta().num_nodes) {
    rep.Add(kInvariantNodeCount,
            "heap holds " + std::to_string(ln.records) +
                " records, catalog claims " +
                std::to_string(store.meta().num_nodes));
  }

  CheckLodIntervals(ln, store.meta(), rep);
  CheckTreeLinks(ln, rep);
  CheckParentReach(ln, store.meta().reach, rep);
  report.connections_checked =
      CheckConnectionLists(ln, IsPartialStore(store.meta()), rep);
  report.rtree_nodes_checked = CheckRTree(store, ln, rep);

  // Every guard the audit took is released by now; a non-quiescent
  // pool means someone leaked a pin.
  const int64_t pinned = store.env()->pool().pinned_frames();
  if (pinned != 0) {
    rep.Add(kInvariantPinBalance,
            std::to_string(pinned) +
                " buffer frame(s) still pinned after the audit (leaked "
                "PageGuard or pin/unpin imbalance)");
  }
  return report;
}

Result<InvariantReport> VerifyDmStoreAgainstSource(
    const DmStore& store, const TriangleMesh& base, const PmTree& tree,
    const InvariantOptions& options) {
  DM_ASSIGN_OR_RETURN(InvariantReport report, VerifyDmStore(store, options));
  Reporter rep(&report, options);

  LoadedNodes ln;
  DM_RETURN_NOT_OK(LoadNodes(store, rep, &ln));

  const int64_t total = tree.num_nodes();
  if (static_cast<int64_t>(ln.nodes.size()) != total) {
    rep.Add(kInvariantNodeCount,
            "store has " + std::to_string(ln.nodes.size()) +
                " node slots, source tree has " + std::to_string(total));
    return report;
  }

  // Field-for-field comparison against the in-memory ground truth.
  for (VertexId id = 0; id < total; ++id) {
    if (!ln.present[static_cast<size_t>(id)]) continue;
    const DmNode& n = ln.nodes[static_cast<size_t>(id)];
    const PmNode& p = tree.node(id);
    if (!(n.pos == p.pos) || n.e_low != p.e_low || n.e_high != p.e_high ||
        n.parent != p.parent || n.child1 != p.child1 ||
        n.child2 != p.child2 || n.wing1 != p.wing1 || n.wing2 != p.wing2) {
      rep.Add(kInvariantRecordDecode,
              NodeTag(id) + " differs from its source PM node");
    }
  }

  // Brute-force recomputation of the similar-LOD connection lists,
  // independent of the graph-contraction pass used at build time: for
  // every base-mesh edge (a, b), every pair (u, v) with u on a's
  // ancestor-or-self chain and v on b's whose LOD intervals overlap is
  // a required connection — u's leaf set touches a, v's touches b, so
  // they are adjacent in every cut both belong to. Nothing else may
  // appear (connection-list exactness, paper Section 4).
  std::vector<std::vector<VertexId>> expected(static_cast<size_t>(total));
  {
    auto overlap = [&](VertexId u, VertexId v) {
      const PmNode& a = tree.node(u);
      const PmNode& b = tree.node(v);
      return std::max(a.e_low, b.e_low) < std::min(a.e_high, b.e_high);
    };
    auto chain = [&](VertexId leaf) {
      std::vector<VertexId> c;
      for (VertexId v = leaf; v != kInvalidVertex; v = tree.node(v).parent) {
        c.push_back(v);
      }
      return c;
    };
    std::vector<std::pair<VertexId, VertexId>> edges;
    edges.reserve(static_cast<size_t>(base.num_triangles()) * 3u);
    for (const Triangle& t : base.triangles()) {
      for (int i = 0; i < 3; ++i) {
        VertexId a = t[i];
        VertexId b = t[(i + 1) % 3];
        if (a > b) std::swap(a, b);
        edges.emplace_back(a, b);
      }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    for (const auto& [a, b] : edges) {
      const std::vector<VertexId> ca = chain(a);
      const std::vector<VertexId> cb = chain(b);
      for (const VertexId u : ca) {
        for (const VertexId v : cb) {
          if (u == v || !overlap(u, v)) continue;
          expected[static_cast<size_t>(u)].push_back(v);
          expected[static_cast<size_t>(v)].push_back(u);
        }
      }
    }
    for (auto& list : expected) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
  }

  for (VertexId id = 0; id < total; ++id) {
    if (!ln.present[static_cast<size_t>(id)]) continue;
    const std::vector<VertexId>& got = ln.nodes[static_cast<size_t>(id)].connections;
    const std::vector<VertexId>& want = expected[static_cast<size_t>(id)];
    if (got == want) continue;
    std::vector<VertexId> missing;
    std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                        std::back_inserter(missing));
    std::vector<VertexId> extra;
    std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                        std::back_inserter(extra));
    std::ostringstream detail;
    detail << NodeTag(id) << " connection list is inexact:";
    if (!missing.empty()) {
      detail << " missing " << missing.size() << " (first: " << missing[0]
             << ")";
    }
    if (!extra.empty()) {
      detail << " stale " << extra.size() << " (first: " << extra[0] << ")";
    }
    rep.Add(kInvariantConnectionExact, detail.str());
  }
  return report;
}

}  // namespace dm
