#ifndef DIRECTMESH_DM_INVARIANTS_H_
#define DIRECTMESH_DM_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dm/dm_store.h"
#include "mesh/triangle_mesh.h"
#include "pm/pm_tree.h"

namespace dm {

/// One detected violation of a named invariant. `invariant` is a
/// stable machine-readable identifier (see kInvariant* below); `detail`
/// is human-readable context naming the offending node/page.
struct InvariantViolation {
  std::string invariant;
  std::string detail;
};

/// Names of the invariants the checker audits. Stable strings: tests,
/// tools, and CI grep for them.
inline constexpr char kInvariantNodeCount[] = "node-count";
inline constexpr char kInvariantRecordDecode[] = "record-decode";
inline constexpr char kInvariantLodInterval[] = "lod-interval";
inline constexpr char kInvariantTreeLinks[] = "tree-links";
inline constexpr char kInvariantConnectionList[] = "connection-list";
inline constexpr char kInvariantConnectionExact[] = "connection-exactness";
inline constexpr char kInvariantRTreeMbb[] = "rtree-mbb";
inline constexpr char kInvariantRTreeEntry[] = "rtree-entry";
inline constexpr char kInvariantPinBalance[] = "pin-balance";
inline constexpr char kInvariantParentReach[] = "parent-reach";

/// Outcome of an invariant audit. `ok()` iff nothing was violated; the
/// counters record how much evidence backs a clean report.
struct InvariantReport {
  std::vector<InvariantViolation> violations;
  int64_t nodes_checked = 0;
  int64_t connections_checked = 0;
  int64_t rtree_nodes_checked = 0;
  /// Violations observed beyond the per-invariant recording cap.
  int64_t suppressed = 0;

  bool ok() const { return violations.empty() && suppressed == 0; }
  /// Multi-line summary: counters plus one line per violation.
  std::string ToString() const;
};

/// Knobs for the audit.
struct InvariantOptions {
  /// Per-invariant cap on recorded violations, so a grossly corrupt
  /// store still produces a readable report (the total is still
  /// counted in `suppressed`).
  int64_t max_violations_per_invariant = 16;
};

/// Structural audit of a built DM store using only on-disk state (no
/// source mesh needed — this is what `dmctl verify` runs):
///
///  - node-count:       heap record count and R*-tree size match the
///                      catalog's num_nodes / num_leaves.
///  - record-decode:    every heap record decodes, ids are unique and
///                      dense in [0, num_nodes).
///  - lod-interval:     0 <= e_low <= e_high for every node; leaves sit
///                      at e_low == 0; the unique root tops out at
///                      +inf; child intervals abut their parent's
///                      (child.e_high == parent.e_low), which makes
///                      [e_low, e_high) nest monotonically leaf-to-root
///                      — the paper's LOD normalization.
///  - tree-links:       parent/child pointers are mutually consistent
///                      and in range.
///  - connection-list:  lists are sorted, duplicate-free, symmetric
///                      (u in conn[v] iff v in conn[u]), and every pair
///                      has overlapping LOD intervals (the co-alive
///                      requirement).
///  - rtree-mbb:        every entry box of an internal node exactly
///                      bounds its child node's entries; levels
///                      decrease by one per step; leaf entry boxes are
///                      the vertical (x, y, [e_low, e_high]) segment of
///                      the record they point to.
///  - parent-reach:     every node's xy distance to its parent is at
///                      most D(node.e_high) of the catalog's reach
///                      table (skipped for stores without one) — an
///                      understated D would make bounded fetches drop
///                      nodes refinement needs.
///  - pin-balance:      the buffer pool is quiescent (zero pinned
///                      frames) once the audit's own guards are
///                      released.
///
/// Loads all decoded nodes in memory (O(num_nodes)); intended for
/// offline verification, not the query path.
Result<InvariantReport> VerifyDmStore(const DmStore& store,
                                      const InvariantOptions& options = {});

/// Ground-truth audit for small meshes: everything VerifyDmStore
/// checks, plus connection-exactness — the similar-LOD connection
/// lists are recomputed by brute force from the base mesh (for every
/// base edge, every interval-overlapping ancestor pair of its
/// endpoints is a required connection; nothing else is allowed) and
/// compared entry-for-entry against the stored lists, and every stored
/// record is compared field-for-field against its PmTree node.
/// Quadratic-ish in mesh depth; use on test-sized terrains.
Result<InvariantReport> VerifyDmStoreAgainstSource(
    const DmStore& store, const TriangleMesh& base, const PmTree& tree,
    const InvariantOptions& options = {});

}  // namespace dm

#endif  // DIRECTMESH_DM_INVARIANTS_H_
