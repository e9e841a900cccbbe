#ifndef DIRECTMESH_DM_REACH_H_
#define DIRECTMESH_DM_REACH_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "common/status.h"
#include "pm/pm_tree.h"

namespace dm {

/// One breakpoint of the parent-reach function D (DESIGN.md §18):
/// D(h) = `dist` for `e_high` <= h < the next breakpoint's `e_high`.
struct ReachStep {
  double e_high = 0.0;
  double dist = 0.0;

  bool operator==(const ReachStep&) const = default;
};

/// The parent-reach function D as a step table: D(h) is the largest
/// xy distance between a node and its parent over all nodes with
/// e_high <= h. Only the breakpoints where the running maximum rises
/// are stored, so `e_high` and `dist` both strictly increase. Every
/// store carries its table; it is empty only when the store has no
/// parent links (one node), and then D = 0.
using ReachTable = std::vector<ReachStep>;

/// The xy distance the table measures (parent links and the
/// `parent-reach` audit must round identically).
inline double XyDistance(const Point3& a, const Point3& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// The parent reach an R*-tree leaf entry stores (format v7): the xy
/// distance from `pos` to `parent` rounded up to float, so never below
/// the distance it bounds; 0 when there is no parent (the root).
float ParentReach(const Point3& pos, const Point3* parent);

/// Computes D from the PM tree: one pass over the parent links plus
/// one sort by e_high.
ReachTable BuildReachTable(const PmTree& tree);

/// D(h): the reach of the last breakpoint at or below `h`, 0 below the
/// first one.
double ReachAt(const ReachTable& table, double h);

/// Pointwise maximum of two tables (a bound valid for either store is
/// valid for their union).
ReachTable MergeReachTables(const ReachTable& a, const ReachTable& b);

/// True when a store whose id space holds `id_space` nodes lacks the
/// table it must carry: more than one node means parent links, so only
/// a one-node store may have an empty table (D = 0).
inline bool ReachTableMissing(const ReachTable& table, int64_t id_space) {
  return table.empty() && id_space > 1;
}

/// Corruption unless every entry is finite and non-negative and both
/// columns strictly increase. An understated D silently drops nodes
/// from bounded fetches, so readers reject a damaged table outright.
Status ValidateReachTable(const ReachTable& table);

}  // namespace dm

#endif  // DIRECTMESH_DM_REACH_H_
