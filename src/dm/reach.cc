#include "dm/reach.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace dm {

ReachTable BuildReachTable(const PmTree& tree) {
  // (e_high, distance to parent) per parent link.
  std::vector<std::pair<double, double>> links;
  links.reserve(static_cast<size_t>(tree.num_nodes()));
  for (VertexId id = 0; id < tree.num_nodes(); ++id) {
    const PmNode& n = tree.node(id);
    if (n.is_root()) continue;
    links.emplace_back(n.e_high, XyDistance(n.pos, tree.node(n.parent).pos));
  }
  std::sort(links.begin(), links.end());
  ReachTable table;
  double running = -1.0;
  for (size_t i = 0; i < links.size();) {
    // Equal e_high values form one step: take the group's max before
    // deciding whether the running maximum rose.
    const double h = links[i].first;
    for (; i < links.size() && links[i].first == h; ++i) {
      running = std::max(running, links[i].second);
    }
    if (table.empty() || running > table.back().dist) {
      table.push_back({h, running});
    }
  }
  return table;
}

double ReachAt(const ReachTable& table, double h) {
  const auto it = std::upper_bound(
      table.begin(), table.end(), h,
      [](double v, const ReachStep& s) { return v < s.e_high; });
  return it == table.begin() ? 0.0 : std::prev(it)->dist;
}

ReachTable MergeReachTables(const ReachTable& a, const ReachTable& b) {
  ReachTable out;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    double h;
    if (j == b.size() || (i < a.size() && a[i].e_high <= b[j].e_high)) {
      h = a[i].e_high;
    } else {
      h = b[j].e_high;
    }
    while (i < a.size() && a[i].e_high == h) ++i;
    while (j < b.size() && b[j].e_high == h) ++j;
    const double d = std::max(ReachAt(a, h), ReachAt(b, h));
    if (out.empty() || d > out.back().dist) out.push_back({h, d});
  }
  return out;
}

Status ValidateReachTable(const ReachTable& table) {
  for (size_t i = 0; i < table.size(); ++i) {
    const ReachStep& s = table[i];
    if (!std::isfinite(s.e_high) || !std::isfinite(s.dist) ||
        s.e_high < 0.0 || s.dist < 0.0) {
      return Status::Corruption("reach entry " + std::to_string(i) +
                                " is negative or not finite");
    }
    if (i > 0 && (s.e_high <= table[i - 1].e_high ||
                  s.dist <= table[i - 1].dist)) {
      return Status::Corruption("reach entry " + std::to_string(i) +
                                " does not increase on both columns");
    }
  }
  return Status::OK();
}

}  // namespace dm
