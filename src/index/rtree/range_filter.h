#ifndef DIRECTMESH_INDEX_RTREE_RANGE_FILTER_H_
#define DIRECTMESH_INDEX_RTREE_RANGE_FILTER_H_

#include "common/geometry.h"

namespace dm {

/// A conservative "may this entry hold a match" predicate layered on
/// top of a range query's box test. It may keep entries that hold no
/// match, but must never reject one that does: RStarTree prunes any
/// internal entry or leaf entry it rejects, so a wrong "no" drops
/// results. `reach` is the entry's own parent reach (RTreeEntry): a
/// finite bound for a leaf entry, +inf for an internal entry (no
/// per-entry bound; fall back to a dataset-wide one).
class RangeFilter {
 public:
  virtual ~RangeFilter() = default;
  virtual bool MayMatch(const Box& box, double reach) const = 0;
};

/// RAII guard arming a RangeFilter on the current thread for every
/// RStarTree::RangeQuery in its scope (DESIGN.md §18). Thread-local rather than a parameter for the same reason as
/// ScopedIoDeadline (storage/io_deadline.h): the predicate is chosen
/// by the query processor several layers above the index, and callers
/// in between (data sources, routers, decorators) run the traversal
/// themselves. Nested guards tighten — a box must pass every armed
/// filter — and the destructor restores the outer state exactly.
class ScopedRangeFilter {
 public:
  explicit ScopedRangeFilter(const RangeFilter* filter)
      : filter_(filter), outer_(tls()) {
    tls() = this;
  }
  ~ScopedRangeFilter() { tls() = outer_; }

  ScopedRangeFilter(const ScopedRangeFilter&) = delete;
  ScopedRangeFilter& operator=(const ScopedRangeFilter&) = delete;

  /// Does the entry (`box`, `reach`) pass every filter armed on this
  /// thread? (True when none is.)
  static bool Admits(const Box& box, double reach) {
    for (const ScopedRangeFilter* s = tls(); s != nullptr; s = s->outer_) {
      if (s->filter_ != nullptr && !s->filter_->MayMatch(box, reach)) {
        return false;
      }
    }
    return true;
  }

 private:
  static const ScopedRangeFilter*& tls() {
    thread_local const ScopedRangeFilter* innermost = nullptr;
    return innermost;
  }

  const RangeFilter* filter_;
  const ScopedRangeFilter* outer_;
};

}  // namespace dm

#endif  // DIRECTMESH_INDEX_RTREE_RANGE_FILTER_H_
