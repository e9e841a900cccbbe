#include "index/rtree/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <memory>

#include "common/check.h"
#include "common/thread_annotations.h"

namespace dm {

struct RStarTree::RootCache {
  Mutex mu;
  std::shared_ptr<const Node> node DM_GUARDED_BY(mu);
};

RStarTree::RStarTree(DbEnv* env, PageId root)
    : env_(env), root_(root), root_cache_(std::make_shared<RootCache>()) {}

Result<std::shared_ptr<const RStarTree::Node>> RStarTree::CachedRoot() const {
  {
    MutexLock lock(root_cache_->mu);
    if (root_cache_->node) return root_cache_->node;
  }
  // Read outside the lock; a racing miss reads the same frozen page.
  DM_ASSIGN_OR_RETURN(Node node, ReadNode(root_));
  auto decoded = std::make_shared<const Node>(std::move(node));
  MutexLock lock(root_cache_->mu);
  if (!root_cache_->node) root_cache_->node = decoded;
  return root_cache_->node;
}

namespace {

// Node page layout: [level u16][count u16][pad u32] then count entries
// of (6 x f64 box, u64 payload) = 56 bytes each.
constexpr uint32_t kLevelOff = 0;
constexpr uint32_t kCountOff = 2;
constexpr uint32_t kEntriesOff = 8;
constexpr uint32_t kEntrySize = 56;

// Fraction of capacity required in every node (R* default 40%), and
// the share of entries removed by forced reinsert (R* default 30%).
constexpr double kMinFill = 0.4;
constexpr double kReinsertShare = 0.3;

double Enlargement(const Box& box, const Box& add) {
  Box u = box;
  u.ExpandToInclude(add);
  return u.Volume() - box.Volume();
}

double OverlapWith(const Box& box, const std::vector<Box>& others,
                   size_t skip) {
  double total = 0.0;
  for (size_t i = 0; i < others.size(); ++i) {
    if (i == skip) continue;
    total += box.Intersection(others[i]).Volume();
  }
  return total;
}

}  // namespace

uint32_t RStarTree::MaxEntries() const {
  // One slot per page is reserved so a node can transiently hold
  // M + 1 entries on disk between the insert that overflows it and
  // the overflow treatment that splits or reinserts.
  return (env_->page_size() - kEntriesOff) / kEntrySize - 1;
}

uint32_t RStarTree::MinEntries() const {
  const uint32_t m = static_cast<uint32_t>(MaxEntries() * kMinFill);
  return std::max(2u, m);
}

uint32_t RStarTree::LeafCapacityFor(uint32_t page_size) {
  return (page_size - kEntriesOff) / kEntrySize - 1;
}

std::vector<size_t> RStarTree::StrOrder(const std::vector<Box>& boxes,
                                        uint32_t leaf_capacity) {
  WorkerPool pool(1);
  return StrOrder(boxes, leaf_capacity, pool);
}

std::vector<size_t> RStarTree::StrOrder(const std::vector<Box>& boxes,
                                        uint32_t leaf_capacity,
                                        WorkerPool& pool) {
  // Sort-Tile-Recursive in 3D: slice by x into vertical slabs, each
  // slab by y into runs, each run by segment top (e_high). Slab counts
  // follow the cube root rule and run counts the square root rule, so
  // leaves get near-square extents. Slabs and runs are cut only at
  // whole-leaf boundaries, spread evenly (slab i ends at leaf
  // floor((i+1)·L/slabs), run j of a slab at floor((j+1)·l/runs)), so
  // no leaf joins the top of one cell's e-order to the bottom of the
  // next and every leaf spans one cell and a narrow band of LOD.
  // Every comparator is a total order (index tie-break), so each
  // sorted range has exactly one answer: the x sort parallelizes as a
  // stable merge sort and the independent slab/run sorts fan out over
  // the pool without changing the permutation.
  const size_t n = boxes.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  if (n == 0 || leaf_capacity == 0) return order;

  auto center = [&](size_t i, int d) {
    return (boxes[i].lo[static_cast<size_t>(d)] +
            boxes[i].hi[static_cast<size_t>(d)]) /
           2;
  };
  // First entry of leaf `leaf` (the last leaf alone may be partial).
  auto leaf_start = [&](size_t leaf) {
    return std::min(n, leaf * static_cast<size_t>(leaf_capacity));
  };
  const auto num_leaves =
      static_cast<size_t>((n + leaf_capacity - 1) / leaf_capacity);
  const auto slabs_x = static_cast<size_t>(
      std::ceil(std::cbrt(static_cast<double>(num_leaves))));
  ParallelStableSort(pool, order, [&](size_t a, size_t b) {
    const double ca = center(a, 0);
    const double cb = center(b, 0);
    if (ca != cb) return ca < cb;
    return a < b;
  });

  // Collect the slab ranges (in leaves), y-sort them in parallel, then
  // collect the run ranges of every slab and e-sort those in parallel.
  // Ranges are disjoint, so workers never touch the same elements.
  std::vector<std::pair<size_t, size_t>> slabs;
  for (size_t i = 0; i < slabs_x; ++i) {
    slabs.emplace_back(i * num_leaves / slabs_x,
                       (i + 1) * num_leaves / slabs_x);
  }
  ParallelFor(pool, static_cast<int64_t>(slabs.size()), 1,
              [&](int64_t begin, int64_t end) {
                for (int64_t s = begin; s < end; ++s) {
                  const auto [l0, l1] = slabs[static_cast<size_t>(s)];
                  const size_t s0 = leaf_start(l0);
                  const size_t s1 = leaf_start(l1);
                  std::sort(order.begin() + static_cast<ptrdiff_t>(s0),
                            order.begin() + static_cast<ptrdiff_t>(s1),
                            [&](size_t a, size_t b) {
                              const double ca = center(a, 1);
                              const double cb = center(b, 1);
                              if (ca != cb) return ca < cb;
                              return a < b;
                            });
                }
              });
  std::vector<std::pair<size_t, size_t>> runs;
  for (const auto& [l0, l1] : slabs) {
    const size_t leaves_in_slab = l1 - l0;
    const auto runs_y = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(leaves_in_slab))));
    for (size_t j = 0; j < runs_y; ++j) {
      runs.emplace_back(leaf_start(l0 + j * leaves_in_slab / runs_y),
                        leaf_start(l0 + (j + 1) * leaves_in_slab / runs_y));
    }
  }
  // Within a run, ascending segment top puts fine segments (low
  // e_high) in the first leaves and coarse ones in the last, so a
  // plane query at LOD e skips the leaves whose tops lie below it.
  ParallelFor(pool, static_cast<int64_t>(runs.size()), 1,
              [&](int64_t begin, int64_t end) {
                for (int64_t r = begin; r < end; ++r) {
                  const auto [r0, r1] = runs[static_cast<size_t>(r)];
                  std::sort(order.begin() + static_cast<ptrdiff_t>(r0),
                            order.begin() + static_cast<ptrdiff_t>(r1),
                            [&](size_t a, size_t b) {
                              const double ta = boxes[a].hi[2];
                              const double tb = boxes[b].hi[2];
                              if (ta != tb) return ta < tb;
                              return a < b;
                            });
                }
              });
  return order;
}

Result<RStarTree> RStarTree::BulkLoad(
    DbEnv* env, const std::vector<std::pair<Box, uint64_t>>& ordered) {
  RStarTree tree(env, kInvalidPage);
  if (ordered.empty()) {
    Node root;
    root.level = 0;
    DM_ASSIGN_OR_RETURN(tree.root_, tree.AllocNode(root));
    return tree;
  }
  const uint32_t cap = tree.MaxEntries();

  // Level 0: pack consecutive runs into leaves.
  std::vector<Entry> level;  // (node box, node page) of the last level
  {
    Node leaf;
    leaf.level = 0;
    for (const auto& [box, payload] : ordered) {
      leaf.entries.push_back(Entry{box, payload});
      if (leaf.entries.size() == cap) {
        DM_ASSIGN_OR_RETURN(const PageId id, tree.AllocNode(leaf));
        level.push_back(Entry{NodeBox(leaf), id});
        leaf.entries.clear();
      }
    }
    if (!leaf.entries.empty()) {
      DM_ASSIGN_OR_RETURN(const PageId id, tree.AllocNode(leaf));
      level.push_back(Entry{NodeBox(leaf), id});
    }
  }

  // Upper levels: pack consecutive children until one node remains.
  uint16_t lvl = 1;
  while (level.size() > 1) {
    std::vector<Entry> next;
    Node node;
    node.level = lvl;
    for (const Entry& child : level) {
      node.entries.push_back(child);
      if (node.entries.size() == cap) {
        DM_ASSIGN_OR_RETURN(const PageId id, tree.AllocNode(node));
        next.push_back(Entry{NodeBox(node), id});
        node.entries.clear();
      }
    }
    if (!node.entries.empty()) {
      DM_ASSIGN_OR_RETURN(const PageId id, tree.AllocNode(node));
      next.push_back(Entry{NodeBox(node), id});
    }
    level = std::move(next);
    ++lvl;
  }
  tree.root_ = static_cast<PageId>(level.front().payload);
  tree.size_ = static_cast<int64_t>(ordered.size());
  return tree;
}

Result<RStarTree> RStarTree::Create(DbEnv* env) {
  RStarTree tree(env, kInvalidPage);
  Node root;
  root.level = 0;
  DM_ASSIGN_OR_RETURN(tree.root_, tree.AllocNode(root));
  return tree;
}

RStarTree RStarTree::Open(DbEnv* env, PageId root, int64_t size) {
  RStarTree t(env, root);
  t.size_ = size;
  return t;
}

Result<RStarTree::Node> RStarTree::ReadNode(PageId id) const {
  DM_ASSIGN_OR_RETURN(PageGuard page, env_->pool().Fetch(id));
  Node node;
  uint16_t count;
  std::memcpy(&node.level, page.data() + kLevelOff, 2);
  std::memcpy(&count, page.data() + kCountOff, 2);
  // M + 1 entries may legitimately sit on disk between an overflowing
  // insert and its overflow treatment.
  DM_ENSURE(kEntriesOff + static_cast<uint32_t>(count) * kEntrySize <=
                env_->page_size(),
            Status::Corruption("R*-tree node " + std::to_string(id) +
                               " entry count " + std::to_string(count) +
                               " exceeds page capacity"));
  node.entries.resize(count);
  const uint8_t* p = page.data() + kEntriesOff;
  for (uint16_t i = 0; i < count; ++i, p += kEntrySize) {
    std::memcpy(node.entries[i].box.lo.data(), p, 24);
    std::memcpy(node.entries[i].box.hi.data(), p + 24, 24);
    std::memcpy(&node.entries[i].payload, p + 48, 8);
  }
  return node;
}

Status RStarTree::WriteNode(PageId id, const Node& node) {
  DM_ASSIGN_OR_RETURN(PageGuard page, env_->pool().Fetch(id));
  const uint16_t count = static_cast<uint16_t>(node.entries.size());
  std::memcpy(page.data() + kLevelOff, &node.level, 2);
  std::memcpy(page.data() + kCountOff, &count, 2);
  uint8_t* p = page.data() + kEntriesOff;
  for (uint16_t i = 0; i < count; ++i, p += kEntrySize) {
    std::memcpy(p, node.entries[i].box.lo.data(), 24);
    std::memcpy(p + 24, node.entries[i].box.hi.data(), 24);
    std::memcpy(p + 48, &node.entries[i].payload, 8);
  }
  page.MarkDirty();
  return Status::OK();
}

Result<PageId> RStarTree::AllocNode(const Node& node) {
  DM_ASSIGN_OR_RETURN(PageGuard page, env_->pool().NewPage());
  const PageId id = page.id();
  page.Release();
  DM_RETURN_NOT_OK(WriteNode(id, node));
  return id;
}

Box RStarTree::NodeBox(const Node& node) {
  Box box;
  for (const Entry& e : node.entries) box.ExpandToInclude(e.box);
  return box;
}

Result<RStarTree::Path> RStarTree::ChoosePath(const Box& box,
                                              uint16_t target_level) const {
  Path path;
  PageId id = root_;
  while (true) {
    path.pages.push_back(id);
    DM_ASSIGN_OR_RETURN(Node node, ReadNode(id));
    if (node.level == target_level) return path;

    uint32_t best = 0;
    if (node.level == target_level + 1 && node.level > 0 &&
        target_level == 0) {
      // Children are leaves: minimize overlap enlargement (ties: area
      // enlargement, then area).
      std::vector<Box> child_boxes;
      child_boxes.reserve(node.entries.size());
      for (const Entry& e : node.entries) child_boxes.push_back(e.box);
      double best_overlap = std::numeric_limits<double>::infinity();
      double best_enl = best_overlap;
      double best_area = best_overlap;
      for (size_t i = 0; i < node.entries.size(); ++i) {
        Box enlarged = node.entries[i].box;
        enlarged.ExpandToInclude(box);
        const double before =
            OverlapWith(node.entries[i].box, child_boxes, i);
        const double after = OverlapWith(enlarged, child_boxes, i);
        const double d_overlap = after - before;
        const double d_enl = Enlargement(node.entries[i].box, box);
        const double area = node.entries[i].box.Volume();
        if (d_overlap < best_overlap ||
            (d_overlap == best_overlap &&
             (d_enl < best_enl ||
              (d_enl == best_enl && area < best_area)))) {
          best_overlap = d_overlap;
          best_enl = d_enl;
          best_area = area;
          best = static_cast<uint32_t>(i);
        }
      }
    } else {
      // Minimize area enlargement (ties: area).
      double best_enl = std::numeric_limits<double>::infinity();
      double best_area = best_enl;
      for (size_t i = 0; i < node.entries.size(); ++i) {
        const double d_enl = Enlargement(node.entries[i].box, box);
        const double area = node.entries[i].box.Volume();
        if (d_enl < best_enl || (d_enl == best_enl && area < best_area)) {
          best_enl = d_enl;
          best_area = area;
          best = static_cast<uint32_t>(i);
        }
      }
    }
    path.slots.push_back(best);
    id = static_cast<PageId>(node.entries[best].payload);
  }
}

Status RStarTree::AdjustPath(const Path& path) {
  // Recompute exact MBRs bottom-up (handles both growth and shrink).
  for (size_t i = path.pages.size(); i-- > 1;) {
    DM_ASSIGN_OR_RETURN(Node child, ReadNode(path.pages[i]));
    DM_ASSIGN_OR_RETURN(Node parent, ReadNode(path.pages[i - 1]));
    parent.entries[path.slots[i - 1]].box = NodeBox(child);
    DM_RETURN_NOT_OK(WriteNode(path.pages[i - 1], parent));
  }
  return Status::OK();
}

void RStarTree::SplitNode(const Node& node, uint32_t min_entries, Node* left,
                          Node* right) {
  // R* topological split. ChooseSplitAxis: for each axis, sort by lo
  // (and by hi) and sum margins over all legal distributions; pick the
  // axis with the minimum margin sum. ChooseSplitIndex: on that axis,
  // pick the distribution with minimum overlap (ties: minimum total
  // area).
  const uint32_t total = static_cast<uint32_t>(node.entries.size());
  const uint32_t m = min_entries;

  int best_axis = -1;
  bool best_by_hi = false;
  double best_margin_sum = std::numeric_limits<double>::infinity();

  std::vector<uint32_t> order(total);
  auto eval_axis = [&](int axis, bool by_hi) {
    for (uint32_t i = 0; i < total; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const Box& ba = node.entries[a].box;
      const Box& bb = node.entries[b].box;
      const double ka = by_hi ? ba.hi[axis] : ba.lo[axis];
      const double kb = by_hi ? bb.hi[axis] : bb.lo[axis];
      if (ka != kb) return ka < kb;
      return a < b;
    });
    // Prefix/suffix boxes for O(n) distribution evaluation.
    std::vector<Box> prefix(total);
    std::vector<Box> suffix(total);
    Box acc;
    for (uint32_t i = 0; i < total; ++i) {
      acc.ExpandToInclude(node.entries[order[i]].box);
      prefix[i] = acc;
    }
    acc = Box{};
    for (uint32_t i = total; i-- > 0;) {
      acc.ExpandToInclude(node.entries[order[i]].box);
      suffix[i] = acc;
    }
    double margin_sum = 0.0;
    for (uint32_t k = m; k <= total - m; ++k) {
      margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
    }
    if (margin_sum < best_margin_sum) {
      best_margin_sum = margin_sum;
      best_axis = axis;
      best_by_hi = by_hi;
    }
  };
  for (int axis = 0; axis < 3; ++axis) {
    eval_axis(axis, false);
    eval_axis(axis, true);
  }

  // Re-sort on the chosen axis and pick the best split index.
  for (uint32_t i = 0; i < total; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const Box& ba = node.entries[a].box;
    const Box& bb = node.entries[b].box;
    const double ka = best_by_hi ? ba.hi[best_axis] : ba.lo[best_axis];
    const double kb = best_by_hi ? bb.hi[best_axis] : bb.lo[best_axis];
    if (ka != kb) return ka < kb;
    return a < b;
  });
  std::vector<Box> prefix(total);
  std::vector<Box> suffix(total);
  Box acc;
  for (uint32_t i = 0; i < total; ++i) {
    acc.ExpandToInclude(node.entries[order[i]].box);
    prefix[i] = acc;
  }
  acc = Box{};
  for (uint32_t i = total; i-- > 0;) {
    acc.ExpandToInclude(node.entries[order[i]].box);
    suffix[i] = acc;
  }
  uint32_t best_k = m;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = best_overlap;
  for (uint32_t k = m; k <= total - m; ++k) {
    const double overlap = prefix[k - 1].Intersection(suffix[k]).Volume();
    const double area = prefix[k - 1].Volume() + suffix[k].Volume();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_k = k;
    }
  }

  left->level = node.level;
  right->level = node.level;
  left->entries.clear();
  right->entries.clear();
  for (uint32_t i = 0; i < total; ++i) {
    (i < best_k ? left : right)->entries.push_back(node.entries[order[i]]);
  }
}

Status RStarTree::HandleOverflow(Path path, std::vector<bool>* reinserted) {
  const PageId node_id = path.pages.back();
  DM_ASSIGN_OR_RETURN(Node node, ReadNode(node_id));
  const bool is_root = node_id == root_;

  if (!is_root && node.level < reinserted->size() &&
      !(*reinserted)[node.level]) {
    // Forced reinsert: remove the 30% of entries whose centers are
    // farthest from the node MBR center, tighten the node, and
    // reinsert them (closest first — Beckmann's "close reinsert").
    (*reinserted)[node.level] = true;
    const Box nb = NodeBox(node);
    std::array<double, 3> c{(nb.lo[0] + nb.hi[0]) / 2,
                            (nb.lo[1] + nb.hi[1]) / 2,
                            (nb.lo[2] + nb.hi[2]) / 2};
    auto dist2 = [&](const Entry& e) {
      double d = 0;
      for (int k = 0; k < 3; ++k) {
        const double ec = (e.box.lo[k] + e.box.hi[k]) / 2;
        d += (ec - c[k]) * (ec - c[k]);
      }
      return d;
    };
    std::vector<uint32_t> order(node.entries.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const double da = dist2(node.entries[a]);
      const double db = dist2(node.entries[b]);
      if (da != db) return da > db;  // farthest first
      return a < b;
    });
    const uint32_t p = std::max<uint32_t>(
        1, static_cast<uint32_t>(node.entries.size() * kReinsertShare));
    std::vector<Entry> removed;
    removed.reserve(p);
    std::vector<bool> drop(node.entries.size(), false);
    for (uint32_t i = 0; i < p; ++i) {
      removed.push_back(node.entries[order[i]]);
      drop[order[i]] = true;
    }
    Node kept;
    kept.level = node.level;
    for (uint32_t i = 0; i < node.entries.size(); ++i) {
      if (!drop[i]) kept.entries.push_back(node.entries[i]);
    }
    DM_RETURN_NOT_OK(WriteNode(node_id, kept));
    DM_RETURN_NOT_OK(AdjustPath(path));
    // Close reinsert: insert in increasing distance order.
    for (auto it = removed.rbegin(); it != removed.rend(); ++it) {
      DM_RETURN_NOT_OK(InsertEntry(*it, node.level, reinserted));
    }
    return Status::OK();
  }

  // Split.
  Node left;
  Node right;
  SplitNode(node, MinEntries(), &left, &right);
  DM_RETURN_NOT_OK(WriteNode(node_id, left));
  DM_ASSIGN_OR_RETURN(const PageId right_id, AllocNode(right));

  if (is_root) {
    Node new_root;
    new_root.level = static_cast<uint16_t>(node.level + 1);
    new_root.entries.push_back(Entry{NodeBox(left), node_id});
    new_root.entries.push_back(Entry{NodeBox(right), right_id});
    DM_ASSIGN_OR_RETURN(root_, AllocNode(new_root));
    return Status::OK();
  }

  // Update the parent: tighten the left box, add the right entry.
  path.pages.pop_back();
  const uint32_t slot = path.slots.back();
  path.slots.pop_back();
  const PageId parent_id = path.pages.back();
  DM_ASSIGN_OR_RETURN(Node parent, ReadNode(parent_id));
  parent.entries[slot].box = NodeBox(left);
  parent.entries.push_back(Entry{NodeBox(right), right_id});
  const bool parent_overflow = parent.entries.size() > MaxEntries();
  DM_RETURN_NOT_OK(WriteNode(parent_id, parent));
  DM_RETURN_NOT_OK(AdjustPath(path));
  if (parent_overflow) {
    DM_RETURN_NOT_OK(HandleOverflow(std::move(path), reinserted));
  }
  return Status::OK();
}

Status RStarTree::InsertEntry(const Entry& entry, uint16_t target_level,
                              std::vector<bool>* reinserted) {
  DM_ASSIGN_OR_RETURN(Path path, ChoosePath(entry.box, target_level));
  const PageId node_id = path.pages.back();
  DM_ASSIGN_OR_RETURN(Node node, ReadNode(node_id));
  node.entries.push_back(entry);
  const bool overflow = node.entries.size() > MaxEntries();
  DM_RETURN_NOT_OK(WriteNode(node_id, node));
  DM_RETURN_NOT_OK(AdjustPath(path));
  if (overflow) {
    DM_RETURN_NOT_OK(HandleOverflow(std::move(path), reinserted));
  }
  return Status::OK();
}

Status RStarTree::Insert(const Box& box, uint64_t payload) {
  if (box.empty()) return Status::InvalidArgument("cannot insert empty box");
  {
    // The insert may grow the root or rewrite it in place; drop the
    // decoded copy so the next traversal re-reads it.
    MutexLock lock(root_cache_->mu);
    root_cache_->node.reset();
  }
  // One reinsert pass allowed per level per top-level insertion.
  DM_ASSIGN_OR_RETURN(Node root, ReadNode(root_));
  std::vector<bool> reinserted(static_cast<size_t>(root.level) + 2, false);
  DM_RETURN_NOT_OK(InsertEntry(Entry{box, payload}, 0, &reinserted));
  ++size_;
  return Status::OK();
}

Status RStarTree::RangeQuery(const Box& query,
                             std::vector<uint64_t>* out) const {
  // Phase 1: expand the internal levels one wave at a time, fetching
  // each wave's node pages as one FetchRuns batch (the tree is
  // balanced, so a wave is always one level), so adjacent node pages
  // coalesce into one read. Replacing each frontier node in place by
  // its intersecting children in reverse entry order reproduces the
  // serial stack traversal's leaf order exactly (the stack pops
  // children LIFO), so the emitted payload sequence stays
  // byte-identical to RangeQueryEntries.
  thread_local std::vector<PageId> frontier;
  thread_local std::vector<PageId> next_frontier;
  thread_local std::vector<PageId> leaf_seq;
  frontier.clear();
  leaf_seq.clear();

  const uint32_t page_size = env_->page_size();
  // The decoded root is cached (every query starts there); a leaf
  // root degenerates to the serial scan. Seed the frontier with the
  // root's intersecting children in reverse entry order — the serial
  // stack's pop order — exactly as the wave loop does below for
  // deeper levels.
  DM_ASSIGN_OR_RETURN(std::shared_ptr<const Node> root, CachedRoot());
  uint16_t level = root->level;
  if (level == 0) {
    return RangeQueryEntries(query, [out](const Box&, uint64_t payload) {
      out->push_back(payload);
      return true;
    });
  }
  for (auto it = root->entries.rbegin(); it != root->entries.rend(); ++it) {
    if (it->box.Intersects(query) && ScopedRangeFilter::Admits(it->box)) {
      frontier.push_back(static_cast<PageId>(it->payload));
    }
  }
  --level;

  // Per-wave scratch: child lists land in slots addressed by sorted
  // page position (the batch reads in page order), then the next
  // frontier is assembled in frontier order.
  thread_local std::vector<PageId> sorted_nodes;
  thread_local std::vector<std::vector<PageId>> kids;
  thread_local std::vector<BufferPool::RunRequest> node_runs;
  const uint32_t max_run = env_->pool().MaxRunPages();

  while (level > 0 && !frontier.empty()) {
    sorted_nodes = frontier;
    std::sort(sorted_nodes.begin(), sorted_nodes.end());
    sorted_nodes.erase(std::unique(sorted_nodes.begin(), sorted_nodes.end()),
                       sorted_nodes.end());
    for (auto& k : kids) k.clear();  // keep slot capacity across waves
    if (kids.size() < sorted_nodes.size()) kids.resize(sorted_nodes.size());
    node_runs.clear();
    for (size_t i = 0; i < sorted_nodes.size();) {
      size_t e = i + 1;
      while (e < sorted_nodes.size() &&
             sorted_nodes[e] == sorted_nodes[e - 1] + 1 &&
             static_cast<uint32_t>(e - i) < max_run) {
        ++e;
      }
      node_runs.push_back({sorted_nodes[i], static_cast<uint32_t>(e - i)});
      i = e;
    }
    Status wave_st;  // sticky first error — index failures are fatal
    DM_RETURN_NOT_OK(env_->pool().FetchRuns(
        node_runs.data(), node_runs.size(),
        [&](size_t ri, Status st, std::vector<PageGuard>* guards) {
          if (!wave_st.ok()) return;  // skip the remaining runs
          if (!st.ok()) {
            wave_st = std::move(st);
            return;
          }
          for (uint32_t g = 0; g < node_runs[ri].n; ++g) {
            const PageId id = node_runs[ri].first + g;
            const uint8_t* data = (*guards)[g].data();
            uint16_t node_level;
            uint16_t count;
            std::memcpy(&node_level, data + kLevelOff, 2);
            std::memcpy(&count, data + kCountOff, 2);
            if (node_level != level) {
              wave_st = Status::Corruption(
                  "R*-tree node " + std::to_string(id) +
                  " level disagrees with its parent");
              return;
            }
            if (kEntriesOff + static_cast<uint32_t>(count) * kEntrySize >
                page_size) {
              wave_st = Status::Corruption(
                  "R*-tree node " + std::to_string(id) + " entry count " +
                  std::to_string(count) + " exceeds page capacity");
              return;
            }
            const size_t pos = static_cast<size_t>(
                std::lower_bound(sorted_nodes.begin(), sorted_nodes.end(),
                                 id) -
                sorted_nodes.begin());
            std::vector<PageId>& slot = kids[pos];
            const uint8_t* p = data + kEntriesOff;
            for (uint16_t i = 0; i < count; ++i, p += kEntrySize) {
              Box box;
              uint64_t payload;
              std::memcpy(box.lo.data(), p, 24);
              std::memcpy(box.hi.data(), p + 24, 24);
              std::memcpy(&payload, p + 48, 8);
              if (box.Intersects(query) && ScopedRangeFilter::Admits(box)) {
                slot.push_back(static_cast<PageId>(payload));
              }
            }
          }
        }));
    DM_RETURN_NOT_OK(wave_st);
    next_frontier.clear();
    for (PageId id : frontier) {
      const size_t pos = static_cast<size_t>(
          std::lower_bound(sorted_nodes.begin(), sorted_nodes.end(), id) -
          sorted_nodes.begin());
      const std::vector<PageId>& slot = kids[pos];
      next_frontier.insert(next_frontier.end(), slot.rbegin(), slot.rend());
    }
    frontier.swap(next_frontier);
    --level;
  }
  leaf_seq.assign(frontier.begin(), frontier.end());
  if (leaf_seq.empty()) return Status::OK();

  // Phase 2: fetch every intersecting leaf in one FetchRuns batch,
  // coalescing runs of consecutive page ids; matches collect into
  // per-leaf slots in page order and are emitted in the recorded
  // visit order afterwards.
  thread_local std::vector<PageId> sorted_leaves;
  thread_local std::vector<std::vector<uint64_t>> matches;
  thread_local std::vector<BufferPool::RunRequest> runs;
  sorted_leaves = leaf_seq;
  std::sort(sorted_leaves.begin(), sorted_leaves.end());
  for (auto& m : matches) m.clear();  // keep slot capacity across queries
  if (matches.size() < sorted_leaves.size()) {
    matches.resize(sorted_leaves.size());
  }
  runs.clear();
  for (size_t i = 0; i < sorted_leaves.size();) {
    size_t e = i + 1;
    while (e < sorted_leaves.size() &&
           sorted_leaves[e] == sorted_leaves[e - 1] + 1 &&
           static_cast<uint32_t>(e - i) < max_run) {
      ++e;
    }
    runs.push_back({sorted_leaves[i], static_cast<uint32_t>(e - i)});
    i = e;
  }

  Status scan_st;  // sticky first error — index failures are fatal
  DM_RETURN_NOT_OK(env_->pool().FetchRuns(
      runs.data(), runs.size(),
      [&](size_t ri, Status st, std::vector<PageGuard>* guards) {
        if (!scan_st.ok()) return;  // skip the remaining runs
        if (!st.ok()) {
          scan_st = std::move(st);
          return;
        }
        for (uint32_t g = 0; g < runs[ri].n; ++g) {
          const PageId id = runs[ri].first + g;
          const uint8_t* data = (*guards)[g].data();
          uint16_t level;
          uint16_t count;
          std::memcpy(&level, data + kLevelOff, 2);
          std::memcpy(&count, data + kCountOff, 2);
          if (level != 0 ||
              kEntriesOff + static_cast<uint32_t>(count) * kEntrySize >
                  page_size) {
            scan_st = Status::Corruption("R*-tree leaf " + std::to_string(id) +
                                         " has an invalid header");
            return;
          }
          const size_t pos = static_cast<size_t>(
              std::lower_bound(sorted_leaves.begin(), sorted_leaves.end(),
                               id) -
              sorted_leaves.begin());
          std::vector<uint64_t>& slot = matches[pos];
          const uint8_t* p = data + kEntriesOff;
          for (uint16_t i = 0; i < count; ++i, p += kEntrySize) {
            Box box;
            uint64_t payload;
            std::memcpy(box.lo.data(), p, 24);
            std::memcpy(box.hi.data(), p + 24, 24);
            std::memcpy(&payload, p + 48, 8);
            if (box.Intersects(query) && ScopedRangeFilter::Admits(box)) {
              slot.push_back(payload);
            }
          }
        }
      }));
  DM_RETURN_NOT_OK(scan_st);
  for (PageId id : leaf_seq) {
    const size_t pos = static_cast<size_t>(
        std::lower_bound(sorted_leaves.begin(), sorted_leaves.end(), id) -
        sorted_leaves.begin());
    out->insert(out->end(), matches[pos].begin(), matches[pos].end());
  }
  return Status::OK();
}

Status RStarTree::RangeQueryEntries(
    const Box& query,
    const std::function<bool(const Box&, uint64_t)>& callback) const {
  // Read-only traversal on the query hot path: entries are decoded
  // in place from the pinned page instead of materializing a Node
  // (whose entry vector would heap-allocate per visited page). The
  // callback runs with the page pinned; it must not re-enter the pool
  // deeply enough to exhaust frames (existing callers only collect
  // payloads). The traversal stack is thread-local so the steady state
  // allocates nothing.
  // Each stacked page carries the level its parent implies, so a node
  // whose stored level disagrees is reported instead of having its
  // child pointers read as leaf payloads (or the reverse).
  thread_local std::vector<std::pair<PageId, uint16_t>> stack;
  stack.clear();
  // Visit the cached decoded root inline (no device read), then walk
  // the rest of the tree through the pool. Children are pushed in
  // entry order and popped LIFO, so the visit order is identical to
  // the original push-the-root traversal.
  {
    DM_ASSIGN_OR_RETURN(std::shared_ptr<const Node> root, CachedRoot());
    for (const Entry& e : root->entries) {
      if (!e.box.Intersects(query) || !ScopedRangeFilter::Admits(e.box)) {
        continue;
      }
      if (root->level == 0) {
        if (!callback(e.box, e.payload)) return Status::OK();
      } else {
        stack.emplace_back(static_cast<PageId>(e.payload),
                           static_cast<uint16_t>(root->level - 1));
      }
    }
  }
  while (!stack.empty()) {
    const auto [id, expected_level] = stack.back();
    stack.pop_back();
    DM_ASSIGN_OR_RETURN(PageGuard page, env_->pool().Fetch(id));
    uint16_t level;
    uint16_t count;
    std::memcpy(&level, page.data() + kLevelOff, 2);
    std::memcpy(&count, page.data() + kCountOff, 2);
    DM_ENSURE(level == expected_level,
              Status::Corruption("R*-tree node " + std::to_string(id) +
                                 " level disagrees with its parent"));
    DM_ENSURE(kEntriesOff + static_cast<uint32_t>(count) * kEntrySize <=
                  env_->page_size(),
              Status::Corruption("R*-tree node " + std::to_string(id) +
                                 " entry count " + std::to_string(count) +
                                 " exceeds page capacity"));
    const uint8_t* p = page.data() + kEntriesOff;
    for (uint16_t i = 0; i < count; ++i, p += kEntrySize) {
      Box box;
      uint64_t payload;
      std::memcpy(box.lo.data(), p, 24);
      std::memcpy(box.hi.data(), p + 24, 24);
      std::memcpy(&payload, p + 48, 8);
      if (!box.Intersects(query) || !ScopedRangeFilter::Admits(box)) continue;
      if (level == 0) {
        if (!callback(box, payload)) return Status::OK();
      } else {
        stack.emplace_back(static_cast<PageId>(payload),
                           static_cast<uint16_t>(level - 1));
      }
    }
  }
  return Status::OK();
}

Status RStarTree::CollectNodeExtents(std::vector<RTreeNodeExtent>* out) const {
  std::vector<PageId> stack{root_};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    DM_ASSIGN_OR_RETURN(Node node, ReadNode(id));
    RTreeNodeExtent ext;
    ext.box = NodeBox(node);
    ext.level = node.level;
    ext.count = static_cast<uint16_t>(node.entries.size());
    out->push_back(ext);
    if (node.level > 0) {
      for (const Entry& e : node.entries) {
        stack.push_back(static_cast<PageId>(e.payload));
      }
    }
  }
  return Status::OK();
}

Status RStarTree::VisitNodes(
    const std::function<bool(PageId, uint16_t,
                             const std::vector<std::pair<Box, uint64_t>>&)>&
        callback) const {
  std::vector<PageId> stack{root_};
  std::vector<std::pair<Box, uint64_t>> entries;
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    DM_ASSIGN_OR_RETURN(Node node, ReadNode(id));
    entries.clear();
    entries.reserve(node.entries.size());
    for (const Entry& e : node.entries) {
      entries.emplace_back(e.box, e.payload);
    }
    if (!callback(id, node.level, entries)) return Status::OK();
    if (node.level > 0) {
      for (const Entry& e : node.entries) {
        stack.push_back(static_cast<PageId>(e.payload));
      }
    }
  }
  return Status::OK();
}

Result<int> RStarTree::Height() const {
  DM_ASSIGN_OR_RETURN(Node root, ReadNode(root_));
  return static_cast<int>(root.level) + 1;
}

Result<Box> RStarTree::RootBox() const {
  DM_ASSIGN_OR_RETURN(Node root, ReadNode(root_));
  return NodeBox(root);
}

}  // namespace dm
