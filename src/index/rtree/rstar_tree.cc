#include "index/rtree/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.h"

namespace dm {

namespace {

// Node page layout (format v7): [level u16][count u16][pad u32], then
// count entries. A leaf entry is its segment stored once, (x, y,
// e_low, e_high) as f64, the payload u64 and the parent reach f32:
// 44 bytes. An internal entry is the child MBB (6 x f64) and the child
// page id as u64: 56 bytes.
constexpr uint32_t kLevelOff = 0;
constexpr uint32_t kCountOff = 2;
constexpr uint32_t kEntriesOff = 8;
constexpr uint32_t kLeafEntrySize = 44;
constexpr uint32_t kInternalEntrySize = 56;

uint32_t EntrySize(uint16_t level) {
  return level == 0 ? kLeafEntrySize : kInternalEntrySize;
}

/// A leaf reach the surface bound may trust: finite and non-negative
/// (NaN fails both comparisons).
bool ValidReach(float reach) {
  return reach >= 0 && reach < std::numeric_limits<float>::infinity();
}

bool IsSegment(const Box& box) {
  return box.lo[0] == box.hi[0] && box.lo[1] == box.hi[1] &&
         box.lo[2] <= box.hi[2];
}

void EncodeEntry(uint16_t level, const RTreeEntry& e, uint8_t* p) {
  if (level == 0) {
    const double seg[4] = {e.box.lo[0], e.box.lo[1], e.box.lo[2],
                           e.box.hi[2]};
    std::memcpy(p, seg, 32);
    std::memcpy(p + 32, &e.payload, 8);
    std::memcpy(p + 40, &e.reach, 4);
  } else {
    std::memcpy(p, e.box.lo.data(), 24);
    std::memcpy(p + 24, e.box.hi.data(), 24);
    std::memcpy(p + 48, &e.payload, 8);
  }
}

/// Decodes entry `i` of node page `id` at `level` (the header already
/// checked). Corruption naming the page if a leaf entry's reach is
/// NaN, negative or infinite: an understated reach silently drops
/// nodes from bounded fetches, like a damaged reach table.
Status DecodeEntry(PageId id, uint16_t level, const uint8_t* data, uint16_t i,
                   RTreeEntry* e) {
  const uint8_t* p = data + kEntriesOff + size_t{i} * EntrySize(level);
  if (level == 0) {
    double seg[4];
    std::memcpy(seg, p, 32);
    e->box = Box::Segment(seg[0], seg[1], seg[2], seg[3]);
    std::memcpy(&e->payload, p + 32, 8);
    std::memcpy(&e->reach, p + 40, 4);
    DM_ENSURE(ValidReach(e->reach),
              Status::Corruption("R*-tree node " + std::to_string(id) +
                                 " entry " + std::to_string(i) +
                                 " has parent reach " +
                                 std::to_string(e->reach)));
  } else {
    std::memcpy(e->box.lo.data(), p, 24);
    std::memcpy(e->box.hi.data(), p + 24, 24);
    std::memcpy(&e->payload, p + 48, 8);
    e->reach = std::numeric_limits<float>::infinity();
  }
  return Status::OK();
}

}  // namespace

uint32_t RStarTree::MaxEntries(uint16_t level) const {
  return level == 0 ? LeafCapacityFor(env_->page_size())
                    : InternalCapacityFor(env_->page_size());
}

uint32_t RStarTree::LeafCapacityFor(uint32_t page_size) {
  return (page_size - kEntriesOff) / kLeafEntrySize;
}

uint32_t RStarTree::InternalCapacityFor(uint32_t page_size) {
  return (page_size - kEntriesOff) / kInternalEntrySize;
}

Status RStarTree::CheckHeader(PageId id, const uint8_t* data,
                              int expected_level, uint16_t* level,
                              uint16_t* count) const {
  std::memcpy(level, data + kLevelOff, 2);
  std::memcpy(count, data + kCountOff, 2);
  DM_ENSURE(expected_level < 0 || *level == expected_level,
            Status::Corruption("R*-tree node " + std::to_string(id) +
                               " level disagrees with its parent"));
  DM_ENSURE(*count <= MaxEntries(*level),
            Status::Corruption("R*-tree node " + std::to_string(id) +
                               " entry count " + std::to_string(*count) +
                               " exceeds node capacity " +
                               std::to_string(MaxEntries(*level))));
  return Status::OK();
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

Result<RStarTree> RStarTree::BulkLoad(DbEnv* env,
                                     const std::vector<RTreeEntry>& ordered) {
  // Leaf pages store each entry as a segment: anything else would be
  // written as a different box. An empty box would drop out of every
  // NodeBox above it, so no query could ever reach its entry, and a
  // reach the decoders reject would make the store unreadable.
  for (const RTreeEntry& e : ordered) {
    if (!IsSegment(e.box)) {
      return Status::InvalidArgument(
          "cannot index " + e.box.ToString() + " (payload " +
          std::to_string(e.payload) + "): not a vertical segment");
    }
    if (!ValidReach(e.reach)) {
      return Status::InvalidArgument(
          "cannot index parent reach " + std::to_string(e.reach) +
          " (payload " + std::to_string(e.payload) + ")");
    }
  }
  RStarTree tree(env);
  if (ordered.empty()) {
    DM_ASSIGN_OR_RETURN(tree.root_, tree.AllocNode(tree.root_node_));
    return tree;
  }

  // Packs `entries` into nodes at level `lvl`, each full but the last,
  // and returns one (node box, node page) entry per node written. The
  // last node written is kept as the root: on the top level it is.
  const auto pack = [&tree](uint16_t lvl,
                            const std::vector<RTreeEntry>& entries)
      -> Result<std::vector<RTreeEntry>> {
    const size_t cap = tree.MaxEntries(lvl);
    std::vector<RTreeEntry> parents;
    Node node;
    node.level = lvl;
    for (size_t i = 0; i < entries.size(); i += cap) {
      const size_t end = std::min(entries.size(), i + cap);
      node.entries.assign(entries.begin() + static_cast<ptrdiff_t>(i),
                          entries.begin() + static_cast<ptrdiff_t>(end));
      DM_ASSIGN_OR_RETURN(const PageId id, tree.AllocNode(node));
      parents.push_back(RTreeEntry{NodeBox(node), id});
    }
    tree.root_node_ = std::move(node);
    return parents;
  };
  // Leaves first, then each level's parents, until one node remains.
  DM_ASSIGN_OR_RETURN(std::vector<RTreeEntry> level, pack(0, ordered));
  for (uint16_t lvl = 1; level.size() > 1; ++lvl) {
    DM_ASSIGN_OR_RETURN(level, pack(lvl, level));
  }
  tree.root_ = static_cast<PageId>(level.front().payload);
  tree.size_ = static_cast<int64_t>(ordered.size());
  return tree;
}

Result<RStarTree> RStarTree::Open(DbEnv* env, PageId root, int64_t size) {
  RStarTree tree(env);
  tree.root_ = root;
  tree.size_ = size;
  DM_ASSIGN_OR_RETURN(tree.root_node_, tree.ReadNode(root));
  return tree;
}

Result<RStarTree::Node> RStarTree::ReadNode(PageId id) const {
  DM_ASSIGN_OR_RETURN(PageGuard page, env_->pool().Fetch(id));
  Node node;
  uint16_t count;
  // No level is implied here (the root, audits); the count bound is the
  // same as RangeQuery's: BulkLoad never writes more than
  // MaxEntries(level) entries to a node.
  DM_RETURN_NOT_OK(CheckHeader(id, page.data(), -1, &node.level, &count));
  node.entries.resize(count);
  for (uint16_t i = 0; i < count; ++i) {
    DM_RETURN_NOT_OK(
        DecodeEntry(id, node.level, page.data(), i, &node.entries[i]));
  }
  return node;
}

Result<PageId> RStarTree::AllocNode(const Node& node) {
  DM_ASSIGN_OR_RETURN(PageGuard page, env_->pool().NewPage());
  const uint16_t count = static_cast<uint16_t>(node.entries.size());
  std::memcpy(page.data() + kLevelOff, &node.level, 2);
  std::memcpy(page.data() + kCountOff, &count, 2);
  const uint32_t size = EntrySize(node.level);
  for (uint16_t i = 0; i < count; ++i) {
    EncodeEntry(node.level, node.entries[i],
                page.data() + kEntriesOff + size_t{i} * size);
  }
  page.MarkDirty();
  return page.id();
}

Box RStarTree::NodeBox(const Node& node) {
  Box box;
  for (const RTreeEntry& e : node.entries) box.ExpandToInclude(e.box);
  return box;
}

Status RStarTree::RangeQuery(const Box& query,
                             std::vector<uint64_t>* out) const {
  // One wave per level below the decoded root (the tree is balanced,
  // so a wave is always one level). Each wave fetches its sorted,
  // deduplicated pages as one FetchRuns batch, which the pool hands
  // back run by run in ascending page order.
  thread_local std::vector<PageId> frontier;
  thread_local std::vector<PageId> next_frontier;
  thread_local std::vector<BufferPool::RunRequest> runs;
  next_frontier.clear();
  int level = root_node_.level;
  // An admitted entry of a node at `level` is a result payload (leaf)
  // or a child page for the next wave.
  const auto take = [&](const RTreeEntry& e) {
    if (!e.box.Intersects(query) ||
        !ScopedRangeFilter::Admits(e.box, e.reach)) {
      return;
    }
    if (level == 0) {
      out->push_back(e.payload);
    } else {
      next_frontier.push_back(static_cast<PageId>(e.payload));
    }
  };
  for (const RTreeEntry& e : root_node_.entries) take(e);

  const uint32_t max_run = env_->pool().MaxRunPages();
  while (level > 0 && !next_frontier.empty()) {
    --level;
    frontier.swap(next_frontier);
    next_frontier.clear();
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());
    runs.clear();
    for (size_t i = 0; i < frontier.size();) {
      size_t e = i + 1;
      while (e < frontier.size() && frontier[e] == frontier[e - 1] + 1 &&
             static_cast<uint32_t>(e - i) < max_run) {
        ++e;
      }
      runs.push_back({frontier[i], static_cast<uint32_t>(e - i)});
      i = e;
    }
    Status wave_st;  // sticky first error — index failures are fatal
    DM_RETURN_NOT_OK(env_->pool().FetchRuns(
        runs.data(), runs.size(),
        [&](size_t ri, Status st, std::vector<PageGuard>* guards) {
          if (!wave_st.ok()) return;  // skip the remaining runs
          if (!st.ok()) {
            wave_st = std::move(st);
            return;
          }
          for (uint32_t g = 0; g < runs[ri].n; ++g) {
            const PageId id = runs[ri].first + g;
            const uint8_t* data = (*guards)[g].data();
            uint16_t node_level;
            uint16_t count;
            wave_st = CheckHeader(id, data, level, &node_level, &count);
            if (!wave_st.ok()) return;
            RTreeEntry e;
            for (uint16_t i = 0; i < count; ++i) {
              wave_st = DecodeEntry(id, node_level, data, i, &e);
              if (!wave_st.ok()) return;
              take(e);
            }
          }
        }));
    DM_RETURN_NOT_OK(wave_st);
  }
  return Status::OK();
}

Status RStarTree::VisitNodes(
    const std::function<bool(PageId, uint16_t,
                             const std::vector<RTreeEntry>&)>& callback)
    const {
  std::vector<PageId> stack{root_};
  while (!stack.empty()) {
    const PageId id = stack.back();
    stack.pop_back();
    DM_ASSIGN_OR_RETURN(Node node, ReadNode(id));
    if (!callback(id, node.level, node.entries)) return Status::OK();
    if (node.level > 0) {
      for (const RTreeEntry& e : node.entries) {
        stack.push_back(static_cast<PageId>(e.payload));
      }
    }
  }
  return Status::OK();
}

}  // namespace dm
