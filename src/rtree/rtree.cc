#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/math_util.h"

namespace spatialjoin {

// On-page layout:
//   [is_leaf:u8][level:u8][count:u16]
//   count × [min_x:f64][min_y:f64][max_x:f64][max_y:f64][payload:i64]
struct RTree::Node {
  bool is_leaf = true;
  int level = 0;
  std::vector<Rectangle> mbrs;
  std::vector<int64_t> payloads;

  size_t size() const { return mbrs.size(); }
};

namespace {

constexpr size_t kNodeHeaderSize = 4;
constexpr size_t kEntrySize = 40;

template <typename T>
void StorePod(Page* page, size_t* pos, const T& v) {
  SJ_CHECK_LE(*pos + sizeof(T), page->size());
  std::memcpy(page->bytes() + *pos, &v, sizeof(T));
  *pos += sizeof(T);
}

template <typename T>
T LoadPod(const Page& page, size_t* pos) {
  SJ_CHECK_LE(*pos + sizeof(T), page.size());
  T v;
  std::memcpy(&v, page.bytes() + *pos, sizeof(T));
  *pos += sizeof(T);
  return v;
}

RTree::NodeHeader LoadHeader(const Page& page) {
  size_t pos = 0;
  RTree::NodeHeader header;
  header.is_leaf = LoadPod<uint8_t>(page, &pos) != 0;
  header.level = LoadPod<uint8_t>(page, &pos);
  header.count = LoadPod<uint16_t>(page, &pos);
  return header;
}

// Decodes entry `slot` of a node page.
void LoadEntry(const Page& page, size_t slot, Rectangle* mbr,
               int64_t* payload) {
  size_t pos = kNodeHeaderSize + slot * kEntrySize;
  const double min_x = LoadPod<double>(page, &pos);
  const double min_y = LoadPod<double>(page, &pos);
  const double max_x = LoadPod<double>(page, &pos);
  const double max_y = LoadPod<double>(page, &pos);
  *mbr = Rectangle(min_x, min_y, max_x, max_y);
  *payload = LoadPod<int64_t>(page, &pos);
}

}  // namespace

RTree::RTree(BufferPool* pool, RTreeSplit split, int max_entries)
    : pool_(pool), split_(split) {
  SJ_CHECK(pool != nullptr);
  int fit = static_cast<int>((pool->disk()->page_size() - kNodeHeaderSize) /
                             kEntrySize);
  max_entries_ = max_entries > 0 ? std::min(max_entries, fit) : fit;
  SJ_CHECK_GE(max_entries_, 4);
  min_entries_ = std::max(2, max_entries_ / 2);
  root_ = NewNodePage();
  Node root;
  root.is_leaf = true;
  root.level = 0;
  StoreNode(root_, root);
}

PageId RTree::NewNodePage() {
  ++num_nodes_;
  return pool_->NewPage();
}

RTree::Node RTree::LoadNode(PageId pid) const {
  const Page* page = pool_->GetPage(pid);
  const NodeHeader header = LoadHeader(*page);
  Node node;
  node.is_leaf = header.is_leaf;
  node.level = header.level;
  const size_t count = static_cast<size_t>(header.count);
  node.mbrs.resize(count);
  node.payloads.resize(count);
  for (size_t i = 0; i < count; ++i) {
    LoadEntry(*page, i, &node.mbrs[i], &node.payloads[i]);
  }
  return node;
}

RTree::NodeHeader RTree::ReadHeader(PageId pid) const {
  return LoadHeader(*pool_->GetPage(pid));
}

RTree::EntryView RTree::ReadEntry(PageId pid, int slot) const {
  const Page* page = pool_->GetPage(pid);
  EntryView entry;
  entry.node = LoadHeader(*page);
  SJ_CHECK(slot >= 0 && slot < entry.node.count);
  LoadEntry(*page, static_cast<size_t>(slot), &entry.mbr, &entry.payload);
  return entry;
}

RTree::NodeView RTree::ReadNode(PageId pid) const {
  Node node = LoadNode(pid);
  NodeView view;
  view.is_leaf = node.is_leaf;
  view.level = node.level;
  view.mbrs = std::move(node.mbrs);
  view.payloads = std::move(node.payloads);
  return view;
}

void RTree::StoreNode(PageId pid, const Node& node) {
  SJ_CHECK_EQ(node.mbrs.size(), node.payloads.size());
  SJ_CHECK_LE(static_cast<int>(node.size()), max_entries_);
  Page* page = pool_->GetMutablePage(pid);
  std::fill(page->data.begin(), page->data.end(), 0);
  size_t pos = 0;
  StorePod(page, &pos, static_cast<uint8_t>(node.is_leaf ? 1 : 0));
  StorePod(page, &pos, static_cast<uint8_t>(node.level));
  StorePod(page, &pos, static_cast<uint16_t>(node.size()));
  for (size_t i = 0; i < node.size(); ++i) {
    StorePod(page, &pos, node.mbrs[i].min_x());
    StorePod(page, &pos, node.mbrs[i].min_y());
    StorePod(page, &pos, node.mbrs[i].max_x());
    StorePod(page, &pos, node.mbrs[i].max_y());
    StorePod(page, &pos, node.payloads[i]);
  }
}

Rectangle RTree::NodeMbr(const Node& node) const {
  Rectangle mbr;
  for (const Rectangle& r : node.mbrs) mbr.Extend(r);
  return mbr;
}

int RTree::ChooseSubtree(const Node& node, const Rectangle& mbr) const {
  SJ_CHECK(!node.mbrs.empty());
  int best = 0;
  double best_enlargement = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node.size(); ++i) {
    double enlargement = node.mbrs[i].Enlargement(mbr);
    double area = node.mbrs[i].Area();
    if (enlargement < best_enlargement ||
        (enlargement == best_enlargement && area < best_area)) {
      best = static_cast<int>(i);
      best_enlargement = enlargement;
      best_area = area;
    }
  }
  return best;
}

namespace {

// Bounding box of mbrs[indices[from..to)].
Rectangle BoxOf(const std::vector<Rectangle>& mbrs,
                const std::vector<int>& indices, size_t from, size_t to) {
  Rectangle box;
  for (size_t i = from; i < to; ++i) {
    box.Extend(mbrs[static_cast<size_t>(indices[i])]);
  }
  return box;
}

}  // namespace

void RTree::SplitNode(const std::vector<Rectangle>& mbrs,
                      const std::vector<int64_t>& payloads,
                      std::vector<int>* left_idx,
                      std::vector<int>* right_idx) const {
  (void)payloads;
  int n = static_cast<int>(mbrs.size());
  SJ_CHECK_GE(n, 2);
  left_idx->clear();
  right_idx->clear();

  if (split_ == RTreeSplit::kRStar) {
    // R* topological split. For each axis, entries sorted by lower then
    // by upper coordinate; candidate distributions put the first
    // min_entries + j entries left. The axis with the smallest margin
    // sum over all candidates wins; within it, the candidate with the
    // least overlap (ties: least total area) is used.
    struct Candidate {
      std::vector<int> order;
      size_t split_at = 0;
    };
    double best_margin_sum = std::numeric_limits<double>::infinity();
    Candidate best_axis_first;  // retained best candidate per axis loop
    bool have_axis = false;
    for (int axis = 0; axis < 2; ++axis) {
      for (int by_upper = 0; by_upper < 2; ++by_upper) {
        std::vector<int> order(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;
        std::sort(order.begin(), order.end(), [&](int a, int b) {
          const Rectangle& ra = mbrs[static_cast<size_t>(a)];
          const Rectangle& rb = mbrs[static_cast<size_t>(b)];
          double ka = axis == 0 ? (by_upper ? ra.max_x() : ra.min_x())
                                : (by_upper ? ra.max_y() : ra.min_y());
          double kb = axis == 0 ? (by_upper ? rb.max_x() : rb.min_x())
                                : (by_upper ? rb.max_y() : rb.min_y());
          return ka < kb;
        });
        double margin_sum = 0.0;
        double best_overlap = std::numeric_limits<double>::infinity();
        double best_area = std::numeric_limits<double>::infinity();
        size_t best_split = 0;
        size_t lo = static_cast<size_t>(min_entries_);
        size_t hi = static_cast<size_t>(n - min_entries_);
        if (lo > hi) {  // tiny nodes: any 1/rest split
          lo = 1;
          hi = static_cast<size_t>(n - 1);
        }
        for (size_t split_at = lo; split_at <= hi; ++split_at) {
          Rectangle left = BoxOf(mbrs, order, 0, split_at);
          Rectangle right =
              BoxOf(mbrs, order, split_at, static_cast<size_t>(n));
          margin_sum += left.Margin() + right.Margin();
          double overlap = left.Intersection(right).Area();
          double area = left.Area() + right.Area();
          if (overlap < best_overlap ||
              (overlap == best_overlap && area < best_area)) {
            best_overlap = overlap;
            best_area = area;
            best_split = split_at;
          }
        }
        if (margin_sum < best_margin_sum) {
          best_margin_sum = margin_sum;
          best_axis_first.order = std::move(order);
          best_axis_first.split_at = best_split;
          have_axis = true;
        }
      }
    }
    SJ_CHECK(have_axis);
    for (size_t i = 0; i < best_axis_first.order.size(); ++i) {
      (i < best_axis_first.split_at ? left_idx : right_idx)
          ->push_back(best_axis_first.order[i]);
    }
    return;
  }

  int seed_a = 0;
  int seed_b = 1;
  if (split_ == RTreeSplit::kQuadratic) {
    // PickSeeds (quadratic): the pair wasting the most area together.
    double worst = -std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        double waste =
            mbrs[i].Union(mbrs[j]).Area() - mbrs[i].Area() - mbrs[j].Area();
        if (waste > worst) {
          worst = waste;
          seed_a = i;
          seed_b = j;
        }
      }
    }
  } else {
    // PickSeeds (linear): per dimension, the entries with the highest low
    // side and the lowest high side; the dimension with the greatest
    // normalized separation wins.
    auto separation = [&](auto lo_of, auto hi_of, int* a, int* b) {
      int highest_low = 0;
      int lowest_high = 0;
      double min_lo = std::numeric_limits<double>::infinity();
      double max_hi = -std::numeric_limits<double>::infinity();
      for (int i = 0; i < n; ++i) {
        if (lo_of(mbrs[i]) > lo_of(mbrs[highest_low])) highest_low = i;
        if (hi_of(mbrs[i]) < hi_of(mbrs[lowest_high])) lowest_high = i;
        min_lo = std::min(min_lo, lo_of(mbrs[i]));
        max_hi = std::max(max_hi, hi_of(mbrs[i]));
      }
      double width = max_hi - min_lo;
      *a = highest_low;
      *b = lowest_high;
      if (width <= 0) return 0.0;
      return (lo_of(mbrs[highest_low]) - hi_of(mbrs[lowest_high])) / width;
    };
    int ax, bx, ay, by;
    double sx = separation([](const Rectangle& r) { return r.min_x(); },
                           [](const Rectangle& r) { return r.max_x(); }, &ax,
                           &bx);
    double sy = separation([](const Rectangle& r) { return r.min_y(); },
                           [](const Rectangle& r) { return r.max_y(); }, &ay,
                           &by);
    if (sx >= sy) {
      seed_a = ax;
      seed_b = bx;
    } else {
      seed_a = ay;
      seed_b = by;
    }
    if (seed_a == seed_b) seed_b = (seed_a + 1) % n;
  }

  left_idx->push_back(seed_a);
  right_idx->push_back(seed_b);
  Rectangle left_mbr = mbrs[static_cast<size_t>(seed_a)];
  Rectangle right_mbr = mbrs[static_cast<size_t>(seed_b)];

  std::vector<int> remaining;
  for (int i = 0; i < n; ++i) {
    if (i != seed_a && i != seed_b) remaining.push_back(i);
  }

  while (!remaining.empty()) {
    // If one group must take all remaining entries to reach min_entries,
    // assign them without further tests (Guttman QS2).
    int need_left = min_entries_ - static_cast<int>(left_idx->size());
    int need_right = min_entries_ - static_cast<int>(right_idx->size());
    if (need_left >= static_cast<int>(remaining.size())) {
      for (int i : remaining) left_idx->push_back(i);
      break;
    }
    if (need_right >= static_cast<int>(remaining.size())) {
      for (int i : remaining) right_idx->push_back(i);
      break;
    }

    size_t pick = 0;
    if (split_ == RTreeSplit::kQuadratic) {
      // PickNext: the entry with the strongest group preference.
      double best_diff = -1.0;
      for (size_t r = 0; r < remaining.size(); ++r) {
        const Rectangle& e = mbrs[static_cast<size_t>(remaining[r])];
        double d1 = left_mbr.Enlargement(e);
        double d2 = right_mbr.Enlargement(e);
        double diff = std::fabs(d1 - d2);
        if (diff > best_diff) {
          best_diff = diff;
          pick = r;
        }
      }
    }
    int idx = remaining[pick];
    remaining.erase(remaining.begin() + static_cast<long>(pick));
    const Rectangle& e = mbrs[static_cast<size_t>(idx)];
    double d1 = left_mbr.Enlargement(e);
    double d2 = right_mbr.Enlargement(e);
    bool to_left;
    if (d1 != d2) {
      to_left = d1 < d2;
    } else if (left_mbr.Area() != right_mbr.Area()) {
      to_left = left_mbr.Area() < right_mbr.Area();
    } else {
      to_left = left_idx->size() <= right_idx->size();
    }
    if (to_left) {
      left_idx->push_back(idx);
      left_mbr.Extend(e);
    } else {
      right_idx->push_back(idx);
      right_mbr.Extend(e);
    }
  }
  SJ_CHECK_GE(static_cast<int>(left_idx->size()), 1);
  SJ_CHECK_GE(static_cast<int>(right_idx->size()), 1);
}

RTree::SplitOutcome RTree::InsertAt(PageId pid, int node_level,
                                    const Rectangle& entry_mbr,
                                    int64_t payload, int target_level) {
  Node node = LoadNode(pid);
  SJ_CHECK_EQ(node.level, node_level);

  if (node_level == target_level) {
    node.mbrs.push_back(entry_mbr);
    node.payloads.push_back(payload);
  } else {
    int child = ChooseSubtree(node, entry_mbr);
    SplitOutcome sub =
        InsertAt(node.payloads[static_cast<size_t>(child)], node_level - 1,
                 entry_mbr, payload, target_level);
    node.mbrs[static_cast<size_t>(child)] = sub.left_mbr;
    if (sub.split) {
      node.mbrs.push_back(sub.right_mbr);
      node.payloads.push_back(sub.right_page);
    }
  }

  SplitOutcome outcome;
  if (static_cast<int>(node.size()) <= max_entries_) {
    StoreNode(pid, node);
    outcome.left_mbr = NodeMbr(node);
    return outcome;
  }

  // Overflow: split into this node and a new sibling.
  std::vector<int> left_idx;
  std::vector<int> right_idx;
  SplitNode(node.mbrs, node.payloads, &left_idx, &right_idx);
  Node left;
  left.is_leaf = node.is_leaf;
  left.level = node.level;
  Node right = left;
  for (int i : left_idx) {
    left.mbrs.push_back(node.mbrs[static_cast<size_t>(i)]);
    left.payloads.push_back(node.payloads[static_cast<size_t>(i)]);
  }
  for (int i : right_idx) {
    right.mbrs.push_back(node.mbrs[static_cast<size_t>(i)]);
    right.payloads.push_back(node.payloads[static_cast<size_t>(i)]);
  }
  PageId right_pid = NewNodePage();
  StoreNode(pid, left);
  StoreNode(right_pid, right);
  outcome.split = true;
  outcome.left_mbr = NodeMbr(left);
  outcome.right_mbr = NodeMbr(right);
  outcome.right_page = right_pid;
  return outcome;
}

void RTree::Insert(const Rectangle& mbr, TupleId tid) {
  SJ_CHECK(!mbr.is_empty());
  SplitOutcome outcome = InsertAt(root_, height_ - 1, mbr, tid, 0);
  if (outcome.split) {
    Node new_root;
    new_root.is_leaf = false;
    new_root.level = height_;
    new_root.mbrs = {outcome.left_mbr, outcome.right_mbr};
    new_root.payloads = {root_, outcome.right_page};
    PageId new_root_pid = NewNodePage();
    StoreNode(new_root_pid, new_root);
    root_ = new_root_pid;
    ++height_;
  }
  ++num_entries_;
}

void RTree::BulkLoadStr(std::vector<std::pair<Rectangle, TupleId>> entries,
                        double fill_factor) {
  SJ_CHECK_MSG(num_entries_ == 0, "BulkLoadStr requires an empty tree");
  SJ_CHECK_MSG(fill_factor > 0.0 && fill_factor <= 1.0,
               "fill_factor must be in (0,1]");
  if (entries.empty()) return;
  num_entries_ = static_cast<int64_t>(entries.size());
  // Clamp the target fill so every packed node satisfies the fan-out
  // invariants ([min_entries, max_entries], root exempt).
  int capacity = std::max(
      min_entries_,
      static_cast<int>(fill_factor * static_cast<double>(max_entries_)));
  capacity = std::min(capacity, max_entries_);

  // Current level's entries: (mbr, payload). Payloads start as tuple
  // ids, become child page ids for upper levels.
  std::vector<std::pair<Rectangle, int64_t>> level_entries;
  level_entries.reserve(entries.size());
  for (auto& [mbr, tid] : entries) level_entries.emplace_back(mbr, tid);

  int level = 0;
  for (;;) {
    // Sort-Tile-Recursive: sort by center x, slice into ⌈√P⌉ vertical
    // slabs, sort each slab by center y, pack runs of `capacity`.
    int64_t n = static_cast<int64_t>(level_entries.size());
    int64_t node_count = CeilDiv(n, capacity);
    int64_t slabs = static_cast<int64_t>(
        std::ceil(std::sqrt(static_cast<double>(node_count))));
    int64_t slab_size = CeilDiv(n, slabs);
    std::sort(level_entries.begin(), level_entries.end(),
              [](const auto& a, const auto& b) {
                return a.first.Center().x < b.first.Center().x;
              });
    for (int64_t s = 0; s < slabs; ++s) {
      auto begin = level_entries.begin() +
                   std::min<int64_t>(s * slab_size, n);
      auto end = level_entries.begin() +
                 std::min<int64_t>((s + 1) * slab_size, n);
      std::sort(begin, end, [](const auto& a, const auto& b) {
        return a.first.Center().y < b.first.Center().y;
      });
    }

    // Run sizes: `capacity` each, with the tail redistributed so no
    // non-root node falls under min_entries (an underfull remainder is
    // merged into the last full run, or the two are rebalanced when the
    // merge would overflow; max >= 2*min makes the split always legal).
    std::vector<int64_t> run_sizes;
    int64_t full_runs = n / capacity;
    int64_t remainder = n % capacity;
    run_sizes.assign(static_cast<size_t>(full_runs), capacity);
    if (remainder > 0) {
      if (remainder >= min_entries_ || full_runs == 0) {
        run_sizes.push_back(remainder);
      } else {
        int64_t total = capacity + remainder;
        if (total <= max_entries_) {
          run_sizes.back() = total;
        } else {
          run_sizes.back() = CeilDiv(total, 2);
          run_sizes.push_back(total - CeilDiv(total, 2));
        }
      }
    }

    std::vector<std::pair<Rectangle, int64_t>> parent_entries;
    int64_t start = 0;
    for (int64_t size : run_sizes) {
      Node node;
      node.is_leaf = level == 0;
      node.level = level;
      for (int64_t i = start; i < start + size; ++i) {
        node.mbrs.push_back(level_entries[static_cast<size_t>(i)].first);
        node.payloads.push_back(
            level_entries[static_cast<size_t>(i)].second);
      }
      start += size;
      PageId pid = NewNodePage();
      StoreNode(pid, node);
      parent_entries.emplace_back(NodeMbr(node), pid);
    }
    if (parent_entries.size() == 1) {
      // Drop the placeholder empty root; the packed root replaces it.
      --num_nodes_;
      root_ = parent_entries[0].second;
      height_ = level + 1;
      return;
    }
    level_entries = std::move(parent_entries);
    ++level;
  }
}

namespace {

// An entry orphaned by CondenseTree, to be reinserted at `level`.
struct Orphan {
  int level;
  Rectangle mbr;
  int64_t payload;
};

}  // namespace

bool RTree::Delete(const Rectangle& mbr, TupleId tid) {
  struct Frame {
    bool found = false;
    bool underflow = false;
  };
  std::vector<Orphan> orphans;

  // Recursive lambda: deletes from the subtree at pid; reports whether the
  // node now underflows so the parent can dissolve it.
  std::function<Frame(PageId)> descend = [&](PageId pid) -> Frame {
    Node node = LoadNode(pid);
    if (node.is_leaf) {
      for (size_t i = 0; i < node.size(); ++i) {
        if (node.payloads[i] == tid && node.mbrs[i] == mbr) {
          node.mbrs.erase(node.mbrs.begin() + static_cast<long>(i));
          node.payloads.erase(node.payloads.begin() + static_cast<long>(i));
          StoreNode(pid, node);
          return Frame{true,
                       static_cast<int>(node.size()) < min_entries_};
        }
      }
      return Frame{};
    }
    for (size_t i = 0; i < node.size(); ++i) {
      if (!node.mbrs[i].Contains(mbr)) continue;
      PageId child_pid = node.payloads[i];
      Frame sub = descend(child_pid);
      if (!sub.found) continue;
      if (sub.underflow) {
        // Dissolve the child: orphan its entries, drop it from this node.
        Node child = LoadNode(child_pid);
        for (size_t j = 0; j < child.size(); ++j) {
          orphans.push_back(Orphan{child.level, child.mbrs[j],
                                   child.payloads[j]});
        }
        --num_nodes_;
        node.mbrs.erase(node.mbrs.begin() + static_cast<long>(i));
        node.payloads.erase(node.payloads.begin() + static_cast<long>(i));
      } else {
        node.mbrs[i] = NodeMbr(LoadNode(child_pid));
      }
      StoreNode(pid, node);
      return Frame{true, static_cast<int>(node.size()) < min_entries_};
    }
    return Frame{};
  };

  Frame top = descend(root_);
  if (!top.found) return false;
  --num_entries_;

  // Reinsert orphaned entries at their original levels (CondenseTree CT6).
  for (const Orphan& orphan : orphans) {
    // The tree may have the same height; orphan levels are below the root.
    SplitOutcome outcome =
        InsertAt(root_, height_ - 1, orphan.mbr, orphan.payload, orphan.level);
    if (outcome.split) {
      Node new_root;
      new_root.is_leaf = false;
      new_root.level = height_;
      new_root.mbrs = {outcome.left_mbr, outcome.right_mbr};
      new_root.payloads = {root_, outcome.right_page};
      PageId new_root_pid = NewNodePage();
      StoreNode(new_root_pid, new_root);
      root_ = new_root_pid;
      ++height_;
    }
  }

  // Shrink the root while it is a lone-child interior node (CT6 final
  // step / D4).
  for (;;) {
    Node root = LoadNode(root_);
    if (root.is_leaf || root.size() != 1) break;
    root_ = root.payloads[0];
    --height_;
    --num_nodes_;
  }
  return true;
}

void RTree::Search(
    const Rectangle& window,
    const std::function<void(const Rectangle&, TupleId)>& fn) const {
  std::function<void(PageId)> descend = [&](PageId pid) {
    Node node = LoadNode(pid);
    for (size_t i = 0; i < node.size(); ++i) {
      if (!node.mbrs[i].Overlaps(window)) continue;
      if (node.is_leaf) {
        fn(node.mbrs[i], node.payloads[i]);
      } else {
        descend(node.payloads[i]);
      }
    }
  };
  descend(root_);
}

std::vector<TupleId> RTree::SearchTids(const Rectangle& window) const {
  std::vector<TupleId> out;
  Search(window, [&](const Rectangle&, TupleId tid) { out.push_back(tid); });
  return out;
}

Rectangle RTree::RootMbr() const { return NodeMbr(LoadNode(root_)); }

void RTree::CorruptEntryMbrForTest(PageId pid, size_t entry_idx,
                                   const Rectangle& mbr) {
  Node node = LoadNode(pid);
  SJ_CHECK_LT(entry_idx, node.mbrs.size());
  node.mbrs[entry_idx] = mbr;
  StoreNode(pid, node);
}

void RTree::CheckInvariants() const {
  std::function<int64_t(PageId, int, bool)> descend =
      [&](PageId pid, int expected_level, bool is_root) -> int64_t {
    Node node = LoadNode(pid);
    SJ_CHECK_EQ(node.level, expected_level);
    SJ_CHECK_EQ(node.is_leaf, node.level == 0);
    if (!is_root) {
      SJ_CHECK_GE(static_cast<int>(node.size()), min_entries_);
    }
    SJ_CHECK_LE(static_cast<int>(node.size()), max_entries_);
    int64_t entries = 0;
    if (node.is_leaf) {
      entries = static_cast<int64_t>(node.size());
    } else {
      for (size_t i = 0; i < node.size(); ++i) {
        PageId child_pid = node.payloads[i];
        Node child = LoadNode(child_pid);
        Rectangle child_mbr = NodeMbr(child);
        SJ_CHECK_MSG(node.mbrs[i] == child_mbr,
                     "stale parent entry MBR " << node.mbrs[i].ToString()
                                               << " vs child "
                                               << child_mbr.ToString());
        entries += descend(child_pid, expected_level - 1, false);
      }
    }
    return entries;
  };
  int64_t total = descend(root_, height_ - 1, true);
  SJ_CHECK_EQ(total, num_entries_);
}

}  // namespace spatialjoin
