#include "gat/rtree/rtree.h"

#include <algorithm>
#include <cmath>

#include "gat/common/check.h"
#include "gat/model/dataset.h"

namespace gat {

/// R-tree node: a leaf holds entries, an internal node holds children.
/// `level` is 0 at leaves and grows upward.
struct RTree::Node {
  Rect mbr = Rect::Empty();
  int level = 0;
  /// Index of the node's inverted file, in a tree built with activities.
  uint32_t id = 0;
  std::vector<std::unique_ptr<Node>> children;
  std::vector<RTreeEntry> entries;

  bool leaf() const { return level == 0; }
};

namespace {

/// 64-bit hash summary of an activity set (one bit per activity hash).
uint64_t SummaryBit(ActivityId a) {
  uint64_t x = a;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return uint64_t{1} << (x & 63);
}

uint64_t SummaryOf(const std::vector<ActivityId>& activities) {
  uint64_t s = 0;
  for (ActivityId a : activities) s |= SummaryBit(a);
  return s;
}

/// Sorted-union in place.
void MergeInto(std::vector<ActivityId>* dst,
               const std::vector<ActivityId>& src) {
  std::vector<ActivityId> merged;
  merged.reserve(dst->size() + src.size());
  std::set_union(dst->begin(), dst->end(), src.begin(), src.end(),
                 std::back_inserter(merged));
  *dst = std::move(merged);
}

/// True if the sorted `activities` hold any of the sorted `filter`.
bool HoldsAny(const std::vector<ActivityId>& activities,
              const std::vector<ActivityId>& filter) {
  return std::any_of(filter.begin(), filter.end(), [&](ActivityId a) {
    return std::binary_search(activities.begin(), activities.end(), a);
  });
}

const TrajectoryPoint& PointOf(const Dataset& dataset, const RTreeEntry& e) {
  return dataset.trajectory(e.trajectory)[e.point_index];
}

}  // namespace

RTree::RTree(int max_entries) : max_entries_(max_entries) {
  GAT_CHECK(max_entries >= 4);
  root_ = std::make_unique<Node>();
}

RTree::~RTree() = default;
RTree::RTree(RTree&&) noexcept = default;
RTree& RTree::operator=(RTree&&) noexcept = default;

int RTree::Height() const {
  if (size_ == 0) return 0;
  return root_->level + 1;
}

RTree RTree::BulkLoad(std::vector<RTreeEntry> entries, int max_entries,
                      const Dataset* activities) {
  RTree tree(max_entries);
  tree.size_ = entries.size();
  tree.activities_ = activities;
  if (entries.empty()) return tree;

  const size_t cap = static_cast<size_t>(max_entries);

  // A finished node's MBR, and with activities its inverted file.
  auto& files = tree.inverted_files_;
  const auto finish = [activities, &files](Node* node) {
    InvertedFile file;
    if (node->leaf()) {
      for (const auto& e : node->entries) {
        node->mbr.Expand(e.point);
        if (activities != nullptr) {
          MergeInto(&file.activities, PointOf(*activities, e).activities);
        }
      }
    } else {
      for (const auto& c : node->children) {
        node->mbr.Expand(c->mbr);
        if (activities != nullptr) {
          MergeInto(&file.activities, files[c->id].activities);
        }
      }
    }
    if (activities == nullptr) return;
    file.summary = SummaryOf(file.activities);
    node->id = static_cast<uint32_t>(files.size());
    files.push_back(std::move(file));
  };

  // Sort-Tile-Recursive leaf packing.
  std::sort(entries.begin(), entries.end(),
            [](const RTreeEntry& a, const RTreeEntry& b) {
              return a.point.x < b.point.x;
            });
  const size_t num_pages = (entries.size() + cap - 1) / cap;
  const size_t slabs = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_pages))));
  const size_t slab_size = slabs * cap;

  std::vector<std::unique_ptr<Node>> level_nodes;
  for (size_t s = 0; s * slab_size < entries.size(); ++s) {
    const size_t begin = s * slab_size;
    const size_t end = std::min(begin + slab_size, entries.size());
    std::sort(entries.begin() + begin, entries.begin() + end,
              [](const RTreeEntry& a, const RTreeEntry& b) {
                return a.point.y < b.point.y;
              });
    for (size_t i = begin; i < end; i += cap) {
      auto leaf = std::make_unique<Node>();
      leaf->level = 0;
      const size_t page_end = std::min(i + cap, end);
      leaf->entries.assign(entries.begin() + i, entries.begin() + page_end);
      finish(leaf.get());
      level_nodes.push_back(std::move(leaf));
    }
  }

  // Pack upward until a single root remains.
  int level = 1;
  while (level_nodes.size() > 1) {
    std::sort(level_nodes.begin(), level_nodes.end(),
              [](const std::unique_ptr<Node>& a, const std::unique_ptr<Node>& b) {
                return a->mbr.Center().x < b->mbr.Center().x;
              });
    const size_t pages = (level_nodes.size() + cap - 1) / cap;
    const size_t s2 = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(pages))));
    const size_t slab2 = s2 * cap;
    for (size_t s = 0; s * slab2 < level_nodes.size(); ++s) {
      const size_t begin = s * slab2;
      const size_t end = std::min(begin + slab2, level_nodes.size());
      std::sort(level_nodes.begin() + begin, level_nodes.begin() + end,
                [](const std::unique_ptr<Node>& a,
                   const std::unique_ptr<Node>& b) {
                  return a->mbr.Center().y < b->mbr.Center().y;
                });
    }
    std::vector<std::unique_ptr<Node>> parents;
    for (size_t i = 0; i < level_nodes.size(); i += cap) {
      auto parent = std::make_unique<Node>();
      parent->level = level;
      const size_t end = std::min(i + cap, level_nodes.size());
      for (size_t j = i; j < end; ++j) {
        parent->children.push_back(std::move(level_nodes[j]));
      }
      finish(parent.get());
      parents.push_back(std::move(parent));
    }
    level_nodes = std::move(parents);
    ++level;
  }
  tree.root_ = std::move(level_nodes.front());
  return tree;
}

bool RTree::CheckInvariants() const {
  if (size_ == 0) return true;
  // Depth of the leftmost leaf is the reference depth.
  const Node* n = root_.get();
  int leaf_depth = 0;
  while (!n->leaf()) {
    if (n->children.empty()) return false;
    n = n->children.front().get();
    ++leaf_depth;
  }
  const auto check = [&](const auto& self, const Node* node,
                         int depth) -> bool {
    if (node->leaf()) {
      if (depth != leaf_depth) return false;
      if (node->entries.size() > static_cast<size_t>(max_entries_)) {
        return false;
      }
      for (const auto& e : node->entries) {
        if (!node->mbr.Contains(e.point)) return false;
      }
      return true;
    }
    if (node->children.empty() ||
        node->children.size() > static_cast<size_t>(max_entries_)) {
      return false;
    }
    Rect combined = Rect::Empty();
    for (const auto& c : node->children) {
      combined.Expand(c->mbr);
      if (c->level != node->level - 1) return false;
      if (!self(self, c.get(), depth + 1)) return false;
    }
    return combined == node->mbr;
  };
  return check(check, root_.get(), 0);
}

std::vector<RTreeEntry> RTree::CollectAll() const {
  std::vector<RTreeEntry> out;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (n->leaf()) {
      out.insert(out.end(), n->entries.begin(), n->entries.end());
    } else {
      for (const auto& c : n->children) stack.push_back(c.get());
    }
  }
  return out;
}

RTree::NearestIterator::NearestIterator(const RTree& tree, const Point& origin,
                                        std::vector<ActivityId> filter)
    : tree_(tree), origin_(origin), filter_(std::move(filter)) {
  if (!filter_.empty()) {
    GAT_CHECK(tree.activities_ != nullptr);
    std::sort(filter_.begin(), filter_.end());
    filter_.erase(std::unique(filter_.begin(), filter_.end()), filter_.end());
    filter_summary_ = SummaryOf(filter_);
  }
  if (tree.size_ > 0) {
    heap_.push(HeapItem{MinDist(origin_, tree.root_->mbr), tree.root_.get(),
                        nullptr});
  }
}

bool RTree::NearestIterator::Next(const RTreeEntry** entry, double* distance) {
  while (!heap_.empty()) {
    const HeapItem item = heap_.top();
    heap_.pop();
    if (item.node == nullptr) {
      *entry = item.entry;
      *distance = item.distance;
      return true;
    }
    ++nodes_popped_;
    const Node* n = item.node;
    if (n->leaf()) {
      for (const auto& e : n->entries) {
        if (!filter_.empty() &&
            !PointOf(*tree_.activities_, e).HasAnyActivity(filter_)) {
          continue;  // the point carries none of the demanded activities
        }
        heap_.push(HeapItem{Distance(origin_, e.point), nullptr, &e});
      }
    } else {
      for (const auto& c : n->children) {
        // Check the child's inverted file before probing it (Section
        // III-C): summary first (cheap), exact union on a summary hit.
        if (!filter_.empty()) {
          const InvertedFile& file = tree_.inverted_files_[c->id];
          if ((file.summary & filter_summary_) == 0 ||
              !HoldsAny(file.activities, filter_)) {
            ++nodes_pruned_;
            continue;
          }
        }
        heap_.push(HeapItem{MinDist(origin_, c->mbr), c.get(), nullptr});
      }
    }
  }
  return false;
}

double RTree::NearestIterator::PendingLowerBound() const {
  return heap_.empty() ? kInfDist : heap_.top().distance;
}

}  // namespace gat
