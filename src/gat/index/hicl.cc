#include "gat/index/hicl.h"

#include <algorithm>

#include "gat/common/check.h"
#include "gat/geo/zorder.h"

namespace gat {

Hicl::Hicl(int depth, int memory_levels,
           std::vector<std::vector<uint32_t>> leaf_cells_per_activity)
    : depth_(depth), memory_levels_(memory_levels) {
  GAT_CHECK(depth >= 1);
  GAT_CHECK(memory_levels >= 0 && memory_levels <= depth);
  owned_.resize(leaf_cells_per_activity.size());
  for (size_t a = 0; a < leaf_cells_per_activity.size(); ++a) {
    auto& lists = owned_[a];
    lists.cells.resize(depth_);
    auto& leaf = leaf_cells_per_activity[a];
    std::sort(leaf.begin(), leaf.end());
    leaf.erase(std::unique(leaf.begin(), leaf.end()), leaf.end());
    lists.cells[depth_ - 1] = std::move(leaf);
    // Aggregate upward: parent code = child >> 2 (Section IV: "aggregate
    // the cells that belong to the same parent cell").
    for (int level = depth_ - 1; level >= 1; --level) {
      const auto& child = lists.cells[level];
      auto& parent = lists.cells[level - 1];
      parent.reserve(child.size());
      for (uint32_t code : child) {
        const uint32_t p = zorder::Parent(code);
        if (parent.empty() || parent.back() != p) parent.push_back(p);
      }
    }
    for (int level = 1; level <= depth_; ++level) {
      const size_t bytes = lists.cells[level - 1].size() * sizeof(uint32_t);
      if (level <= memory_levels_) {
        memory_bytes_ += bytes;
      } else {
        disk_bytes_ += bytes;
      }
    }
  }
  RebuildViews();
}

void Hicl::RebuildViews() {
  num_activities_ = static_cast<uint32_t>(owned_.size());
  views_.clear();
  views_.resize(static_cast<size_t>(num_activities_) *
                static_cast<size_t>(depth_));
  for (size_t a = 0; a < owned_.size(); ++a) {
    for (int level = 1; level <= depth_; ++level) {
      const auto& cells = owned_[a].cells[level - 1];
      LevelView& view = views_[a * static_cast<size_t>(depth_) + (level - 1)];
      view.cells = {cells.data(), cells.size()};
      view.tier_bytes = cells.size() * sizeof(uint32_t);
    }
  }
}

bool Hicl::Contains(ActivityId a, int level, uint32_t code,
                    DiskAccessCounter* disk) const {
  const auto cells = CellsAt(a, level, disk);
  return std::binary_search(cells.begin(), cells.end(), code);
}

std::span<const uint32_t> Hicl::CellsAt(ActivityId a, int level,
                                        DiskAccessCounter* disk) const {
  GAT_DCHECK(level >= 1 && level <= depth_);
  if (a >= num_activities_) return {};
  const LevelView& view = ViewAt(a, level);
  if (level > memory_levels_ && disk != nullptr) {
    tier_->Fetch(view.tier_offset, view.tier_bytes, disk);
  }
  return view.cells;
}

std::vector<uint32_t> Hicl::CellsWithAny(
    const std::vector<ActivityId>& activities, int level) const {
  std::vector<uint32_t> out;
  for (ActivityId a : activities) {
    const auto cells = CellsAt(a, level);
    out.insert(out.end(), cells.begin(), cells.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void Hicl::ChildrenWithAny(const std::vector<ActivityId>& activities,
                           int level, uint32_t code,
                           std::vector<uint32_t>* out) const {
  GAT_DCHECK(level >= 1 && level < depth_);
  const uint32_t first = zorder::FirstChild(code);
  uint32_t found = 0;  // bit i: child first + i contains some activity
  for (ActivityId a : activities) {
    const auto cells = CellsAt(a, level + 1);
    for (auto it = std::lower_bound(cells.begin(), cells.end(), first);
         it != cells.end() && *it - first < 4; ++it) {
      found |= 1u << (*it - first);
    }
    if (found == 0xF) break;
  }
  for (uint32_t i = 0; i < 4; ++i) {
    if ((found >> i) & 1u) out->push_back(first + i);
  }
}

int Hicl::MemoryLevelsForBudget(size_t budget_bytes, uint32_t vocabulary,
                                int depth) {
  // h = largest integer with sum_{i=1..h} 4^i * C * 4bytes <= budget.
  size_t used = 0;
  int h = 0;
  for (int level = 1; level <= depth; ++level) {
    const size_t level_cost =
        (uint64_t{1} << (2 * level)) * static_cast<size_t>(vocabulary) * 4;
    if (used + level_cost > budget_bytes) break;
    used += level_cost;
    h = level;
  }
  return h;
}

}  // namespace gat
