#include "gat/index/hicl.h"

#include <algorithm>
#include <functional>

#include "gat/common/check.h"
#include "gat/geo/zorder.h"
#include "gat/index/snapshot_format.h"
#include "gat/storage/mapped_disk_tier.h"

namespace gat {

namespace {

/// The distinct level ancestors of sorted `leaf` codes, `shift` bits up
/// (Section IV: "aggregate the cells that belong to the same parent
/// cell"); shifting keeps them sorted. Writes them to `out` unless it is
/// null, and returns how many there are.
size_t Ancestors(const std::vector<uint32_t>& leaf, int shift, uint32_t* out) {
  size_t n = 0;
  for (size_t i = 0; i < leaf.size(); ++i) {
    if (i > 0 && leaf[i] >> shift == leaf[i - 1] >> shift) continue;
    if (out != nullptr) out[n] = leaf[i] >> shift;
    ++n;
  }
  return n;
}

}  // namespace

Hicl::Hicl(int depth, int memory_levels,
           const std::vector<std::vector<uint32_t>>& leaf_cells_per_activity)
    : depth_(depth), memory_levels_(memory_levels) {
  GAT_CHECK(depth >= 1);
  GAT_CHECK(memory_levels >= 0 && memory_levels <= depth);
  // First pass sizes the image: a count word and the codes per list.
  size_t words = 0;
  for (const auto& leaf : leaf_cells_per_activity) {
    GAT_DCHECK(std::adjacent_find(leaf.begin(), leaf.end(),
                                  std::greater_equal<>()) == leaf.end());
    for (int level = 1; level <= depth_; ++level) {
      words += snapshot_format::kCountWords +
               Ancestors(leaf, 2 * (depth_ - level), nullptr);
    }
  }
  image_.resize(words);
  lists_.reserve(leaf_cells_per_activity.size() * depth_);
  // Second pass writes every list as the snapshot stores it.
  uint32_t* out = image_.data();
  for (const auto& leaf : leaf_cells_per_activity) {
    for (int level = 1; level <= depth_; ++level) {
      uint32_t* cells = out + snapshot_format::kCountWords;
      const size_t n = Ancestors(leaf, 2 * (depth_ - level), cells);
      snapshot_format::PutCount(out, n);
      out = cells + n;
      lists_.emplace_back(cells, n);
      (level <= memory_levels_ ? memory_bytes_ : disk_bytes_) +=
          n * sizeof(uint32_t);
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
  const size_t list = static_cast<size_t>(a) * depth_ + (level - 1);
  if (list >= lists_.size()) return {};  // an activity the index lacks
  const auto cells = lists_[list];
  if (level > memory_levels_ && disk != nullptr) {
    disk->RecordRead();
    if (tier_ != nullptr) {
      tier_->ReadBlocks(snapshot_format::ArrayExtent(cells, cells), disk);
    }
  }
  return cells;
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
