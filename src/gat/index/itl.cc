#include "gat/index/itl.h"

#include <algorithm>
#include <limits>

#include "gat/common/check.h"

namespace gat {

Itl::Itl(Builder builder) {
  // First pass: order the cells and size the flat arrays.
  std::vector<uint32_t> codes;
  codes.reserve(builder.size());
  size_t num_runs = 0;
  size_t num_ids = 0;
  for (auto& [code, acts] : builder) {
    codes.push_back(code);
    num_runs += acts.size();
    for (auto& [_, trajs] : acts) {
      std::sort(trajs.begin(), trajs.end());
      trajs.erase(std::unique(trajs.begin(), trajs.end()), trajs.end());
      num_ids += trajs.size();
    }
  }
  GAT_CHECK(num_ids <= std::numeric_limits<uint32_t>::max());
  std::sort(codes.begin(), codes.end());
  Reserve(codes.size(), num_runs, num_ids);

  // Second pass: each cell in the per-cell layout the snapshot stores.
  std::vector<ActivityId> activities;
  std::vector<uint32_t> offsets;
  std::vector<TrajectoryId> ids;
  for (uint32_t code : codes) {
    const auto& acts = builder.at(code);
    activities.clear();
    for (const auto& [a, _] : acts) activities.push_back(a);
    std::sort(activities.begin(), activities.end());
    offsets.assign(1, 0);
    ids.clear();
    for (ActivityId a : activities) {
      const auto& trajs = acts.at(a);
      ids.insert(ids.end(), trajs.begin(), trajs.end());
      offsets.push_back(static_cast<uint32_t>(ids.size()));
    }
    AppendCell(code, activities, offsets, ids);
  }
}

size_t Itl::FindCell(uint32_t leaf_code) const {
  const auto it = std::lower_bound(codes_.begin(), codes_.end(), leaf_code);
  if (it == codes_.end() || *it != leaf_code) return codes_.size();
  return static_cast<size_t>(it - codes_.begin());
}

void Itl::Reserve(size_t num_cells, size_t num_runs, size_t num_ids) {
  codes_.reserve(num_cells);
  cell_runs_.reserve(num_cells + 1);
  run_activity_.reserve(num_runs);
  run_begin_.reserve(num_runs + 1);
  trajectories_.reserve(num_ids);
}

void Itl::AppendCell(uint32_t code, std::span<const ActivityId> activities,
                     std::span<const uint32_t> offsets,
                     std::span<const TrajectoryId> trajectories) {
  GAT_DCHECK(codes_.empty() || codes_.back() < code);
  GAT_DCHECK(offsets.size() == activities.size() + 1);
  const uint32_t base = static_cast<uint32_t>(trajectories_.size());
  codes_.push_back(code);
  run_activity_.insert(run_activity_.end(), activities.begin(),
                       activities.end());
  for (size_t i = 1; i < offsets.size(); ++i) {
    run_begin_.push_back(base + offsets[i]);
  }
  trajectories_.insert(trajectories_.end(), trajectories.begin(),
                       trajectories.end());
  cell_runs_.push_back(static_cast<uint32_t>(run_activity_.size()));
}

std::span<const TrajectoryId> Itl::Trajectories(uint32_t leaf_code,
                                                ActivityId activity) const {
  const size_t c = FindCell(leaf_code);
  if (c == codes_.size()) return {};
  const auto first = run_activity_.begin() + cell_runs_[c];
  const auto last = run_activity_.begin() + cell_runs_[c + 1];
  const auto it = std::lower_bound(first, last, activity);
  if (it == last || *it != activity) return {};
  const size_t r = static_cast<size_t>(it - run_activity_.begin());
  return {trajectories_.data() + run_begin_[r],
          trajectories_.data() + run_begin_[r + 1]};
}

std::span<const ActivityId> Itl::ActivitiesIn(uint32_t leaf_code) const {
  const size_t c = FindCell(leaf_code);
  if (c == codes_.size()) return {};
  return {run_activity_.data() + cell_runs_[c],
          run_activity_.data() + cell_runs_[c + 1]};
}

}  // namespace gat
