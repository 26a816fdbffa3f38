#include "gat/index/itl.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "gat/common/check.h"

namespace gat {

Itl::Itl(std::vector<Posting> postings) {
  // Bucket the postings by leaf in place (an American-flag counting
  // sort): bucket l is [bucket[l], bucket[l + 1]), and each posting is
  // cycled into the next free slot of its bucket.
  size_t num_leaves = 0;
  for (const Posting& p : postings) {
    num_leaves = std::max<size_t>(num_leaves, size_t{p.leaf} + 1);
  }
  std::vector<size_t> bucket(num_leaves + 1, 0);
  for (const Posting& p : postings) ++bucket[size_t{p.leaf} + 1];
  for (size_t l = 0; l < num_leaves; ++l) bucket[l + 1] += bucket[l];
  std::vector<size_t> end(bucket.begin(), bucket.end() - 1);  // fill cursor
  for (size_t l = 0; l < num_leaves; ++l) {
    while (end[l] < bucket[l + 1]) {
      Posting p = postings[end[l]];
      while (p.leaf != l) std::swap(p, postings[end[p.leaf]++]);
      postings[end[l]++] = p;
    }
  }

  // Sort and deduplicate each bucket by (activity, trajectory); `end`
  // becomes the end of its unique postings. Count the cells, runs and
  // IDs on the way, so the flat arrays are sized exactly.
  const auto by_key = [](const Posting& a, const Posting& b) {
    return std::pair(a.activity, a.trajectory) <
           std::pair(b.activity, b.trajectory);
  };
  const auto same_key = [](const Posting& a, const Posting& b) {
    return a.activity == b.activity && a.trajectory == b.trajectory;
  };
  size_t num_cells = 0, num_runs = 0, num_ids = 0;
  for (size_t l = 0; l < num_leaves; ++l) {
    const auto first = postings.begin() + bucket[l];
    auto last = postings.begin() + bucket[l + 1];
    if (first == last) continue;
    std::sort(first, last, by_key);
    last = std::unique(first, last, same_key);
    end[l] = static_cast<size_t>(last - postings.begin());
    ++num_cells;
    for (auto it = first; it != last; ++it) {
      num_runs += (it == first || it->activity != (it - 1)->activity) ? 1 : 0;
    }
    num_ids += static_cast<size_t>(last - first);
  }
  GAT_CHECK(num_ids <= std::numeric_limits<uint32_t>::max());
  Reserve(num_cells, num_runs, num_ids);

  // Write each cell in code order; a run ends where the next posting
  // names another activity.
  for (size_t l = 0; l < num_leaves; ++l) {
    if (bucket[l] == bucket[l + 1]) continue;
    codes_.push_back(static_cast<uint32_t>(l));
    for (size_t i = bucket[l]; i < end[l]; ++i) {
      const Posting& p = postings[i];
      if (i == bucket[l] || p.activity != postings[i - 1].activity) {
        run_activity_.push_back(p.activity);
      }
      trajectories_.push_back(p.trajectory);
      if (i + 1 == end[l] || postings[i + 1].activity != p.activity) {
        run_begin_.push_back(static_cast<uint32_t>(trajectories_.size()));
      }
    }
    cell_runs_.push_back(static_cast<uint32_t>(run_activity_.size()));
  }
}

std::vector<std::vector<uint32_t>> Itl::CellsPerActivity(
    uint32_t min_activities) const {
  // Count first, so every list is allocated once at its exact size.
  uint32_t num_activities = min_activities;
  for (ActivityId a : run_activity_) {
    num_activities = std::max(num_activities, a + 1);
  }
  std::vector<uint32_t> counts(num_activities, 0);
  for (ActivityId a : run_activity_) ++counts[a];
  std::vector<std::vector<uint32_t>> cells(num_activities);
  for (uint32_t a = 0; a < num_activities; ++a) cells[a].reserve(counts[a]);
  // Cells ascend by code, so every list comes out sorted.
  for (size_t c = 0; c < codes_.size(); ++c) {
    for (uint32_t r = cell_runs_[c]; r < cell_runs_[c + 1]; ++r) {
      cells[run_activity_[r]].push_back(codes_[c]);
    }
  }
  return cells;
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
