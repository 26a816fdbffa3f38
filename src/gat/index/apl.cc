#include "gat/index/apl.h"

#include <algorithm>
#include <map>

namespace gat {

Apl::Apl(const Dataset& dataset) {
  owned_.resize(dataset.size());
  for (TrajectoryId t = 0; t < dataset.size(); ++t) {
    const auto& tr = dataset.trajectory(t);
    // Ordered map keeps activities sorted; point indices arrive ascending.
    std::map<ActivityId, std::vector<PointIndex>> lists;
    for (PointIndex i = 0; i < tr.size(); ++i) {
      for (ActivityId a : tr[i].activities) lists[a].push_back(i);
    }
    auto& tp = owned_[t];
    tp.offsets.push_back(0);
    for (auto& [a, pts] : lists) {
      tp.activities.push_back(a);
      tp.points.insert(tp.points.end(), pts.begin(), pts.end());
      tp.offsets.push_back(static_cast<uint32_t>(tp.points.size()));
    }
    disk_bytes_ += tp.activities.size() * sizeof(ActivityId) +
                   tp.offsets.size() * sizeof(uint32_t) +
                   tp.points.size() * sizeof(PointIndex);
  }
  RebuildViews();
}

void Apl::RebuildViews() {
  rows_.clear();
  rows_.reserve(owned_.size());
  for (const auto& tp : owned_) {
    RowView row;
    row.activities = {tp.activities.data(), tp.activities.size()};
    row.offsets = {tp.offsets.data(), tp.offsets.size()};
    row.points = {tp.points.data(), tp.points.size()};
    row.tier_bytes = tp.activities.size() * sizeof(ActivityId) +
                     tp.offsets.size() * sizeof(uint32_t) +
                     tp.points.size() * sizeof(PointIndex);
    rows_.push_back(row);
  }
}

std::span<const PointIndex> Apl::Postings(TrajectoryId t, ActivityId activity,
                                          DiskAccessCounter* disk) const {
  // Charge-then-check, like the seed: a probe of a nonexistent row is
  // still one (fruitless) fetch.
  if (t >= rows_.size()) {
    tier_->Fetch(0, 0, disk);
    return {};
  }
  const RowView& tp = rows_[t];
  tier_->Fetch(tp.tier_offset, tp.tier_bytes, disk);
  const auto it =
      std::lower_bound(tp.activities.begin(), tp.activities.end(), activity);
  if (it == tp.activities.end() || *it != activity) return {};
  const size_t idx = static_cast<size_t>(it - tp.activities.begin());
  return {tp.points.data() + tp.offsets[idx],
          tp.points.data() + tp.offsets[idx + 1]};
}

bool Apl::HasAllActivities(TrajectoryId t,
                           const std::vector<ActivityId>& activities,
                           DiskAccessCounter* disk) const {
  if (t >= rows_.size()) {
    tier_->Fetch(0, 0, disk);
    return activities.empty();
  }
  const RowView& tp = rows_[t];
  tier_->Fetch(tp.tier_offset, tp.tier_bytes, disk);
  return std::includes(tp.activities.begin(), tp.activities.end(),
                       activities.begin(), activities.end());
}

std::span<const ActivityId> Apl::ActivitiesOf(TrajectoryId t,
                                              DiskAccessCounter* disk) const {
  if (t >= rows_.size()) {
    tier_->Fetch(0, 0, disk);
    return {};
  }
  const RowView& tp = rows_[t];
  tier_->Fetch(tp.tier_offset, tp.tier_bytes, disk);
  return tp.activities;
}

}  // namespace gat
