#include "gat/index/apl.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "gat/common/check.h"
#include "gat/index/snapshot_format.h"
#include "gat/storage/mapped_disk_tier.h"

namespace gat {

using snapshot_format::kCountWords;
using snapshot_format::PutCount;

Apl::Apl(const Dataset& dataset) {
  // First pass sizes the image without sorting: per row three counts,
  // k activities, k + 1 offsets and the n points, where n counts the
  // row's (point, activity) pairs and k its distinct activities
  // (`last_row[a] == t` once activity a is counted for row t).
  constexpr TrajectoryId kNoRow = std::numeric_limits<TrajectoryId>::max();
  std::vector<TrajectoryId> last_row(dataset.activity_frame_limit(), kNoRow);
  size_t words = 0, max_n = 0;
  for (TrajectoryId t = 0; t < dataset.size(); ++t) {
    size_t k = 0, n = 0;
    for (const TrajectoryPoint& p : dataset.trajectory(t).points()) {
      for (ActivityId a : p.activities) {
        if (a >= last_row.size()) last_row.resize(size_t{a} + 1, kNoRow);
        k += std::exchange(last_row[a], t) != t ? 1 : 0;
      }
      n += p.activities.size();
    }
    words += 3 * kCountWords + 2 * k + 1 + n;
    max_n = std::max(max_n, n);
  }
  image_.resize(words);
  rows_.reserve(dataset.size());
  // Second pass sorts each row's (activity, point) pairs once —
  // activities ascending and, within one activity, its points — and
  // writes the row as the snapshot stores it.
  std::vector<std::pair<ActivityId, PointIndex>> pairs;
  pairs.reserve(max_n);
  uint32_t* out = image_.data();
  for (TrajectoryId t = 0; t < dataset.size(); ++t) {
    const auto& tr = dataset.trajectory(t);
    pairs.clear();
    for (PointIndex i = 0; i < tr.size(); ++i) {
      for (ActivityId a : tr[i].activities) pairs.emplace_back(a, i);
    }
    std::sort(pairs.begin(), pairs.end());
    const size_t n = pairs.size();
    size_t k = 0;
    for (size_t i = 0; i < n; ++i) {
      k += (i == 0 || pairs[i].first != pairs[i - 1].first) ? 1 : 0;
    }
    uint32_t* activities = PutCount(out, k);
    uint32_t* offsets = PutCount(activities + k, k + 1);
    uint32_t* points = PutCount(offsets + k + 1, n);
    out = points + n;
    size_t run = 0;
    for (size_t i = 0; i < n; ++i) {
      if (i == 0 || pairs[i].first != pairs[i - 1].first) {
        activities[run] = pairs[i].first;
        offsets[run++] = static_cast<uint32_t>(i);
      }
      points[i] = pairs[i].second;
    }
    offsets[k] = static_cast<uint32_t>(n);
    rows_.push_back({{activities, k}, {offsets, k + 1}, {points, n}});
    disk_bytes_ += (2 * k + 1 + n) * sizeof(uint32_t);
  }
  GAT_CHECK(out == image_.data() + image_.size());
}

const Apl::RowView* Apl::FetchRow(TrajectoryId t,
                                  DiskAccessCounter* disk) const {
  // nullptr = "this query already fetched the row": no charge, no block
  // I/O. Charge-then-check, like the seed: a probe of a nonexistent row
  // is still one (fruitless) fetch.
  if (disk != nullptr) disk->RecordRead();
  if (t >= rows_.size()) return nullptr;
  const RowView& row = rows_[t];
  if (disk != nullptr && tier_ != nullptr) {
    tier_->ReadBlocks(snapshot_format::ArrayExtent(row.activities, row.points),
                      disk);
  }
  return &row;
}

std::span<const PointIndex> Apl::Postings(TrajectoryId t, ActivityId activity,
                                          DiskAccessCounter* disk) const {
  const RowView* row = FetchRow(t, disk);
  if (row == nullptr) return {};
  const auto it = std::lower_bound(row->activities.begin(),
                                  row->activities.end(), activity);
  if (it == row->activities.end() || *it != activity) return {};
  const size_t idx = static_cast<size_t>(it - row->activities.begin());
  return row->points.subspan(row->offsets[idx],
                             row->offsets[idx + 1] - row->offsets[idx]);
}

bool Apl::HasAllActivities(TrajectoryId t,
                           const std::vector<ActivityId>& activities,
                           DiskAccessCounter* disk) const {
  const RowView* row = FetchRow(t, disk);
  if (row == nullptr) return activities.empty();
  return std::includes(row->activities.begin(), row->activities.end(),
                       activities.begin(), activities.end());
}

std::span<const ActivityId> Apl::ActivitiesOf(TrajectoryId t,
                                              DiskAccessCounter* disk) const {
  const RowView* row = FetchRow(t, disk);
  if (row == nullptr) return {};
  return row->activities;
}

}  // namespace gat
