#ifndef GAT_INDEX_APL_H_
#define GAT_INDEX_APL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "gat/common/storage_tier.h"
#include "gat/common/types.h"
#include "gat/model/dataset.h"

namespace gat {

class MappedDiskTier;
struct SnapshotIo;

/// Activity Posting List (Section IV, component iv).
///
/// For every trajectory and every activity it contains, APL lists the point
/// indices carrying that activity. The paper stores this on disk ("due to
/// its high space requirement") and fetches it only during candidate
/// validation and distance evaluation — every lookup therefore charges one
/// logical disk read per fetched row, and an index served from a mapping
/// also reads the row's covering cache blocks through its `MappedDiskTier`.
///
/// Storage is one image of u32 words laid out like the snapshot's `APL_`
/// rows: per trajectory its activities, offsets and points, each a u64
/// count and then the elements. A row is three spans into it. A build
/// writes the image into one heap buffer, `LoadSnapshot` without a cache
/// copies the section into one, and with a cache it serves the section
/// from the file mapping. A fetched row's bytes run from its first count
/// word through its last point.
class Apl {
 public:
  explicit Apl(const Dataset& dataset);

  /// Point indices of `activity` within trajectory `t` (ascending); empty
  /// when the trajectory lacks the activity.
  std::span<const PointIndex> Postings(TrajectoryId t, ActivityId activity,
                                       DiskAccessCounter* disk = nullptr) const;

  /// Validation step of Section V-C: does trajectory `t` have a posting
  /// list for *every* activity in `activities`? Eliminates TAS false
  /// positives exactly.
  bool HasAllActivities(TrajectoryId t,
                        const std::vector<ActivityId>& activities,
                        DiskAccessCounter* disk = nullptr) const;

  /// Sorted activity IDs of trajectory `t`.
  std::span<const ActivityId> ActivitiesOf(
      TrajectoryId t, DiskAccessCounter* disk = nullptr) const;

  size_t DiskBytes() const { return disk_bytes_; }
  size_t num_trajectories() const { return rows_.size(); }

  Apl(const Apl&) = delete;  // rows are spans into the image
  Apl& operator=(const Apl&) = delete;

 private:
  friend struct SnapshotIo;  // snapshot save/parse
  Apl() = default;           // only for snapshot loading

  struct RowView {
    std::span<const ActivityId> activities;  // sorted
    std::span<const uint32_t> offsets;       // size + 1
    std::span<const PointIndex> points;      // concatenated runs
  };

  /// Charges one fetch of row `t` to `disk` and returns the row; nullptr
  /// past the last row, after charging a fruitless fetch, as the seed did.
  const RowView* FetchRow(TrajectoryId t, DiskAccessCounter* disk) const;

  /// The heap image; empty when the rows are served from a mapping.
  std::vector<uint32_t> image_;
  std::vector<RowView> rows_;
  /// The mapping's block reader; nullptr for a heap image.
  const MappedDiskTier* tier_ = nullptr;
  size_t disk_bytes_ = 0;
};

}  // namespace gat

#endif  // GAT_INDEX_APL_H_
