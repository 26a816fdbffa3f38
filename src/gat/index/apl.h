#ifndef GAT_INDEX_APL_H_
#define GAT_INDEX_APL_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "gat/common/storage_tier.h"
#include "gat/common/types.h"
#include "gat/model/dataset.h"
#include "gat/storage/disk_tier.h"

namespace gat {

struct SnapshotIo;

/// Activity Posting List (Section IV, component iv).
///
/// For every trajectory and every activity it contains, APL lists the point
/// indices carrying that activity. The paper stores this on disk ("due to
/// its high space requirement") and fetches it only during candidate
/// validation and distance evaluation — every lookup therefore goes through
/// the attached `DiskTier`, which records one logical disk read per fetched
/// row (and, for an mmap-backed tier, runs the row's covering cache blocks
/// through the block cache).
///
/// The read path is uniform over two storages: rows built from a dataset
/// (or copied out of a snapshot by `LoadSnapshot`) own their vectors;
/// rows served by a `MappedSnapshot` are zero-copy spans into the file
/// mapping, with their byte extents recorded for block-granular I/O
/// accounting. One parser (`ParseSnapshot`) produces both.
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

  /// Warms the disk-tier blocks of trajectory `t`'s posting row without
  /// charging a logical read — the prefetch path (no-op under the
  /// simulated tier, where there is nothing to warm).
  void PrefetchRow(TrajectoryId t) const;

  size_t DiskBytes() const { return disk_bytes_; }
  size_t num_trajectories() const { return rows_.size(); }

  /// The tier this APL reads through (process-wide simulated instance by
  /// default; a MappedSnapshot attaches its block-cached tier).
  const DiskTier& disk_tier() const { return *tier_; }

 private:
  friend struct SnapshotIo;  // snapshot save/parse (both storages)
  Apl() = default;           // only for snapshot loading

  /// Owned storage of one built or copied-out row.
  struct TrajectoryPostings {
    std::vector<ActivityId> activities;  // sorted
    std::vector<uint32_t> offsets;       // size + 1
    std::vector<PointIndex> points;      // concatenated runs
  };

  /// The uniform read-path view of one row, plus its byte extent for
  /// the disk tier (file offsets for mapped rows; 0/logical-size for
  /// owned rows, where only the size feeds the accounting).
  struct RowView {
    std::span<const ActivityId> activities;
    std::span<const uint32_t> offsets;
    std::span<const PointIndex> points;
    uint64_t tier_offset = 0;
    uint64_t tier_bytes = 0;
  };

  /// Rebuilds `rows_` as views over `owned_` (after build/deserialize).
  void RebuildViews();

  std::vector<TrajectoryPostings> owned_;  // empty when mmap-served
  std::vector<RowView> rows_;
  const DiskTier* tier_ = SimulatedDiskTier::Instance();
  size_t disk_bytes_ = 0;
};

}  // namespace gat

#endif  // GAT_INDEX_APL_H_
