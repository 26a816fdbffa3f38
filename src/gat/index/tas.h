#ifndef GAT_INDEX_TAS_H_
#define GAT_INDEX_TAS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gat/common/types.h"

namespace gat {

struct SnapshotIo;

/// Trajectory Activity Sketch (Section IV, component iii).
///
/// A per-trajectory summary of the activities it contains: the trajectory's
/// (frequency-ranked) activity IDs are partitioned into at most M intervals
/// chosen to minimize total interval width — achieved by splitting at the
/// M-1 largest gaps between consecutive sorted IDs, which the paper proves
/// optimal. A query activity "might" be contained iff it falls inside one
/// of the intervals; false positives are possible, false dismissals are
/// not. Cost: two 32-bit IDs per interval = 8·M·N bytes for N trajectories,
/// matching the paper's memory accounting.
class Tas {
 public:
  struct Interval {
    ActivityId lo = 0;
    ActivityId hi = 0;
  };

  /// Builds sketches for trajectories whose sorted-unique activity ID sets
  /// are given in `activity_sets`; `num_intervals` = M >= 1.
  Tas(const std::vector<std::vector<ActivityId>>& activity_sets,
      int num_intervals);

  /// May trajectory `t` contain activity `a`? (No false negatives.)
  bool MightContain(TrajectoryId t, ActivityId a) const;

  /// May trajectory `t` contain every activity in `activities` (sorted)?
  bool MightContainAll(TrajectoryId t,
                       const std::vector<ActivityId>& activities) const;

  /// The sketch intervals of one trajectory (sorted, disjoint).
  std::vector<Interval> Intervals(TrajectoryId t) const;

  int num_intervals() const { return num_intervals_; }
  size_t num_trajectories() const { return offsets_.size() - 1; }

  /// Main-memory footprint: 8 bytes per stored interval (paper: 8MN).
  size_t MemoryBytes() const { return intervals_.size() * sizeof(Interval); }

  /// Chooses the optimal <= M-interval partition of one sorted-unique ID
  /// set (exposed for direct testing of the gap-splitting proof).
  static std::vector<Interval> PartitionIds(
      const std::vector<ActivityId>& sorted_ids, int num_intervals);

 private:
  friend struct SnapshotIo;  // snapshot.cc reads/writes the private state
  Tas() = default;           // only for snapshot loading

  int num_intervals_ = 1;
  std::vector<Interval> intervals_;  // concatenated per trajectory
  std::vector<uint32_t> offsets_;    // size N+1
};

}  // namespace gat

#endif  // GAT_INDEX_TAS_H_
