#ifndef GAT_INDEX_ITL_H_
#define GAT_INDEX_ITL_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "gat/common/types.h"

namespace gat {

struct SnapshotIo;

/// Inverted Trajectory List (Section IV, component ii).
///
/// For each *leaf* cell of the d-Grid and each activity occurring in that
/// cell, ITL lists the IDs of trajectories that have a point carrying that
/// activity inside the cell. This is trajectory-granular (no point detail),
/// so it is small enough to stay in main memory — exactly the paper's
/// design. Postings per cell are stored as parallel arrays (sorted activity
/// IDs + offsets + concatenated trajectory IDs).
class Itl {
 public:
  struct CellPostings {
    std::vector<ActivityId> activities;   // sorted ascending
    std::vector<uint32_t> offsets;        // activities.size() + 1 entries
    std::vector<TrajectoryId> trajectories;  // concatenated, each run sorted
  };

  /// `builder[leaf_code][activity]` -> sorted unique trajectory IDs. The
  /// nested map form is only used at build time.
  using Builder = std::unordered_map<
      uint32_t, std::unordered_map<ActivityId, std::vector<TrajectoryId>>>;

  explicit Itl(Builder builder);

  /// Postings of a leaf cell, or nullptr if the cell is empty.
  const CellPostings* Find(uint32_t leaf_code) const;

  /// Trajectories containing `activity` within leaf cell `leaf_code`
  /// (empty span when absent).
  std::span<const TrajectoryId> Trajectories(uint32_t leaf_code,
                                             ActivityId activity) const;

  /// Sorted activity IDs present in a cell (empty when cell absent). Used
  /// by the Algorithm-2 virtual points.
  std::span<const ActivityId> ActivitiesIn(uint32_t leaf_code) const;

  size_t num_cells() const { return cells_.size(); }
  size_t MemoryBytes() const { return memory_bytes_; }

 private:
  friend struct SnapshotIo;  // snapshot.cc reads/writes the private state
  Itl() = default;           // only for snapshot loading

  std::unordered_map<uint32_t, CellPostings> cells_;
  size_t memory_bytes_ = 0;
};

}  // namespace gat

#endif  // GAT_INDEX_ITL_H_
