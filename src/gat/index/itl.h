#ifndef GAT_INDEX_ITL_H_
#define GAT_INDEX_ITL_H_

#include <cstdint>
#include <span>
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
/// design.
///
/// Storage is three flat arrays, whatever the grid depth: the ascending
/// codes of the non-empty leaf cells; per cell, a range of (activity,
/// begin) runs, sorted by activity; and one concatenated trajectory array,
/// each run's IDs sorted. A lookup is a binary search over the codes, then
/// one over the cell's runs.
class Itl {
 public:
  /// One build input: trajectory `trajectory` has a point carrying
  /// `activity` inside leaf cell `leaf`.
  struct Posting {
    uint32_t leaf;
    ActivityId activity;
    TrajectoryId trajectory;
  };

  /// Builds the lists from postings in any order, duplicates allowed.
  /// A counting sort buckets them by leaf in place; each bucket is then
  /// sorted by (activity, trajectory) and deduplicated, and the flat
  /// arrays are allocated once at their exact size.
  explicit Itl(std::vector<Posting> postings);

  /// Trajectories containing `activity` within leaf cell `leaf_code`
  /// (empty span when absent).
  std::span<const TrajectoryId> Trajectories(uint32_t leaf_code,
                                             ActivityId activity) const;

  /// Sorted activity IDs present in a cell (empty when cell absent).
  std::span<const ActivityId> ActivitiesIn(uint32_t leaf_code) const;

  size_t num_cells() const { return codes_.size(); }

  /// The ITL transposed, which is HICL's leaf level: per activity, the
  /// ascending codes of the cells holding it. There is a list for every
  /// activity below `min_activities` or present in a cell.
  std::vector<std::vector<uint32_t>> CellsPerActivity(
      uint32_t min_activities) const;

  /// The paper's accounting of the per-cell layout (Figure 8): per cell a
  /// 4-byte code, its activity IDs, |activities| + 1 offsets and its
  /// trajectory IDs, 4 bytes each: two words per cell and per run, one
  /// per ID.
  size_t MemoryBytes() const {
    return (2 * codes_.size() + 2 * run_activity_.size() +
            trajectories_.size()) *
           sizeof(uint32_t);
  }

 private:
  friend struct SnapshotIo;  // snapshot.cc reads/writes the private state
  Itl() = default;           // only for snapshot loading

  /// Position of `leaf_code` in `codes_`, or `num_cells()` when absent.
  size_t FindCell(uint32_t leaf_code) const;

  /// Sizes the flat arrays for the cells `AppendCell` will add.
  void Reserve(size_t num_cells, size_t num_runs, size_t num_ids);

  /// Appends one cell (code above every stored code) from its per-cell
  /// layout: `offsets` holds `activities.size() + 1` entries into
  /// `trajectories`, starting at 0.
  void AppendCell(uint32_t code, std::span<const ActivityId> activities,
                  std::span<const uint32_t> offsets,
                  std::span<const TrajectoryId> trajectories);

  /// Ascending codes of the non-empty leaf cells.
  std::vector<uint32_t> codes_;
  /// Cell c owns runs [cell_runs_[c], cell_runs_[c + 1]); one entry more
  /// than `codes_`, starting at 0.
  std::vector<uint32_t> cell_runs_ = {0};
  /// Per run: its activity (ascending within a cell) and the start of its
  /// IDs in `trajectories_`; run r ends where run r + 1 begins, so
  /// `run_begin_` carries one end sentinel, starting at 0.
  std::vector<ActivityId> run_activity_;
  std::vector<uint32_t> run_begin_ = {0};
  std::vector<TrajectoryId> trajectories_;
};

}  // namespace gat

#endif  // GAT_INDEX_ITL_H_
