#ifndef GAT_MODEL_TRAJECTORY_H_
#define GAT_MODEL_TRAJECTORY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "gat/common/types.h"
#include "gat/geo/point.h"
#include "gat/geo/rect.h"

namespace gat {

/// One check-in: a geo-location tagged with a (possibly empty) sorted set
/// of activity IDs (Definition 2).
struct TrajectoryPoint {
  Point location;
  std::vector<ActivityId> activities;  // sorted ascending, deduplicated

  /// True if the point carries `activity`.
  bool HasActivity(ActivityId activity) const {
    return std::binary_search(activities.begin(), activities.end(), activity);
  }

  /// True if the point carries at least one of `query_activities`
  /// (both lists sorted).
  bool HasAnyActivity(const std::vector<ActivityId>& query_activities) const;
};

/// An activity trajectory Tr = (p1, ..., pn): the chronologically ordered
/// check-in history of one user (Definition 2).
///
/// The points are one immutable block shared by every copy: copying a
/// trajectory (into a shard cut, a dataset extension, a delta snapshot)
/// copies a handle, not the points. `mutable_points()` gives the calling
/// copy a block of its own first when the block is shared
/// (copy-on-write), so a mutation never shows through another copy.
///
/// Thread-safety: like `std::shared_ptr`. Distinct copies of one
/// trajectory may be read, copied, mutated and destroyed on different
/// threads without synchronization; one object must not be mutated (or
/// assigned) while another thread uses that same object.
class Trajectory {
 public:
  Trajectory() = default;
  explicit Trajectory(std::vector<TrajectoryPoint> points);
  Trajectory(const Trajectory& other) noexcept;
  Trajectory(Trajectory&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  Trajectory& operator=(const Trajectory& other) noexcept;
  Trajectory& operator=(Trajectory&& other) noexcept;
  ~Trajectory() { Release(block_); }

  const std::vector<TrajectoryPoint>& points() const {
    return block_ != nullptr ? block_->points : kNoPoints;
  }
  /// The points, owned by this copy alone (cloned here if shared). The
  /// reference is valid until this trajectory is next copied, assigned
  /// or destroyed: mutate through it before sharing the trajectory.
  std::vector<TrajectoryPoint>& mutable_points();

  size_t size() const { return points().size(); }
  bool empty() const { return points().empty(); }
  const TrajectoryPoint& operator[](size_t i) const { return points()[i]; }

  /// Minimum bounding rectangle of all points.
  Rect BoundingBox() const;

  /// Sorted, deduplicated union of all activities attached to any point.
  std::vector<ActivityId> ActivityUnion() const;

  /// Total number of (point, activity) assignments.
  size_t ActivityCount() const;

  /// Normalizes every point's activity list to sorted/dedup form. Called by
  /// dataset finalization; loaders may append in arbitrary order. Leaves
  /// an already normalized trajectory's block untouched (and shared).
  void NormalizeActivities();

 private:
  struct Block {
    std::atomic<uint64_t> refs{1};
    std::vector<TrajectoryPoint> points;
  };

  /// Drops one reference; the last one frees the block.
  static void Release(Block* block);

  inline static const std::vector<TrajectoryPoint> kNoPoints;

  Block* block_ = nullptr;  // nullptr: no points
};

}  // namespace gat

#endif  // GAT_MODEL_TRAJECTORY_H_
