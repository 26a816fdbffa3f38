#include "gat/model/trajectory.h"

#include <functional>

namespace gat {

bool TrajectoryPoint::HasAnyActivity(
    const std::vector<ActivityId>& query_activities) const {
  // Merge-style intersection test over two sorted lists.
  auto a = activities.begin();
  auto b = query_activities.begin();
  while (a != activities.end() && b != query_activities.end()) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      return true;
    }
  }
  return false;
}

Trajectory::Trajectory(std::vector<TrajectoryPoint> points)
    : block_(new Block{.points = std::move(points)}) {}

Trajectory::Trajectory(const Trajectory& other) noexcept
    : block_(other.block_) {
  // A new reference is made from an existing one, which keeps the block
  // alive meanwhile: no ordering needed.
  if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
}

Trajectory& Trajectory::operator=(const Trajectory& other) noexcept {
  if (other.block_ != nullptr) {
    other.block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Release(std::exchange(block_, other.block_));
  return *this;
}

Trajectory& Trajectory::operator=(Trajectory&& other) noexcept {
  if (this != &other) {
    Release(std::exchange(block_, std::exchange(other.block_, nullptr)));
  }
  return *this;
}

void Trajectory::Release(Block* block) {
  // acq_rel: the release half orders this owner's reads of the points
  // before the count drops; the acquire half, on the last owner, orders
  // every other owner's reads before the delete.
  if (block != nullptr &&
      block->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete block;
  }
}

std::vector<TrajectoryPoint>& Trajectory::mutable_points() {
  // The count is read with acquire: when it says 1, this synchronizes
  // with the release of the last other owner, so that owner's reads of
  // the points happen before the in-place writes the caller makes (a
  // relaxed read, like shared_ptr::use_count, would leave them a data
  // race). Any other count means shared: clone, then let go.
  if (block_ == nullptr) {
    block_ = new Block;
  } else if (block_->refs.load(std::memory_order_acquire) != 1) {
    Block* own = new Block{.points = block_->points};
    Release(std::exchange(block_, own));
  }
  return block_->points;
}

Rect Trajectory::BoundingBox() const {
  Rect box = Rect::Empty();
  for (const auto& p : points()) box.Expand(p.location);
  return box;
}

std::vector<ActivityId> Trajectory::ActivityUnion() const {
  std::vector<ActivityId> all;
  for (const auto& p : points()) {
    all.insert(all.end(), p.activities.begin(), p.activities.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

size_t Trajectory::ActivityCount() const {
  size_t count = 0;
  for (const auto& p : points()) count += p.activities.size();
  return count;
}

void Trajectory::NormalizeActivities() {
  const auto normalized = [](const TrajectoryPoint& p) {
    return std::adjacent_find(p.activities.begin(), p.activities.end(),
                              std::greater_equal<>()) == p.activities.end();
  };
  if (std::all_of(points().begin(), points().end(), normalized)) return;
  for (auto& p : mutable_points()) {
    std::sort(p.activities.begin(), p.activities.end());
    p.activities.erase(std::unique(p.activities.begin(), p.activities.end()),
                       p.activities.end());
  }
}

}  // namespace gat
