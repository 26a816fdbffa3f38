#include "gat/live/live_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "gat/common/check.h"

namespace gat {

LiveIndex::LiveIndex(Dataset base, const GatConfig& config,
                     const ShardOptions& options)
    : config_(config), base_(std::move(base)), sharded_(base_, config, options) {
  GAT_CHECK(base_.finalized());
  auto delta = std::make_shared<DeltaSnapshot>();
  delta->base_generation = base_.generation();
  delta->base_trajectories = base_.size();
  PublishView(sharded_.PinGeneration(), std::move(delta));
}

void LiveIndex::AppendCheckIn(DeltaSnapshot& delta, const CheckIn& checkin) {
  TrajectoryPoint point;
  point.location = checkin.location;
  point.activities = checkin.activities;
  std::sort(point.activities.begin(), point.activities.end());
  point.activities.erase(
      std::unique(point.activities.begin(), point.activities.end()),
      point.activities.end());
  auto it = delta.user_index.find(checkin.user);
  if (it == delta.user_index.end()) {
    delta.user_index.emplace(checkin.user, delta.trajectories.size());
    delta.trajectories.emplace_back(
        std::vector<TrajectoryPoint>{std::move(point)});
  } else {
    delta.trajectories[it->second].mutable_points().push_back(
        std::move(point));
  }
}

bool LiveIndex::Ingest(std::span<const CheckIn> checkins,
                       uint64_t* watermark_out) {
  std::lock_guard<std::mutex> lock(write_mu_);
  // All-or-nothing validation against the base frame. The frame —
  // bounding box, activity-ID space — is invariant across merges
  // (ExtendWith inherits it verbatim), so acceptance never depends on
  // how ingest interleaves with compaction.
  const Rect& box = base_.bounding_box();
  const uint32_t frame_limit = base_.activity_frame_limit();
  for (const CheckIn& c : checkins) {
    if (!std::isfinite(c.location.x) || !std::isfinite(c.location.y) ||
        !box.Contains(c.location)) {
      batches_rejected_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    for (ActivityId a : c.activities) {
      if (a >= frame_limit) {
        batches_rejected_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
  }
  if (checkins.empty()) {
    if (watermark_out != nullptr) {
      *watermark_out = watermark_.load(std::memory_order_relaxed);
    }
    return true;
  }

  // Copy-on-write: fold the batch into a private copy of the current
  // delta and publish it whole. Readers scanning the predecessor are
  // untouched; the next Pin sees every check-in of this batch or none.
  // The copy shares every trajectory's points with the predecessor;
  // only the trajectories this batch appends to are cloned.
  const std::shared_ptr<const LiveView> current = Pin();
  auto next = std::make_shared<DeltaSnapshot>(*current->delta);
  for (const CheckIn& c : checkins) {
    AppendCheckIn(*next, c);
    log_.push_back(c);
  }
  const uint64_t watermark =
      watermark_.load(std::memory_order_relaxed) + checkins.size();
  watermark_.store(watermark, std::memory_order_relaxed);
  next->watermark = watermark;
  if (watermark_out != nullptr) *watermark_out = watermark;
  PublishView(current->generation, std::move(next));
  return true;
}

std::shared_ptr<const LiveView> LiveIndex::Pin() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return view_;
}

bool LiveIndex::MergeDelta(uint32_t num_shards,
                           const std::string& snapshot_dir,
                           Executor* executor) {
  // Merges serialize here; ingest keeps running throughout the build
  // and only shares the short swap section at the end.
  std::lock_guard<std::mutex> merge_lock(merge_mu_);
  const std::shared_ptr<const LiveView> view = Pin();
  const std::shared_ptr<const DeltaSnapshot> delta = view->delta;

  // Seal the delta's trajectories into the next dataset generation.
  // base_ is only written inside merge_mu_, so reading it here is safe
  // against everything but ourselves. The extension, and the shard cuts
  // made from it, share every trajectory's points with base_ and the
  // delta: the merge copies handles, not the dataset.
  Dataset extended = base_.ExtendWith(delta->trajectories);
  const std::string dir =
      snapshot_dir.empty()
          ? std::string()
          : snapshot_dir + "/gen-" + std::to_string(extended.generation());
  // The expensive part — partition, build or snapshot-load every shard
  // of the new cut — runs entirely off the serving path.
  if (!sharded_.ReloadGeneration(extended, num_shards, dir, executor)) {
    return false;
  }
  const std::shared_ptr<const ShardGeneration> generation =
      sharded_.PinGeneration();

  {
    std::lock_guard<std::mutex> write_lock(write_mu_);
    // Check-ins that landed during the build are in the log tail beyond
    // the sealed watermark; replay them into a fresh delta. A user's
    // pre-merge segment is sealed — post-merge check-ins start a new
    // delta trajectory for that user (trajectory identity is
    // (user, generation segment)).
    const size_t sealed = delta->watermark - merged_watermark_;
    auto fresh = std::make_shared<DeltaSnapshot>();
    fresh->base_generation = extended.generation();
    fresh->base_trajectories = extended.size();
    fresh->watermark = watermark_.load(std::memory_order_relaxed);
    for (size_t i = sealed; i < log_.size(); ++i) {
      AppendCheckIn(*fresh, log_[i]);
    }
    log_.erase(log_.begin(), log_.begin() + sealed);
    merged_watermark_ = delta->watermark;
    base_ = std::move(extended);
    PublishView(generation, std::move(fresh));
  }
  merges_completed_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void LiveIndex::PublishView(std::shared_ptr<const ShardGeneration> generation,
                            std::shared_ptr<const DeltaSnapshot> delta) {
  auto view = std::make_shared<LiveView>();
  view->generation = std::move(generation);
  view->delta = std::move(delta);
  std::lock_guard<std::mutex> lock(view_mu_);
  view_ = std::move(view);
}

}  // namespace gat
