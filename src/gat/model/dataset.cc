#include "gat/model/dataset.h"

#include <algorithm>
#include <numeric>

#include "gat/common/check.h"

namespace gat {

TrajectoryId Dataset::Add(Trajectory trajectory) {
  GAT_CHECK(!finalized_);
  trajectories_.push_back(std::move(trajectory));
  return static_cast<TrajectoryId>(trajectories_.size() - 1);
}

const Trajectory& Dataset::trajectory(TrajectoryId id) const {
  GAT_CHECK(id < trajectories_.size());
  return trajectories_[id];
}

void Dataset::Finalize() {
  if (finalized_) return;

  for (auto& tr : trajectories_) tr.NormalizeActivities();

  // Count occurrences per current activity ID. The vocabulary may contain
  // interned names that never occur; they are ranked last.
  size_t max_id = vocabulary_.size();
  for (const auto& tr : trajectories_) {
    for (const auto& p : tr.points()) {
      for (ActivityId a : p.activities) {
        max_id = std::max<size_t>(max_id, a + 1);
      }
    }
  }
  std::vector<uint64_t> counts(max_id, 0);
  for (const auto& tr : trajectories_) {
    for (const auto& p : tr.points()) {
      for (ActivityId a : p.activities) ++counts[a];
    }
  }

  // Rank activity IDs by descending frequency; ties broken by old ID so the
  // permutation is deterministic.
  std::vector<ActivityId> by_freq(max_id);
  std::iota(by_freq.begin(), by_freq.end(), 0);
  std::stable_sort(by_freq.begin(), by_freq.end(),
                   [&counts](ActivityId a, ActivityId b) {
                     return counts[a] > counts[b];
                   });
  std::vector<ActivityId> permutation(max_id);
  for (ActivityId rank = 0; rank < max_id; ++rank) {
    permutation[by_freq[rank]] = rank;
  }

  // Re-rank in place, cloning only the trajectories whose IDs change: a
  // trajectory shared with another dataset (Sample's input) keeps its
  // block when the permutation leaves its IDs as they are.
  for (auto& tr : trajectories_) {
    bool moved = false;
    for (const auto& p : tr.points()) {
      for (ActivityId a : p.activities) moved = moved || permutation[a] != a;
    }
    if (!moved) continue;
    for (auto& p : tr.mutable_points()) {
      for (auto& a : p.activities) a = permutation[a];
      std::sort(p.activities.begin(), p.activities.end());
    }
  }
  if (vocabulary_.size() == max_id) {
    vocabulary_.Permute(permutation);
  } else if (vocabulary_.size() > 0) {
    // Vocabulary smaller than the ID space would mean loaders bypassed
    // interning inconsistently; forbid the mixed mode.
    GAT_CHECK(vocabulary_.size() == max_id);
  }

  activity_frequencies_.assign(max_id, 0);
  for (ActivityId rank = 0; rank < max_id; ++rank) {
    activity_frequencies_[rank] = counts[by_freq[rank]];
  }
  // Drop trailing never-occurring activities from the frequency table.
  while (!activity_frequencies_.empty() && activity_frequencies_.back() == 0) {
    activity_frequencies_.pop_back();
  }

  bounding_box_ = Rect::Empty();
  for (const auto& tr : trajectories_) {
    for (const auto& p : tr.points()) bounding_box_.Expand(p.location);
  }

  finalized_ = true;
}

Dataset Dataset::Sample(const std::vector<TrajectoryId>& ids) const {
  GAT_CHECK(finalized_);
  Dataset out;
  for (TrajectoryId id : ids) {
    GAT_CHECK(id < trajectories_.size());
    out.Add(trajectories_[id]);  // shares the points
  }
  out.Finalize();
  return out;
}

std::vector<Dataset> Dataset::PartitionRoundRobin(uint32_t num_shards) const {
  GAT_CHECK(finalized_);
  GAT_CHECK(num_shards >= 1);
  std::vector<Dataset> shards(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    Dataset& shard = shards[s];
    shard.vocabulary_ = vocabulary_;
    shard.bounding_box_ = bounding_box_;
    shard.activity_frequencies_ = activity_frequencies_;
    shard.generation_ = generation_;
    // Shard s holds global IDs s, s + num_shards, ...; each entry shares
    // the parent's points.
    shard.trajectories_.reserve(
        (trajectories_.size() + num_shards - 1 - s) / num_shards);
    for (size_t t = s; t < trajectories_.size(); t += num_shards) {
      shard.trajectories_.push_back(trajectories_[t]);
    }
  }
  // Trajectories are already normalized and activity IDs already ranked;
  // running Finalize() would re-rank per shard, so freeze directly.
  for (auto& shard : shards) shard.finalized_ = true;
  return shards;
}

Dataset Dataset::ExtendWith(const std::vector<Trajectory>& extra) const {
  GAT_CHECK(finalized_);
  Dataset out;
  out.vocabulary_ = vocabulary_;
  out.bounding_box_ = bounding_box_;
  out.activity_frequencies_ = activity_frequencies_;
  out.generation_ = generation_ + 1;
  // IDs 0..size()-1 unchanged; every entry shares its points.
  out.trajectories_.reserve(trajectories_.size() + extra.size());
  out.trajectories_.insert(out.trajectories_.end(), trajectories_.begin(),
                           trajectories_.end());
  const uint32_t frame_limit = activity_frame_limit();
  for (const Trajectory& tr : extra) {
    Trajectory copy = tr;  // shared unless normalizing changes it
    copy.NormalizeActivities();
    for (const auto& p : copy.points()) {
      // The frame is inherited, not recomputed, so the appended data
      // must fit it: IDs inside the ranked space, points inside the
      // parent box (grids stay geometrically identical to the parent's).
      GAT_CHECK(bounding_box_.Contains(p.location));
      for (ActivityId a : p.activities) GAT_CHECK(a < frame_limit);
    }
    out.trajectories_.push_back(std::move(copy));
  }
  // Same freeze as PartitionRoundRobin: Finalize() would re-rank.
  out.finalized_ = true;
  return out;
}

}  // namespace gat
