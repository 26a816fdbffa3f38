#ifndef GAT_MODEL_DATASET_H_
#define GAT_MODEL_DATASET_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gat/common/types.h"
#include "gat/geo/rect.h"
#include "gat/model/activity_vocabulary.h"
#include "gat/model/trajectory.h"

namespace gat {

/// The activity-trajectory database `D`.
///
/// Owns all trajectories plus the activity vocabulary. Construction is a
/// two-phase protocol: `Add` trajectories, then `Finalize()`. Finalization
///   1. normalizes per-point activity sets,
///   2. counts activity occurrences over the whole database,
///   3. re-ranks activity IDs by descending frequency (ties by old ID) —
///      the paper's ID order for its interval TAS (Section IV); the
///      Bloom sketch used here does not depend on it, and
///   4. computes the global bounding box used by the grid.
/// Indexes and searchers require a finalized dataset.
class Dataset {
 public:
  Dataset() = default;

  // Datasets are heavyweight; pass by reference, move when transferring
  // ownership.
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;
  Dataset(Dataset&&) = default;
  Dataset& operator=(Dataset&&) = default;

  /// Adds a trajectory, returning its dense ID. Only valid before
  /// Finalize().
  TrajectoryId Add(Trajectory trajectory);

  /// Mutable access to the vocabulary (for interning names while loading).
  ActivityVocabulary& mutable_vocabulary() { return vocabulary_; }
  const ActivityVocabulary& vocabulary() const { return vocabulary_; }

  /// Freezes the dataset: normalizes, frequency-ranks activity IDs,
  /// computes the bounding box. Idempotent.
  void Finalize();

  bool finalized() const { return finalized_; }

  size_t size() const { return trajectories_.size(); }
  const Trajectory& trajectory(TrajectoryId id) const;
  const std::vector<Trajectory>& trajectories() const { return trajectories_; }

  /// Global MBR of every point in the database (valid after Finalize).
  const Rect& bounding_box() const { return bounding_box_; }

  /// Occurrence count per (frequency-ranked) activity ID; non-increasing
  /// by construction (valid after Finalize).
  const std::vector<uint64_t>& activity_frequencies() const {
    return activity_frequencies_;
  }

  /// Number of distinct activities that occur at least once.
  uint32_t num_distinct_activities() const {
    return static_cast<uint32_t>(activity_frequencies_.size());
  }

  /// Size of the activity-ID frame: the smallest bound such that every
  /// ID the dataset can speak is below it (interned-but-unused
  /// vocabulary entries included). Trajectories appended through
  /// `ExtendWith` must stay inside this frame.
  uint32_t activity_frame_limit() const {
    return static_cast<uint32_t>(std::max<size_t>(
        vocabulary_.size(), activity_frequencies_.size()));
  }

  /// The dataset generation this cut belongs to: 0 for a freshly
  /// finalized dataset, bumped by `ExtendWith`. Carried (not derived)
  /// metadata — the live-ingestion layer uses it to pair a delta with
  /// the base generation it complements.
  uint64_t generation() const { return generation_; }
  void set_generation(uint64_t generation) { generation_ = generation; }

  /// Builds a new dataset from a subset of this one's trajectories
  /// (used by the Figure-7 scalability experiment, which samples the NY
  /// dataset down to 10K..50K trajectories). The subset is finalized
  /// (IDs re-ranked for the subset); a trajectory shares its points with
  /// the source unless the re-rank changes its IDs.
  Dataset Sample(const std::vector<TrajectoryId>& ids) const;

  /// Splits the dataset into `num_shards` finalized datasets by
  /// round-robin over trajectory IDs: global ID g lands in shard
  /// g % num_shards at local ID g / num_shards — a stable mapping that
  /// `ShardedIndex` inverts (global = local * num_shards + shard).
  ///
  /// Unlike `Sample`, partitioning preserves the parent's frame of
  /// reference: activity IDs are NOT re-ranked (every shard keeps the
  /// global frequency-ranked ID space, so queries need no per-shard
  /// translation), the vocabulary is copied, each trajectory shares its
  /// points with the parent's (copying a handle, not the points), and
  /// every shard inherits the parent's bounding box (per-shard grids are
  /// geometrically identical).
  /// `activity_frequencies()` of a shard is the parent's global table —
  /// shard-local recounts would re-introduce a per-shard ID semantics.
  ///
  /// `num_shards > size()` necessarily yields empty shards (round-robin
  /// has nothing to place in them). Empty shards are valid finalized
  /// datasets carrying the parent's frame; `ShardedIndex` builds a valid
  /// empty index over them (GatIndex substitutes a fixed grid space when
  /// the inherited bounding box is itself empty) and `ShardedSearcher`
  /// contributes zero candidates from them.
  std::vector<Dataset> PartitionRoundRobin(uint32_t num_shards) const;

  /// Frame-preserving append: a finalized copy of this dataset with
  /// `extra` trajectories added at IDs size()..size()+extra.size()-1,
  /// at generation() + 1. Every trajectory, this dataset's and the
  /// extra ones, shares its points with its source. This is the
  /// compaction step of live ingestion: the delta trajectories become
  /// ordinary base trajectories of the next dataset generation.
  ///
  /// Unlike Add + Finalize, the parent's frame of reference is kept
  /// verbatim — activity IDs are NOT re-ranked, the vocabulary,
  /// frequency table and bounding box are inherited unchanged — so
  /// indexes built over the extension are directly comparable (and
  /// per-shard grids geometrically identical) to indexes over the
  /// parent, exactly like `PartitionRoundRobin` slices.
  ///
  /// Each extra trajectory must already speak the parent frame: every
  /// activity ID below `activity_frame_limit()` and every point inside
  /// `bounding_box()` (the live ingest path validates both before a
  /// check-in is accepted; violating them here is a caller bug and
  /// aborts).
  Dataset ExtendWith(const std::vector<Trajectory>& extra) const;

 private:
  std::vector<Trajectory> trajectories_;
  ActivityVocabulary vocabulary_;
  Rect bounding_box_ = Rect::Empty();
  std::vector<uint64_t> activity_frequencies_;
  uint64_t generation_ = 0;
  bool finalized_ = false;
};

}  // namespace gat

#endif  // GAT_MODEL_DATASET_H_
