#ifndef GAT_LIVE_LIVE_INDEX_H_
#define GAT_LIVE_LIVE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "gat/engine/executor.h"
#include "gat/live/checkin.h"
#include "gat/model/dataset.h"
#include "gat/shard/sharded_index.h"

namespace gat {

/// An immutable snapshot of the delta side of a LiveIndex: the
/// trajectories assembled from every check-in accepted after the base
/// generation it complements was cut. Published copy-on-write per
/// accepted batch — readers scan it lock-free while writers build the
/// successor.
///
/// Delta trajectory `i` serves at global ID `base_trajectories + i`:
/// exactly the ID it will hold once a merge seals it into the next base
/// generation via `Dataset::ExtendWith`, which is what makes the merged
/// (base + delta) answer bit-identical to a monolithic index over the
/// extended dataset.
struct DeltaSnapshot {
  /// The dataset generation this delta complements.
  uint64_t base_generation = 0;
  /// Size of that base — the global ID offset of delta trajectory 0.
  size_t base_trajectories = 0;
  /// Cumulative check-ins accepted by the owning LiveIndex when this
  /// snapshot was published (monotonic across merges; the freshness
  /// ruler: a reader serving watermark W has seen every check-in
  /// 1..W).
  uint64_t watermark = 0;
  /// One in-arrival-order trajectory per user seen since the base cut.
  std::vector<Trajectory> trajectories;
  /// user -> index into `trajectories` (the writer's append cursor;
  /// immutable once published like everything else here).
  std::unordered_map<uint64_t, size_t> user_index;
};

/// One consistent serving view of a LiveIndex: the pinned base
/// generation and the delta that complements exactly that generation.
/// Published as a unit — a reader that pinned a view can never observe
/// a delta paired with the wrong base cut, no matter how ingests and
/// merges interleave with the pin.
struct LiveView {
  std::shared_ptr<const ShardGeneration> generation;
  std::shared_ptr<const DeltaSnapshot> delta;
};

/// The live-ingestion face of the GAT index: a sharded, snapshot-served
/// base (every structure of Section IV, built per shard) plus a small
/// in-memory delta absorbing writes, behind one generation-aware
/// serving API.
///
///   * `Ingest` appends a batch of check-ins: validated against the
///     base frame (all-or-nothing), logged, and folded into a new
///     published `DeltaSnapshot` — visible to the next `Pin` in one
///     writer critical section, no index rebuild.
///   * `Pin` hands a reader the current `LiveView`; `LiveSearcher`
///     answers top-k over view.generation (the full GAT machinery) plus
///     an exact scan of view.delta, merged — bit-identical to a
///     monolithic index over base ⊕ delta.
///   * `MergeDelta` compacts: extends the base dataset with the delta
///     trajectories (`Dataset::ExtendWith` — frame preserved, IDs
///     stable), builds the next generation entirely off the serving
///     path (`ShardedIndex::ReloadGeneration`, possibly at a different
///     shard count — shard rebalancing is the same operation with an
///     empty delta), then atomically republishes the view with a fresh
///     delta holding only the check-ins that arrived during the build.
///
/// A user's delta trajectory is sealed by the merge: check-ins arriving
/// after the cut start a NEW trajectory for that user. Trajectory
/// identity is (user, generation segment) — deterministic, so replaying
/// the same check-in stream through any schedule of merges yields the
/// same final dataset extension order.
///
/// Thread-safety: `Ingest` may be called from any number of threads
/// (serialized internally); `MergeDelta` likewise (merges serialize
/// with each other and with ingest only for the final swap); `Pin` and
/// all counters are wait-free reads against both.
class LiveIndex {
 public:
  /// Takes ownership of the finalized base dataset (kept — merges
  /// extend it) and builds the serving base over it.
  LiveIndex(Dataset base, const GatConfig& config = {},
            const ShardOptions& options = {});

  /// Appends a batch of check-ins atomically: either every check-in is
  /// validated against the base frame — finite coordinates inside
  /// `base().bounding_box()`, every activity ID below
  /// `base().activity_frame_limit()` — and the whole batch becomes
  /// visible in one published delta, or nothing is applied and the call
  /// returns false. Empty batches are accepted as no-ops.
  ///
  /// On success `*watermark_out` (when non-null) is the cumulative
  /// watermark after this batch — the ack value the wire layer reports.
  bool Ingest(std::span<const CheckIn> checkins,
              uint64_t* watermark_out = nullptr);

  /// The current serving view, pinned: base generation and delta stay
  /// alive and mutually consistent until the pointer is dropped.
  std::shared_ptr<const LiveView> Pin() const;

  /// Compacts the current delta into the next base generation at
  /// `num_shards` shards, off the serving path, then swaps. When
  /// `snapshot_dir` is non-empty the new generation persists under
  /// `<snapshot_dir>/gen-<number>` (a fresh directory per generation —
  /// never over a mapped predecessor). Safe to call with an empty
  /// delta: that is a pure shard-rebalance / generation bump.
  /// Returns false (serving untouched) if the underlying generation
  /// build is refused.
  bool MergeDelta(uint32_t num_shards,
                  const std::string& snapshot_dir = std::string(),
                  Executor* executor = nullptr);

  /// The serving base. Searchers fan out over it via the LiveView.
  const ShardedIndex& sharded() const { return sharded_; }

  /// The base dataset of the *latest merged* generation (what the next
  /// merge will extend). Readers wanting the dataset consistent with a
  /// search must go through `Pin` instead. Safe only on the thread that
  /// merges, or while no merge can run: `MergeDelta` reassigns the
  /// dataset behind this reference under locks this accessor does not
  /// take.
  const Dataset& base() const { return base_; }

  /// Cumulative check-ins accepted over this index's lifetime.
  uint64_t watermark() const {
    return watermark_.load(std::memory_order_relaxed);
  }
  /// Ingest batches refused by validation (nothing applied).
  uint64_t batches_rejected() const {
    return batches_rejected_.load(std::memory_order_relaxed);
  }
  /// Completed `MergeDelta` calls.
  uint64_t merges_completed() const {
    return merges_completed_.load(std::memory_order_relaxed);
  }
  /// Delta trajectories in the current view (readers use the pinned
  /// view's delta; this is a monitoring convenience).
  size_t delta_trajectories() const { return Pin()->delta->trajectories.size(); }

 private:
  /// Folds one validated check-in into a writer-private delta.
  static void AppendCheckIn(DeltaSnapshot& delta, const CheckIn& checkin);

  /// Publishes a new view under view_mu_.
  void PublishView(std::shared_ptr<const ShardGeneration> generation,
                   std::shared_ptr<const DeltaSnapshot> delta);

  GatConfig config_;
  Dataset base_;
  ShardedIndex sharded_;

  /// Serializes writers (ingest batches and the merge's swap phase).
  std::mutex write_mu_;
  /// Serializes merges with each other (held across the whole build).
  std::mutex merge_mu_;
  /// Check-ins accepted since the last merge, in arrival order;
  /// log_[i] is cumulative check-in number merged_watermark_ + i + 1.
  /// The merge replays the tail beyond its delta snapshot's watermark
  /// into the fresh delta — no subtraction from a moving snapshot.
  std::vector<CheckIn> log_;
  /// Cumulative watermark sealed into base_ by the last merge.
  uint64_t merged_watermark_ = 0;

  mutable std::mutex view_mu_;
  std::shared_ptr<const LiveView> view_;

  std::atomic<uint64_t> watermark_{0};
  std::atomic<uint64_t> batches_rejected_{0};
  std::atomic<uint64_t> merges_completed_{0};
};

}  // namespace gat

#endif  // GAT_LIVE_LIVE_INDEX_H_
