#ifndef GAT_SHARD_SHARDED_INDEX_H_
#define GAT_SHARD_SHARDED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "gat/engine/executor.h"
#include "gat/index/gat_index.h"
#include "gat/model/dataset.h"
#include "gat/storage/block_cache.h"

namespace gat {

/// Construction knobs of a ShardedIndex.
struct ShardOptions {
  /// Number of partitions. 1 degenerates to a single GatIndex behind the
  /// sharded interface.
  uint32_t num_shards = 1;

  /// Parallelism of the per-shard builds / snapshot loads when no
  /// `executor` is shared: 0 = hardware_concurrency, 1 = build inline on
  /// the calling thread. Ignored when `executor` is set.
  uint32_t build_threads = 0;

  /// Run the shard builds and snapshot loads as tasks on an existing
  /// executor (non-owning; must outlive the constructor call) instead of
  /// a construction-scoped pool. Pass the executor that also serves
  /// queries and a rebuilding process pays for exactly one thread set.
  Executor* executor = nullptr;

  /// When non-empty, the construction first tries to load each shard's
  /// index from `<snapshot_dir>/shard-<i>-of-<N>.gats`; shards whose
  /// snapshot is missing, stale (dataset fingerprint mismatch) or built
  /// under a different GatConfig are rebuilt from the dataset and their
  /// snapshot rewritten — the directory is a self-priming cache.
  std::string snapshot_dir;

  /// Serve each shard's disk-resident components (APL rows, deep HICL
  /// levels) as zero-copy views into its mmap-ed snapshot, read through
  /// one `BlockCache` whose budget (`cache_config`) is shared across all
  /// shards. Requires `snapshot_dir`. Cold shards are built, snapshotted
  /// and immediately re-served from the mapping, so a restart never
  /// materializes the disk tier. Search results and logical disk-read
  /// counts are identical to the default in-memory serving.
  bool mmap_disk_tier = false;
  BlockCacheConfig cache_config;
};

/// One shard's serving index, which owns its storage: heap images, or a
/// mapping read through the shared `BlockCache`. Set once when its generation is built and fixed for the
/// generation's whole life; it is destroyed with the generation, which
/// unregisters a mapped index's file and purges its blocks from the
/// shared cache only after the generation's last reader drained.
struct ShardRevision {
  /// The serving index; never null once built.
  std::unique_ptr<const GatIndex> index;
};

/// One shard cut of one dataset generation: the partition (per-shard
/// datasets), its shard count, and one `ShardRevision` per shard. The
/// serving unit of `ShardedIndex` — immutable once built and published
/// as a whole through a reference-counted pointer, so a reader that
/// pinned a generation sees one consistent cut (shard count, datasets,
/// global-ID mapping, indexes) for its entire visit, no matter how many
/// generation changes land meanwhile.
class ShardGeneration {
 public:
  /// Monotonic dataset-generation number: 0 for the constructed cut,
  /// +1 per published successor.
  uint64_t number() const { return number_; }

  uint32_t num_shards() const { return num_shards_; }

  const Dataset& shard_dataset(uint32_t shard) const;

  /// Total trajectories across all shards — the size of the monolithic
  /// dataset this cut partitions (delta global IDs start here).
  size_t total_trajectories() const { return total_trajectories_; }

  /// The shard's serving revision. A plain accessor: the revision is
  /// fixed for the generation's life, so the caller's generation pin is
  /// what keeps it (index, mapping, disk tier) alive.
  const ShardRevision* PinShard(uint32_t shard) const;

  /// Inverse of the round-robin partition: the parent-dataset ID of
  /// local trajectory `local` in `shard` under THIS generation's cut.
  TrajectoryId GlobalId(uint32_t shard, TrajectoryId local) const {
    return local * num_shards_ + shard;
  }

  /// How many shards were restored from snapshots when this generation
  /// was built (vs built from the dataset).
  uint32_t shards_loaded_from_snapshot() const { return loaded_from_snapshot_; }

 private:
  friend class ShardedIndex;

  uint64_t number_ = 0;
  uint32_t num_shards_ = 1;
  std::vector<Dataset> shard_datasets_;
  std::vector<ShardRevision> revisions_;  // one per shard
  size_t total_trajectories_ = 0;
  uint32_t loaded_from_snapshot_ = 0;
};

/// Horizontal partitioning of one dataset into N independent GAT indexes
/// (the ROADMAP's sharding direction; the paper's index, Section IV, is
/// built per shard unchanged).
///
/// Trajectories are assigned round-robin by global ID — stable, so shard
/// s of N always holds the same trajectories for a given dataset — and
/// every shard keeps the parent's activity-ID space and bounding box
/// (`Dataset::PartitionRoundRobin`), which is what makes per-shard
/// results mergeable without translation. Local shard IDs map back via
/// `GlobalId(shard, local) = local * N + shard`.
///
/// Shards whose partition slice is empty (more shards than trajectories,
/// or an empty parent dataset) are first-class: they build a valid empty
/// GatIndex over the inherited frame, snapshot-cache like any other
/// shard, and answer every query with zero results.
///
/// ## Generations
///
/// The serving state — shard count, partition, per-shard indexes — is
/// one published `ShardGeneration`. `PinGeneration` is the read side:
/// a searcher pins the current generation once per query and reads
/// every shard index, dataset and global-ID mapping through it, so
/// nothing can shift under a single query's feet. `ReloadGeneration`
/// is the only write path: it publishes a whole new cut — typically a
/// new dataset generation (live ingestion's delta compacted in), and
/// possibly a different shard count, which subsumes shard rebalancing.
/// The new generation is partitioned, built or snapshot-loaded entirely
/// off the serving path, then swapped in atomically; readers that
/// pinned the old generation drain on it, and when the last pin drops
/// its mapped indexes unregister from the shared cache, purging their
/// blocks.
///
/// Thread-safety: the query path (all const members) is safe against
/// any number of concurrent `ReloadGeneration` calls; writers may run
/// concurrently with each other (they serialize at the publish point).
class ShardedIndex {
 public:
  /// Partitions `dataset` and builds (or snapshot-loads) all shard
  /// indexes with one `ParallelFor` on `options.executor` (or a
  /// construction-scoped executor of one worker fewer than
  /// `options.build_threads`, capped by the shard count): the calling
  /// thread builds shard 0, the others are sibling tasks.
  /// `dataset` itself is copied into the shards and need not outlive the
  /// index.
  explicit ShardedIndex(const Dataset& dataset, const GatConfig& config = {},
                        const ShardOptions& options = {});

  /// Pins the current generation: cut, datasets, indexes and global-ID
  /// mapping stay valid (and mutually consistent) until the pointer is
  /// dropped, across any number of generation changes. The pin itself
  /// is two uncontended mutex ops + a refcount.
  std::shared_ptr<const ShardGeneration> PinGeneration() const;

  /// Shard count of the current generation. Prefer PinGeneration when
  /// more than one call must agree on the cut.
  uint32_t num_shards() const { return PinGeneration()->num_shards(); }

  /// Dataset-generation number of the current generation.
  uint64_t generation_number() const { return PinGeneration()->number(); }

  const GatConfig& config() const { return config_; }

  /// Publishes a new generation: partitions `dataset` into `num_shards`
  /// shards, builds or snapshot-loads them entirely off the serving
  /// path (under `snapshot_dir` when non-empty, with the same
  /// self-priming rule as construction — a rebuilt shard's file is
  /// replaced by rename, never rewritten in place, so an older
  /// generation still mapping it keeps its bytes), then atomically
  /// swaps the published cut. Queries keep answering on
  /// whichever generation they pinned; the retired generation is
  /// destroyed — mappings unmapped, cache blocks purged — when its last
  /// reader drains. The new cut may change the shard count (shard
  /// rebalancing is just a generation change with the same dataset).
  ///
  /// In mmap mode `snapshot_dir` must be non-empty, like construction.
  /// Returns false (serving untouched) on invalid arguments.
  bool ReloadGeneration(const Dataset& dataset, uint32_t num_shards,
                        const std::string& snapshot_dir = std::string(),
                        Executor* executor = nullptr);

  /// `ReloadGeneration` publications over this index's lifetime.
  uint64_t generations_published() const {
    return generations_published_.load(std::memory_order_relaxed);
  }

  /// Writes every shard's snapshot into `dir` (created if missing).
  /// Returns false if any shard fails to save.
  bool SaveSnapshots(const std::string& dir) const;

  /// `<dir>/shard-<shard>-of-<num_shards>.gats`.
  static std::string SnapshotPath(const std::string& dir, uint32_t shard,
                                  uint32_t num_shards);

  /// How many shards of the current generation were restored from
  /// snapshots (vs built) — 0 on a cold start, `num_shards()` on a
  /// fully warm one.
  uint32_t shards_loaded_from_snapshot() const {
    return PinGeneration()->shards_loaded_from_snapshot();
  }

  /// The shared block cache of the mmap disk tier, or nullptr when
  /// `ShardOptions::mmap_disk_tier` was off. One budget across every
  /// shard of every generation.
  const BlockCache* block_cache() const { return cache_.get(); }

  /// Shards currently served from a mapped snapshot (== num_shards() in
  /// mmap mode unless a shard fell back to RAM, e.g. unwritable dir).
  uint32_t shards_mmap_served() const;

  /// Wall-clock seconds of the whole construction (partition + parallel
  /// build/load).
  double build_seconds() const { return build_seconds_; }

  /// Sum of the per-shard memory breakdowns of the current generation.
  GatIndex::MemoryBreakdown memory_breakdown() const;

 private:
  /// Partition + parallel build/load of one generation (number left 0;
  /// the publisher stamps it).
  std::shared_ptr<ShardGeneration> BuildGeneration(
      const Dataset& dataset, uint32_t num_shards,
      const std::string& snapshot_dir, Executor* executor,
      uint32_t build_threads) const;

  GatConfig config_;
  /// The shared budget, mmap mode only. Every mapped index also holds a
  /// reference, so the cache outlives the last revision of the last
  /// generation whatever the order of destruction.
  std::shared_ptr<BlockCache> cache_;
  mutable std::mutex gen_mu_;
  std::shared_ptr<const ShardGeneration> current_;
  std::atomic<uint64_t> generations_published_{0};
  double build_seconds_ = 0.0;
};

}  // namespace gat

#endif  // GAT_SHARD_SHARDED_INDEX_H_
