#ifndef GAT_STORAGE_PREFETCH_H_
#define GAT_STORAGE_PREFETCH_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "gat/engine/executor.h"
#include "gat/index/gat_index.h"
#include "gat/model/query.h"
#include "gat/storage/block_cache.h"

namespace gat {

class ShardedIndex;  // gat/shard; the pin-aware constructor below

/// Executor-task-based APL prefetch for queued batch queries — the first
/// real I/O overlap *between* the queries of a batch.
///
/// For every query point, the RAM-resident layers predict refinement's
/// disk reads for free: the leaf cell of the point's location plus the
/// point's demanded activities index straight into the ITL, whose
/// trajectory lists are exactly the candidates the first retrieval
/// rounds will hand to validation. The scheduler warms those
/// trajectories' APL posting blocks through each index's `DiskTier`
/// (`Apl::PrefetchRow`) — a no-op under the simulated tier, real
/// block-cache fills under an mmap-backed one.
///
/// Scheduling: `QueryEngine` submits the prefetch sweep as tasks into
/// the batch's own task group *before* the search tasks, so wherever the
/// pool has spare width the sweep runs concurrently with the first
/// queries and later queries find their candidate rows resident. With
/// no executor the sweep runs inline before the batch — deterministic,
/// which is what keeps `--threads 1` bench counters exact.
///
/// Thread-safety: const, internally synchronized stats; one instance may
/// serve any number of concurrent batches.
class PrefetchScheduler {
 public:
  /// Per-query cap on warmed APL rows, bounding the sweep on hub cells.
  static constexpr size_t kMaxRowsPerQuery = 512;

  /// `indexes` = one entry per shard (or a single index); `cache` is the
  /// block cache the batch stats should report (nullptr = none, e.g.
  /// purely simulated setups). All pointers are non-owning and must
  /// outlive the scheduler. The indexes are fixed for the scheduler's
  /// lifetime — for an index that publishes new generations, use the
  /// ShardedIndex overload below.
  explicit PrefetchScheduler(std::vector<const GatIndex*> indexes,
                             const BlockCache* cache = nullptr);

  /// Live-reload-safe variant: instead of fixed index pointers, each
  /// query sweep pins the *current* generation
  /// (`ShardedIndex::PinGeneration`) for the duration of its warm-up
  /// and reads every shard's index through it, so the scheduler keeps
  /// predicting and warming through any number of `ReloadGeneration`
  /// swaps without ever touching a retired mapping. Batch stats report
  /// the index's shared block cache (if any).
  explicit PrefetchScheduler(const ShardedIndex& index);

  /// Warms the predicted APL rows of one query across every index.
  void PrefetchQuery(const Query& query) const;

  /// Submits the batch sweep as `fanout` striped tasks into `group`
  /// (caller owns the barrier). `queries` must outlive the group.
  void SubmitBatch(const std::vector<Query>& queries, TaskGroup& group,
                   uint32_t fanout) const;

  /// Runs the whole sweep inline (the no-executor path).
  void PrefetchBatch(const std::vector<Query>& queries) const;

  /// The cache demand/prefetch stats feed from, or nullptr.
  const BlockCache* cache() const { return cache_; }

  struct Stats {
    uint64_t queries = 0;
    uint64_t rows_warmed = 0;
  };
  Stats stats() const {
    return {queries_.load(std::memory_order_relaxed),
            rows_warmed_.load(std::memory_order_relaxed)};
  }

 private:
  /// Warms one query's predicted rows on one index.
  uint64_t WarmIndex(const GatIndex& index, const Query& query) const;

  std::vector<const GatIndex*> indexes_;    // static mode
  const ShardedIndex* sharded_ = nullptr;   // pin-per-query mode
  const BlockCache* cache_;
  mutable std::atomic<uint64_t> queries_{0};
  mutable std::atomic<uint64_t> rows_warmed_{0};
};

}  // namespace gat

#endif  // GAT_STORAGE_PREFETCH_H_
