#ifndef GAT_SHARD_SHARDED_SEARCHER_H_
#define GAT_SHARD_SHARDED_SEARCHER_H_

#include <string>

#include "gat/core/searcher.h"
#include "gat/engine/executor.h"
#include "gat/search/gat_search.h"
#include "gat/shard/sharded_index.h"

namespace gat {

/// Top-k search over a ShardedIndex: fans each query out across every
/// shard's index and merges the per-shard top-k heaps into one global
/// top-k.
///
/// The merge is exact and deterministic: each shard returns its true
/// top-k by (distance, local ID); local IDs are mapped to global IDs and
/// re-offered to a fresh `TopKCollector`, whose (distance, global ID)
/// tie-breaking is the same rule every single-index searcher uses. Since
/// distances depend only on (query, trajectory) — never on which shard a
/// trajectory landed in — the merged result is bit-identical to running
/// one GatSearcher over the unpartitioned dataset.
///
/// ## Generations
///
/// `Search` pins the published `ShardGeneration` once per query and
/// reads every shard's index, dataset and global-ID mapping through it,
/// so a concurrent `ShardedIndex::ReloadGeneration` never invalidates
/// an in-flight search: the old generation (indexes, mappings,
/// block-cached tiers) stays alive until its last reader drains. A
/// swap to an *equivalent* generation is therefore invisible in the
/// results — answers stay bit-identical through any number of
/// mid-batch swaps. Each shard visit is counted in
/// `SearchStats::index_pins` (a deterministic `num_shards` per query).
///
/// ## Per-query shard parallelism
///
/// With an `Executor` (constructor argument), one `Search` call is a
/// `ParallelFor` over the shards: the calling thread sweeps shard 0
/// itself and submits the other shards as sibling tasks, helping drain
/// them while it waits. A served read at 2 shards is therefore two
/// executor tasks, its request task plus one sweep. On a 4-core Intel
/// Xeon host (GNU 12.2.0, Release), 20 s end-to-end benchmark runs in
/// alternating order put this rule within the per-pair spread of
/// submitting every shard on every workload, and on `paper_read`
/// (4 pairs) `read_qps` rose 2.5% and ATSQ p99 fell 6.5%. Sweeping every
/// shard inline on the request task instead raised `read_qps` by
/// 11% / 10% / 20% on `paper_read` / `mmap_cache` / `live_rw` (medians
/// of 5 / 4 / 4 pairs) and cut ATSQ p50 from 4.55 / 5.64 / 4.94 ms to
/// 0.85 / 1.75 / 1.20 ms, but raised ATSQ p99 by 19% / 13% / 6%: the
/// heavy sparse queries no longer split across workers. So the fan-out
/// stays until the sparse-query tail is cut (ROADMAP items 1 and 2).
/// Submission is nest-safe: when the caller is itself an executor task
/// (a served request, or a query of a multi-query batch), the shard
/// tasks join the same pool with no thread-in-thread spawning. Each
/// sweep writes one pre-sized slot and the merge happens after the
/// barrier in shard order, so results and stats are bit-identical to
/// the sequential visit. Without an executor, shards are visited
/// sequentially inline (no pool, no overhead), the right mode for
/// strictly single-threaded processes.
///
/// ## Deadlines
///
/// When `context` carries a deadline, it is checked at every task
/// boundary: once on entry (an already-expired query touches no shard
/// and submits nothing) and once at the start of each
/// shard visit. A query that expires mid-fan-out never returns partial
/// results — the merge is abandoned, the result list is empty, and
/// `SearchStats::deadline_skips` counts the refused sweeps. Shard tasks
/// inherit the request's priority class via the context.
///
/// Thread-safety: implements the Searcher contract (const Search, all
/// per-query state on the caller's stack), so one instance can back a
/// QueryEngine on an executor of any size — concurrently
/// with `ReloadGeneration` on the underlying index.
class ShardedSearcher : public Searcher {
 public:
  /// `index` must outlive the searcher; so must `executor` when given
  /// (non-owning). `executor == nullptr` visits shards sequentially.
  explicit ShardedSearcher(const ShardedIndex& index,
                           const GatSearchParams& params = {},
                           Executor* executor = nullptr);

  ResultList Search(const Query& query, size_t k, QueryKind kind,
                    SearchStats* stats = nullptr,
                    const QueryContext* context = nullptr) const override;
  std::string name() const override { return "GAT-sharded"; }

  /// The fan-out/merge core against one explicit generation: every
  /// index, dataset access and global-ID mapping goes through it, so
  /// the sweep is immune to a concurrent `ReloadGeneration` changing the
  /// published cut mid-query. `Search` is exactly `PinGeneration()` +
  /// this; the live-ingestion searcher calls it with the generation its
  /// pinned view names, so base results and delta results stay mutually
  /// consistent. Stats contract matches `Search` (stats are reset).
  ResultList SearchGeneration(const ShardGeneration& generation,
                              const Query& query, size_t k, QueryKind kind,
                              SearchStats* stats = nullptr,
                              const QueryContext* context = nullptr) const;

  const ShardedIndex& index() const { return index_; }
  Executor* executor() const { return executor_; }

 private:
  const ShardedIndex& index_;
  GatSearchParams params_;
  Executor* executor_;  // null = sequential shard visits
};

}  // namespace gat

#endif  // GAT_SHARD_SHARDED_SEARCHER_H_
