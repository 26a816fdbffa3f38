#ifndef GAT_SEARCH_SEARCH_STATS_H_
#define GAT_SEARCH_SEARCH_STATS_H_

#include <cstdint>
#include <string>

namespace gat {

/// Counters shared by all four searchers (GAT, IL, RT, IRT) so that the
/// experiment harness and the ablation benches can explain *why* one method
/// beats another, not just report wall-clock.
struct SearchStats {
  /// Trajectories handed to the validation pipeline.
  uint64_t candidates_retrieved = 0;
  /// Candidates rejected by the TAS sketch (GAT only).
  uint64_t tas_pruned = 0;
  /// Candidates rejected by exact APL / activity containment check.
  uint64_t activity_rejected = 0;
  /// Candidates rejected by the matching-index-bound order check (OATSQ).
  uint64_t mib_rejected = 0;
  /// Full distance evaluations (Dmm or Dmom) performed.
  uint64_t distance_computations = 0;
  /// Grid cells / R-tree nodes popped from the best-first queue.
  uint64_t nodes_popped = 0;
  /// Entries pushed onto the best-first queue.
  uint64_t heap_pushes = 0;
  /// Retrieval rounds of Algorithm 1 (GAT) / stream advances (RT, IRT).
  uint64_t rounds = 0;
  /// Logical disk reads (APL fetches, low HICL levels). Identical for a
  /// heap-resident and a mapped index — the storage changes what a read
  /// physically does, not how many the algorithm performs.
  uint64_t disk_reads = 0;
  /// Block-cache lookups the logical reads decomposed into, split into
  /// hits and misses. Only a mapped index (gat/storage) populates these;
  /// for a heap-resident one both stay 0. `blocks_read` is
  /// the misses — the page-granular reads that did real I/O.
  uint64_t block_hits = 0;
  uint64_t blocks_read = 0;
  /// Shard visits made during the query: a ShardedSearcher counts one
  /// per shard of the generation it pinned, so this is a deterministic
  /// `num_shards` per query — and 0 for searchers that serve a single
  /// index. The field keeps its historical name on the wire and in
  /// bench JSON.
  uint64_t index_pins = 0;
  /// Task-boundary deadline checks that found the request's budget
  /// already spent and skipped the work behind them: one per query the
  /// engine refused to start, one per shard sweep a fan-out searcher
  /// refused to run. 0 for requests without a deadline (every
  /// pre-serving workload). Deterministic only when expiry is — i.e.
  /// under a ManualClock that is frozen while tasks run; under a wall
  /// clock the count depends on scheduling.
  uint64_t deadline_skips = 0;
  /// Wall-clock of the whole query.
  double elapsed_ms = 0.0;

  void Reset() { *this = SearchStats{}; }

  /// One-line human-readable rendering.
  std::string ToString() const;

  /// Accumulates counters (for averaging across a query workload).
  SearchStats& operator+=(const SearchStats& other);
};

}  // namespace gat

#endif  // GAT_SEARCH_SEARCH_STATS_H_
