#include "gat/shard/sharded_searcher.h"

#include <memory>
#include <vector>

#include "gat/common/query_context.h"
#include "gat/util/top_k.h"

namespace gat {

ShardedSearcher::ShardedSearcher(const ShardedIndex& index,
                                 const GatSearchParams& params,
                                 Executor* executor)
    : index_(index), params_(params), executor_(executor) {}

ResultList ShardedSearcher::Search(const Query& query, size_t k,
                                   QueryKind kind, SearchStats* stats,
                                   const QueryContext* context) const {
  // One generation pin per query: the cut (shard count, datasets,
  // global-ID mapping) cannot shift under the fan-out, no matter how
  // many ReloadGeneration swaps land meanwhile.
  const auto generation = index_.PinGeneration();
  return SearchGeneration(*generation, query, k, kind, stats, context);
}

ResultList ShardedSearcher::SearchGeneration(const ShardGeneration& generation,
                                             const Query& query, size_t k,
                                             QueryKind kind,
                                             SearchStats* stats,
                                             const QueryContext* context) const {
  // Per-query stats, like every other Searcher: reset, then accumulate
  // the shard sweeps of *this* query.
  if (stats != nullptr) stats->Reset();
  const uint32_t num_shards = generation.num_shards();

  // Entry task boundary: an already-expired query touches no shard —
  // no task submission, no partial work.
  if (context != nullptr && context->Expired()) {
    if (stats != nullptr) stats->deadline_skips += 1;
    return {};
  }

  std::vector<ResultList> shard_results(num_shards);
  std::vector<SearchStats> shard_stats(stats != nullptr ? num_shards : 0);
  std::vector<char> expired_slots(num_shards, 0);
  auto search_shard = [&](size_t shard) {
    // Per-shard task boundary: a deadline that passed while this sweep
    // sat in the queue refuses the sweep before touching the shard.
    if (context != nullptr && context->Expired()) {
      expired_slots[shard] = 1;
      if (stats != nullptr) shard_stats[shard].deadline_skips = 1;
      return;
    }
    // The shard's index (and under mmap serving, its mapping and tier)
    // lives as long as the generation the caller pinned, so the visit
    // takes no lock and no reference of its own.
    const GatSearcher searcher(generation.shard_dataset(shard),
                               *generation.PinShard(shard)->index, params_);
    shard_results[shard] =
        searcher.Search(query, k, kind,
                        stats != nullptr ? &shard_stats[shard] : nullptr,
                        context);
  };

  // The caller sweeps shard 0 and helps drain the rest (nest-safe when
  // this Search already runs on an executor task). Bulk-class requests
  // queue behind interactive work via the priority seam.
  ParallelFor(executor_, num_shards, TaskPriorityFor(context), search_shard);

  uint32_t visited = 0;
  for (uint32_t shard = 0; shard < num_shards; ++shard) {
    if (!expired_slots[shard]) ++visited;
  }

  // Merge after the barrier, in shard order — the result and the stats
  // are bit-identical whether the shards ran inline or as tasks.
  TopKCollector merged(k);
  for (uint32_t shard = 0; shard < num_shards; ++shard) {
    for (const SearchResult& r : shard_results[shard]) {
      merged.Offer(generation.GlobalId(shard, r.trajectory), r.distance);
    }
  }
  if (stats != nullptr) {
    for (const SearchStats& s : shard_stats) *stats += s;
    // One per shard visit actually made — deterministic; refused sweeps
    // count nothing.
    stats->index_pins += visited;
  }
  // Never partial results: if any sweep was refused, the merged top-k
  // would silently miss that shard's candidates — report nothing.
  for (uint32_t shard = 0; shard < num_shards; ++shard) {
    if (expired_slots[shard]) return {};
  }
  return ToResultList(merged);
}

}  // namespace gat
