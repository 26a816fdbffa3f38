#include "gat/storage/prefetch.h"

#include <algorithm>
#include <utility>

#include "gat/common/check.h"
#include "gat/index/apl.h"
#include "gat/index/grid.h"
#include "gat/index/itl.h"
#include "gat/shard/sharded_index.h"

namespace gat {

PrefetchScheduler::PrefetchScheduler(std::vector<const GatIndex*> indexes,
                                     const BlockCache* cache)
    : indexes_(std::move(indexes)), cache_(cache) {
  for (const GatIndex* index : indexes_) GAT_CHECK(index != nullptr);
}

PrefetchScheduler::PrefetchScheduler(const ShardedIndex& index)
    : sharded_(&index), cache_(index.block_cache()) {}

uint64_t PrefetchScheduler::WarmIndex(const GatIndex& index,
                                      const Query& query) const {
  // Predicted candidates, deduplicated per index: the ITL lists of the
  // leaf cell under each query point, restricted to that point's
  // demanded activities.
  std::vector<TrajectoryId> predicted;
  for (const auto& qp : query.points()) {
    const uint32_t leaf = index.grid().LeafCode(qp.location);
    for (ActivityId a : qp.activities) {
      const auto list = index.itl().Trajectories(leaf, a);
      predicted.insert(predicted.end(), list.begin(), list.end());
    }
  }
  std::sort(predicted.begin(), predicted.end());
  predicted.erase(std::unique(predicted.begin(), predicted.end()),
                  predicted.end());
  if (predicted.size() > kMaxRowsPerQuery) predicted.resize(kMaxRowsPerQuery);
  for (TrajectoryId t : predicted) index.apl().PrefetchRow(t);
  return predicted.size();
}

void PrefetchScheduler::PrefetchQuery(const Query& query) const {
  uint64_t rows = 0;
  if (sharded_ != nullptr) {
    // One generation pin for the whole warm-up: the shard count and
    // every shard's index (with its mapping) stay put under the loop,
    // however many ReloadGeneration swaps land mid-query.
    const auto generation = sharded_->PinGeneration();
    for (uint32_t shard = 0; shard < generation->num_shards(); ++shard) {
      rows += WarmIndex(*generation->PinShard(shard)->index, query);
    }
  } else {
    for (const GatIndex* index : indexes_) rows += WarmIndex(*index, query);
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  rows_warmed_.fetch_add(rows, std::memory_order_relaxed);
}

void PrefetchScheduler::SubmitBatch(const std::vector<Query>& queries,
                                    TaskGroup& group, uint32_t fanout) const {
  const uint32_t tasks = std::max<uint32_t>(
      1, static_cast<uint32_t>(
             std::min<size_t>(fanout, queries.size())));
  for (uint32_t slot = 0; slot < tasks; ++slot) {
    group.Submit([this, &queries, slot, tasks] {
      for (size_t i = slot; i < queries.size(); i += tasks) {
        PrefetchQuery(queries[i]);
      }
    });
  }
}

void PrefetchScheduler::PrefetchBatch(const std::vector<Query>& queries) const {
  for (const Query& q : queries) PrefetchQuery(q);
}

}  // namespace gat
