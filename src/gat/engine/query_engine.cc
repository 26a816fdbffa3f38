#include "gat/engine/query_engine.h"

#include "gat/util/stopwatch.h"

namespace gat {

QueryEngine::QueryEngine(const Searcher& searcher, EngineOptions options)
    : searcher_(searcher), executor_(options.executor) {}

BatchResult QueryEngine::Run(const std::vector<Query>& queries, size_t k,
                             QueryKind kind,
                             const QueryContext* context) const {
  BatchResult batch;
  batch.results.resize(queries.size());
  batch.latencies.resize(queries.size());
  batch.statuses.assign(queries.size(), QueryStatus::kOk);
  std::vector<SearchStats> stats(queries.size());
  Stopwatch timer;

  // Query i writes only results[i], latencies[i], statuses[i] and
  // stats[i], so the batch needs no synchronization beyond the group
  // barrier.
  auto run_query = [&](size_t i) {
    // Query boundary: a query whose deadline has already passed never
    // starts its Search — it reports kDeadlineExceeded with an empty
    // result list instead of burning the pool on a dead request.
    if (context != nullptr && context->Expired()) {
      batch.statuses[i] = QueryStatus::kDeadlineExceeded;
      stats[i].deadline_skips = 1;
      return;
    }
    Stopwatch query_timer;
    batch.results[i] =
        searcher_.Search(queries[i], k, kind, &stats[i], context);
    batch.latencies[i].wall_ms = query_timer.ElapsedMillis();
    // The searcher refusing any of its own boundaries (shard sweeps, the
    // delta scan) also means deadline-exceeded — and it already returned
    // an empty list, never partial answers.
    if (stats[i].deadline_skips > 0) {
      batch.statuses[i] = QueryStatus::kDeadlineExceeded;
      batch.results[i].clear();
    }
  };

  // The caller answers queries[0] itself, so a batch of one never
  // leaves the calling thread.
  ParallelFor(executor_, queries.size(), TaskPriorityFor(context), run_query);

  // The group barrier is past: sum single-threaded, in query order.
  for (size_t i = 0; i < queries.size(); ++i) {
    batch.totals += stats[i];
    if (batch.statuses[i] == QueryStatus::kDeadlineExceeded) {
      ++batch.deadline_exceeded;
    }
  }
  batch.wall_ms = timer.ElapsedMillis();
  return batch;
}

}  // namespace gat
