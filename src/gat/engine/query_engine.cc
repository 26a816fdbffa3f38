#include "gat/engine/query_engine.h"

#include <algorithm>

#include "gat/engine/work_queue.h"
#include "gat/util/stopwatch.h"

namespace gat {

QueryEngine::QueryEngine(const Searcher& searcher, EngineOptions options)
    : searcher_(searcher) {
  if (options.executor != nullptr) {
    executor_ = options.executor;
    threads_ = executor_->threads();
  } else {
    threads_ = ResolveThreadCount(options.threads);
    if (threads_ > 1) {
      owned_executor_ = std::make_unique<Executor>(threads_);
      executor_ = owned_executor_.get();
    }
  }
}

QueryEngine::~QueryEngine() = default;

BatchResult QueryEngine::Run(const std::vector<Query>& queries, size_t k,
                             QueryKind kind,
                             const QueryContext* context) const {
  BatchResult batch;
  batch.threads_used = threads_;
  batch.results.resize(queries.size());
  batch.latencies.resize(queries.size());
  batch.statuses.assign(queries.size(), QueryStatus::kOk);
  Stopwatch timer;

  if (queries.empty()) {
    batch.wall_ms = timer.ElapsedMillis();
    return batch;
  }

  // One task per slot, each draining the shared work-stealing queue. A
  // task writes only results[i]/latencies[i] for the indices it claimed
  // and only its own per_thread slot, so the batch needs no
  // synchronization beyond the queue cursors and the group barrier.
  const uint32_t fanout = static_cast<uint32_t>(
      std::min<size_t>(threads_, queries.size()));
  batch.per_thread.assign(fanout, SearchStats{});
  WorkStealingQueue queue(queries.size(), fanout);
  auto task_body = [&](uint32_t slot) {
    SearchStats& acc = batch.per_thread[slot];
    size_t idx = 0;
    while (queue.TryPop(slot, &idx)) {
      // Task boundary: a query whose deadline has already passed never
      // starts its Search — it reports kDeadlineExceeded with an empty
      // result list instead of burning the pool on a dead request.
      if (context != nullptr && context->Expired()) {
        batch.statuses[idx] = QueryStatus::kDeadlineExceeded;
        acc.deadline_skips += 1;
        continue;
      }
      Stopwatch query_timer;
      SearchStats per_query;
      batch.results[idx] =
          searcher_.Search(queries[idx], k, kind, &per_query, context);
      batch.latencies[idx].wall_ms = query_timer.ElapsedMillis();
      // The searcher refusing any of its own task boundaries (shard
      // sweeps) also means deadline-exceeded — and it already returned
      // an empty list, never partial answers.
      if (per_query.deadline_skips > 0) {
        batch.statuses[idx] = QueryStatus::kDeadlineExceeded;
        batch.results[idx].clear();
      }
      acc += per_query;
    }
  };

  if (executor_ == nullptr) {
    task_body(0);
  } else {
    TaskGroup group(*executor_, TaskPriorityFor(context));
    for (uint32_t slot = 0; slot < fanout; ++slot) {
      group.Submit([&task_body, slot] { task_body(slot); });
    }
    group.Wait();
  }

  // Lock-free merge: the group barrier is past, each slot had a single
  // writer, summation is single-threaded and in slot order.
  for (const SearchStats& s : batch.per_thread) batch.totals += s;
  for (const QueryStatus s : batch.statuses) {
    if (s == QueryStatus::kDeadlineExceeded) ++batch.deadline_exceeded;
  }
  batch.wall_ms = timer.ElapsedMillis();
  return batch;
}

}  // namespace gat
