#ifndef GAT_ENGINE_QUERY_ENGINE_H_
#define GAT_ENGINE_QUERY_ENGINE_H_

#include <cstdint>
#include <vector>

#include "gat/core/result_set.h"
#include "gat/core/searcher.h"
#include "gat/engine/executor.h"
#include "gat/model/query.h"
#include "gat/search/search_stats.h"

namespace gat {

/// Outcome of one query inside a batch. A deadline-exceeded query has
/// an empty result list — never partial answers.
enum class QueryStatus : uint8_t {
  kOk = 0,
  kDeadlineExceeded = 1,
};

/// QueryEngine knobs.
struct EngineOptions {
  /// The executor a batch's queries run on (non-owning; must outlive
  /// the engine). The way a serving process runs query batches, shard
  /// fan-out and index rebuilds on one thread set. nullptr runs every
  /// query inline on the calling thread, in query order.
  Executor* executor = nullptr;
};

/// Wall-clock cost of one query as the engine observed it.
struct QueryLatency {
  /// Wall-clock of this query's `Search` call, including any per-query
  /// shard fan-out inside the searcher.
  double wall_ms = 0.0;
};

/// Outcome of one batch: answers in query order plus merged statistics.
struct BatchResult {
  /// results[i] answers queries[i] — ordering is deterministic and
  /// independent of the thread count and of task interleavings.
  std::vector<ResultList> results;

  /// statuses[i] reports whether queries[i] completed or hit its
  /// deadline (in which case results[i] is empty).
  std::vector<QueryStatus> statuses;

  /// Number of queries in this batch with status kDeadlineExceeded.
  uint64_t deadline_exceeded = 0;

  /// latencies[i] is the wall-clock of queries[i] (the input of the
  /// bench protocol's p50/p95/p99 fields).
  std::vector<QueryLatency> latencies;

  /// Counters summed over all queries, in query order.
  SearchStats totals;

  /// Wall-clock of the whole batch (not the sum of per-query times).
  double wall_ms = 0.0;
};

/// Executes batches of queries over one Searcher. The unified entry
/// point for benches, examples, servers and tests: without an executor
/// a batch is a plain loop on the calling thread; with one, its queries
/// run as sibling tasks with identical results.
///
/// ## Threading contract
///
/// `Searcher::Search` is a const member on every implementation, and the
/// GAT/IL/RT/IRT searchers keep all per-query mutation inside a local
/// `State` object on the query's stack — the searcher, the index and the
/// dataset are never written after construction. The engine relies on
/// exactly that contract: N tasks share one `const Searcher&` with no
/// synchronization. Anything reachable from a `Searcher` must stay
/// logically const during `Search` (no caches mutated through
/// `const_cast`/`mutable` without internal locking).
///
/// ## Scheduling
///
/// `Run` is one `ParallelFor` over the batch: it submits `queries[1..n)`
/// as one task each, runs `queries[0]` on the calling thread, then waits
/// (helping with the group's queued tasks). A batch of one — every read
/// the wire server serves — therefore submits no task: it runs on the
/// request's own task. `Run` is safe to call concurrently from any
/// number of threads with no serialization: each call owns its
/// batch-local slots, so batches from concurrent callers interleave on
/// the executor instead of queueing behind a mutex.
///
/// Determinism: every query writes only its own result, latency, status
/// and stats slot, indexed by query position, and `totals` is summed in
/// query order after the group barrier. Top-k answers and counters are
/// therefore bit-identical across thread counts, executor sharing, and
/// concurrent batches.
///
/// ## Deadlines and priority
///
/// `Run` accepts an optional `QueryContext`. Its deadline is enforced at
/// query boundaries: each query checks expiry before starting its
/// `Search`, and the searcher (if fan-out-capable) re-checks at its own
/// boundaries. A query that expires at any boundary reports
/// `QueryStatus::kDeadlineExceeded` with an empty result list — the
/// batch never returns partial answers for it. The context's priority
/// class picks the executor queue the batch's tasks join (bulk yields
/// to interactive). Under a ManualClock that is frozen while the batch
/// runs, the set of expired queries does not depend on scheduling, so
/// statuses and `SearchStats::deadline_skips` stay bit-identical across
/// thread counts.
class QueryEngine {
 public:
  /// Non-owning: `searcher` must outlive the engine.
  explicit QueryEngine(const Searcher& searcher, EngineOptions options = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Runs a batch. Blocks until every query is answered (or refused at
  /// a deadline boundary). Concurrent calls pipeline on the shared
  /// executor (see class comment). `context`, when given, must outlive
  /// the call; it carries the batch's deadline and priority class.
  BatchResult Run(const std::vector<Query>& queries, size_t k, QueryKind kind,
                  const QueryContext* context = nullptr) const;

  const Searcher& searcher() const { return searcher_; }

  /// The executor's thread count, or 1 on the inline path.
  uint32_t threads() const {
    return executor_ != nullptr ? executor_->threads() : 1;
  }

  /// The executor batches run on, or nullptr for the inline path.
  Executor* executor() const { return executor_; }

 private:
  const Searcher& searcher_;
  Executor* const executor_;
};

}  // namespace gat

#endif  // GAT_ENGINE_QUERY_ENGINE_H_
