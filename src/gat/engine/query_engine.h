#ifndef GAT_ENGINE_QUERY_ENGINE_H_
#define GAT_ENGINE_QUERY_ENGINE_H_

#include <cstdint>
#include <memory>
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
  /// Worker threads of the engine-owned executor. 0 =
  /// std::thread::hardware_concurrency(). 1 runs batches inline on the
  /// caller thread (no pool is created). Ignored when `executor` is set.
  uint32_t threads = 0;

  /// Share an existing executor instead of owning one (non-owning; must
  /// outlive the engine). The way a serving process runs query batches,
  /// shard fan-out and index rebuilds on one thread set.
  Executor* executor = nullptr;
};

/// Wall-clock cost of one query as the engine observed it.
struct QueryLatency {
  /// Wall-clock of this query's `Search` call, including any per-query
  /// shard fan-out inside the searcher.
  double wall_ms = 0.0;

  /// Simulated disk reads on the query's critical path: equals the
  /// query's `disk_reads` for sequential searchers, the slowest parallel
  /// branch for fan-out searchers (SearchStats::CriticalDiskReads).
  uint64_t critical_disk_reads = 0;
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

  /// latencies[i] is the per-query wall-clock/critical-path cost of
  /// queries[i] (the input of the bench protocol's p50/p95/p99 fields).
  std::vector<QueryLatency> latencies;

  /// Counters summed over all queries (merged from the per-task slots).
  SearchStats totals;

  /// Per-task partial sums, index = batch task slot. Diagnostic: shows
  /// how evenly the work-stealing queue spread the batch.
  std::vector<SearchStats> per_thread;

  /// Wall-clock of the whole batch (not the sum of per-query times).
  double wall_ms = 0.0;

  /// Engine parallelism the batch was submitted with.
  uint32_t threads_used = 1;
};

/// Executes batches of queries over one Searcher as task groups on an
/// executor. The unified entry point for benches, examples, servers and
/// tests: single-threaded callers get the plain loop (`threads = 1`),
/// concurrent callers get work-stealing fan-out with identical results.
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
/// ## Cross-batch pipelining
///
/// `Run` is safe to call concurrently from any number of threads with no
/// serialization: each call owns its batch-local state (result slots,
/// stats slots, work-stealing cursors) and submits its tasks as one
/// `TaskGroup`, so batches from concurrent callers interleave on the
/// executor instead of queueing behind a mutex. Per-batch results stay
/// ordered and bit-identical regardless of what else shares the pool.
///
/// Determinism: every query is an independent task; results are written
/// to a pre-sized slot indexed by query position, and per-task stats are
/// accumulated in per-slot accumulators merged only after the group
/// barrier — lock-free by construction since no two tasks ever touch the
/// same slot. Top-k answers are therefore bit-identical across thread
/// counts, executor sharing, and concurrent batches.
///
/// ## Deadlines and priority
///
/// `Run` accepts an optional `QueryContext`. Its deadline is enforced at
/// task boundaries: each query task checks expiry before starting its
/// `Search`, and the searcher (if fan-out-capable) re-checks at its own
/// boundaries. A query that expires at any boundary reports
/// `QueryStatus::kDeadlineExceeded` with an empty result list — the
/// batch never returns partial answers for it. The context's priority
/// class picks the executor queue the batch's tasks join (bulk yields
/// to interactive). Under a frozen virtual-time clock the set of
/// expired queries is a pure function of the schedule, so statuses and
/// `SearchStats::deadline_skips` stay bit-identical across thread
/// counts.
class QueryEngine {
 public:
  /// Non-owning: `searcher` must outlive the engine.
  explicit QueryEngine(const Searcher& searcher, EngineOptions options = {});

  /// Owning variant for callers that build the searcher ad hoc.
  explicit QueryEngine(std::unique_ptr<Searcher> searcher,
                       EngineOptions options = {});

  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Runs a batch. Blocks until every query is answered (or refused at
  /// a deadline boundary). Concurrent calls pipeline on the shared
  /// executor (see class comment). `context`, when given, must outlive
  /// the call; it carries the batch's deadline and priority class.
  BatchResult Run(const std::vector<Query>& queries, size_t k, QueryKind kind,
                  const QueryContext* context = nullptr) const;

  const Searcher& searcher() const { return searcher_; }
  uint32_t threads() const { return threads_; }

  /// The executor batches run on, or nullptr for the inline
  /// single-threaded path.
  Executor* executor() const { return executor_; }

 private:
  std::unique_ptr<Searcher> owned_;  // may be null (non-owning ctor)
  const Searcher& searcher_;
  uint32_t threads_;
  std::unique_ptr<Executor> owned_executor_;  // null when shared or inline
  Executor* executor_ = nullptr;              // null when threads_ == 1
};

}  // namespace gat

#endif  // GAT_ENGINE_QUERY_ENGINE_H_
