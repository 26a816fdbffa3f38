#ifndef GAT_ENGINE_EXECUTOR_H_
#define GAT_ENGINE_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "gat/common/query_context.h"

namespace gat {

class TaskGroup;

/// Scheduling class of a task on the shared executor. High-priority
/// tasks are always dequeued before low-priority ones; within a class,
/// FIFO order is preserved. The default is kHigh, so callers that never
/// mention priority are scheduled exactly as before the seam existed.
enum class TaskPriority : uint8_t {
  kHigh = 0,  // interactive serving, builds, anything latency-bound
  kLow = 1,   // bulk/background requests; only runs when no kHigh queued
};

/// Maps a request's priority class onto the executor seam: bulk
/// requests yield the pool to interactive work.
inline TaskPriority TaskPriorityFor(const QueryContext* context) {
  return context != nullptr && context->priority == RequestPriority::kBulk
             ? TaskPriority::kLow
             : TaskPriority::kHigh;
}

/// The thread-count rule every layer shares: `requested` = 0 resolves
/// to std::thread::hardware_concurrency(), floored at 1.
uint32_t ResolveThreadCount(uint32_t requested);

/// A persistent pool of worker threads executing submitted tasks — the
/// one threading primitive every layer shares. Query batches
/// (`QueryEngine`), per-query shard fan-out (`ShardedSearcher`), shard
/// builds (`ShardedIndex`) and snapshot validation and checksum sweeps
/// all run as tasks on one executor, so a process that rebuilds an
/// index while serving queries pays for exactly one thread set, and
/// independent callers interleave on the same workers instead of
/// serializing behind a mutex.
///
/// Every one of those fans out through `ParallelFor` (below): the
/// caller runs item 0 itself and submits the rest as one `TaskGroup`,
/// which is also the completion token. There is no per-task future: the
/// unit of synchronization is "this group of sibling tasks is done",
/// which is what batches, fan-outs and builds all need. The only other
/// groups are `wire::Server`'s per-priority request groups.
///
/// ## Nested submission
///
/// A task may itself create a `TaskGroup`, submit subtasks and `Wait()`
/// on them. Waiting never parks a thread while that group has queued
/// tasks: the waiter *helps*, draining its own group's tasks from the
/// executor's queue until the group completes. That is what makes
/// per-query shard fan-out inside a request task safe — no
/// thread-in-thread spawning and no worker starvation. `Executor(1)`
/// still spawns one worker, and the helping waiter races it for the
/// group's tasks, so which thread runs a task is not fixed at any pool
/// size. The inline paths bypass the executor altogether: `ParallelFor`
/// with no executor, or with a single item, runs on the calling thread,
/// so `QueryEngine`, `ShardedSearcher`, `ShardedIndex` and the snapshot
/// loader without an executor run every query, shard or chunk there in
/// order, and a batch of one query or a one-shard sweep never submits a
/// task.
/// Helping is deliberately restricted to the waiter's own group: a
/// waiter never executes a stranger's task, so a timed section around a
/// fan-out (e.g. the engine's per-query stopwatch) measures only its
/// own work.
///
/// Progress argument: every queued task belongs to a group whose waiter
/// helps it, so a waiter blocks only when its remaining tasks are
/// already running on other threads. Tasks block only in nested
/// `Wait()`s (group scopes nest LIFO), so the innermost running task
/// always runs to completion and wakes its waiter — acyclic by
/// construction, hence no deadlock.
///
/// Thread-safety: all members are internally synchronized; `Submit` /
/// `Wait` / `RunOneTask` may be called from any thread, including from
/// inside tasks.
class Executor {
 public:
  /// `threads` = 0 picks std::thread::hardware_concurrency(). The pool
  /// is spawned eagerly and lives until destruction.
  explicit Executor(uint32_t threads = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  uint32_t threads() const { return threads_; }

  /// Runs one of `group`'s queued tasks on the calling thread, if any
  /// is pending. Returns false when none was queued. The building block
  /// of help-while-waiting; exposed for tests.
  bool RunOneTask(TaskGroup& group);

  /// Total tasks ever enqueued on this executor (monotonic). The proof
  /// hook for admission control: a shed request must leave this counter
  /// unchanged — rejection happens before any task exists.
  uint64_t tasks_submitted() const {
    return tasks_submitted_.load(std::memory_order_relaxed);
  }

 private:
  friend class TaskGroup;

  struct QueuedTask {
    std::function<void()> fn;
    TaskGroup* group;
  };

  void Enqueue(QueuedTask task, TaskPriority priority);
  void WorkerLoop();

  // Pops the next runnable task: high-priority FIFO first, then low.
  // Caller must hold mu_ and have checked HasQueued().
  QueuedTask PopLocked();
  bool HasQueued() const { return !queues_[0].empty() || !queues_[1].empty(); }

  const uint32_t threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  // One FIFO per TaskPriority, indexed by the enum's underlying value.
  std::deque<QueuedTask> queues_[2];
  bool stop_ = false;
  std::atomic<uint64_t> tasks_submitted_{0};
};

/// A set of sibling tasks on one executor plus their completion barrier.
/// Submit any number of tasks, then `Wait()`; the destructor waits too,
/// so tasks can safely capture stack state of the submitting frame by
/// reference. Single-use: create one group per fan-out.
///
/// `Wait()` helps execute this group's queued tasks while any are
/// pending, so nesting groups inside tasks cannot starve the pool.
///
/// Every task submitted through one group shares the group's priority
/// class (a fan-out is scheduled as a unit); the default kHigh keeps
/// legacy callers byte-identical in behavior.
class TaskGroup {
 public:
  explicit TaskGroup(Executor& executor,
                     TaskPriority priority = TaskPriority::kHigh)
      : executor_(executor), priority_(priority) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `fn`. The task must not outlive the group (Wait/dtor
  /// guarantees it does not).
  void Submit(std::function<void()> fn);

  /// Blocks until every submitted task has finished, executing this
  /// group's queued tasks on this thread while waiting. Idempotent.
  void Wait();

 private:
  void OnTaskDone();

  Executor& executor_;
  const TaskPriority priority_;
  std::mutex mu_;
  std::condition_variable done_cv_;
  size_t pending_ = 0;
};

/// The one way work fans out on the executor: runs `fn(i)` for every i
/// in [0, n). With no executor (or n <= 1) the calls run inline on the
/// calling thread, in index order. Otherwise `fn(1..n)` are submitted as
/// one `TaskGroup` of class `priority`, `fn(0)` runs on the calling
/// thread, and the call returns once all n are done (the caller helps
/// drain the group). So it submits exactly n - 1 tasks, and a fan-out
/// of one never leaves the calling thread.
///
/// `fn` runs concurrently with itself: each `fn(i)` should write only
/// its own pre-sized slot, and the caller merges after the return, in
/// index order, so results never depend on which thread ran what.
template <typename Fn>
void ParallelFor(Executor* executor, size_t n, TaskPriority priority,
                 const Fn& fn) {
  if (executor == nullptr || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  TaskGroup group(*executor, priority);
  for (size_t i = 1; i < n; ++i) group.Submit([&fn, i] { fn(i); });
  fn(0);
  group.Wait();
}

}  // namespace gat

#endif  // GAT_ENGINE_EXECUTOR_H_
