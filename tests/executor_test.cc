// Tests for gat/engine/executor: task-group barriers, help-while-waiting,
// nested submission from inside tasks, sharing one pool across
// concurrent submitters, and the ParallelFor fan-out — the invariants
// QueryEngine, ShardedSearcher, ShardedIndex and the snapshot loader all
// lean on.

#include "gat/engine/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

namespace gat {
namespace {

TEST(Executor, ResolvesThreadCounts) {
  Executor four(4);
  EXPECT_EQ(four.threads(), 4u);
  Executor defaulted(0);
  EXPECT_GE(defaulted.threads(), 1u);
}

TEST(Executor, RunsEveryTaskExactlyOnce) {
  Executor executor(4);
  constexpr int kTasks = 200;
  std::vector<std::atomic<int>> ran(kTasks);
  TaskGroup group(executor);
  for (int i = 0; i < kTasks; ++i) {
    group.Submit([&ran, i] { ran[i].fetch_add(1); });
  }
  group.Wait();
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(ran[i].load(), 1) << i;
}

TEST(Executor, WaitIsIdempotentAndEmptyGroupReturnsImmediately) {
  Executor executor(2);
  TaskGroup empty(executor);
  empty.Wait();  // no tasks: must not block
  TaskGroup group(executor);
  std::atomic<int> ran{0};
  group.Submit([&ran] { ran.fetch_add(1); });
  group.Wait();
  group.Wait();  // second wait is a no-op
  EXPECT_EQ(ran.load(), 1);
}

TEST(Executor, DestructorWaitsForSubmittedTasks) {
  Executor executor(2);
  std::atomic<int> ran{0};
  {
    TaskGroup group(executor);
    for (int i = 0; i < 32; ++i) group.Submit([&ran] { ran.fetch_add(1); });
    // No explicit Wait: the destructor is the barrier.
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(Executor, SingleThreadedExecutorCompletesViaHelping) {
  // One worker plus the helping waiter must drain everything even when
  // tasks outnumber the pool many times over.
  Executor executor(1);
  std::atomic<int> ran{0};
  TaskGroup group(executor);
  for (int i = 0; i < 100; ++i) group.Submit([&ran] { ran.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(Executor, NestedSubmissionFromInsideTasks) {
  // The ShardedSearcher shape: an outer task fans out subtasks on the
  // same executor and waits for them. Must complete at any pool size,
  // including 1 (everything degrades to helping).
  for (const uint32_t threads : {1u, 2u, 4u}) {
    Executor executor(threads);
    std::atomic<int> leaves{0};
    TaskGroup outer(executor);
    for (int i = 0; i < 8; ++i) {
      outer.Submit([&executor, &leaves] {
        TaskGroup inner(executor);
        for (int j = 0; j < 8; ++j) {
          inner.Submit([&leaves] { leaves.fetch_add(1); });
        }
        inner.Wait();
      });
    }
    outer.Wait();
    EXPECT_EQ(leaves.load(), 64) << "threads=" << threads;
  }
}

TEST(Executor, DoublyNestedGroupsComplete) {
  // Build-inside-serve depth: task -> subgroup -> subsubgroup.
  Executor executor(2);
  std::atomic<int> leaves{0};
  TaskGroup outer(executor);
  for (int i = 0; i < 4; ++i) {
    outer.Submit([&executor, &leaves] {
      TaskGroup mid(executor);
      for (int j = 0; j < 4; ++j) {
        mid.Submit([&executor, &leaves] {
          TaskGroup inner(executor);
          for (int l = 0; l < 4; ++l) {
            inner.Submit([&leaves] { leaves.fetch_add(1); });
          }
          inner.Wait();
        });
      }
      mid.Wait();
    });
  }
  outer.Wait();
  EXPECT_EQ(leaves.load(), 64);
}

TEST(Executor, ConcurrentSubmittersShareOnePool) {
  // The cross-batch pipelining shape: many caller threads, each with its
  // own group, interleaving on one executor.
  Executor executor(4);
  constexpr int kCallers = 8;
  constexpr int kTasksPerCaller = 50;
  std::atomic<int> ran{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&executor, &ran] {
      TaskGroup group(executor);
      for (int i = 0; i < kTasksPerCaller; ++i) {
        group.Submit([&ran] { ran.fetch_add(1); });
      }
      group.Wait();
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(ran.load(), kCallers * kTasksPerCaller);
}

TEST(Executor, RunOneTaskOnIdleExecutorReturnsFalse) {
  Executor executor(2);
  TaskGroup group(executor);
  EXPECT_FALSE(executor.RunOneTask(group));
}

TEST(Executor, HelpingIsRestrictedToTheCallersGroup) {
  // Park both workers on a latch so further submissions stay queued,
  // then verify RunOneTask refuses a stranger's task and runs the
  // group's own.
  Executor executor(2);
  std::promise<void> release;
  std::shared_future<void> latch(release.get_future());
  std::atomic<int> parked{0};
  TaskGroup blockers(executor);
  for (int i = 0; i < 2; ++i) {
    blockers.Submit([latch, &parked] {
      parked.fetch_add(1);
      latch.wait();
    });
  }
  // Both workers must be parked before the probe task is queued, or a
  // free worker would race us to it.
  while (parked.load() < 2) std::this_thread::yield();

  std::atomic<int> ran{0};
  TaskGroup queued(executor);
  queued.Submit([&ran] { ran.fetch_add(1); });

  TaskGroup stranger(executor);
  EXPECT_FALSE(executor.RunOneTask(stranger));  // not its task
  EXPECT_EQ(ran.load(), 0);
  EXPECT_TRUE(executor.RunOneTask(queued));  // its own task
  EXPECT_EQ(ran.load(), 1);

  release.set_value();
  blockers.Wait();
  queued.Wait();
  stranger.Wait();
}

TEST(ParallelFor, SubmitsAllButTheFirstItemAndRunsItOnTheCaller) {
  Executor executor(4);
  for (const size_t n : {0u, 1u, 2u, 40u}) {
    std::vector<std::atomic<int>> ran(n);
    std::thread::id first_runner;
    const uint64_t before = executor.tasks_submitted();
    ParallelFor(&executor, n, TaskPriority::kHigh, [&](size_t i) {
      if (i == 0) first_runner = std::this_thread::get_id();
      ran[i].fetch_add(1);
    });
    EXPECT_EQ(executor.tasks_submitted() - before, n > 0 ? n - 1 : 0)
        << "n = " << n;
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(ran[i].load(), 1) << i;
    if (n > 0) {
      EXPECT_EQ(first_runner, std::this_thread::get_id());
    }
  }
}

TEST(ParallelFor, WithoutAnExecutorRunsInlineInIndexOrder) {
  for (const size_t n : {0u, 1u, 2u, 40u}) {
    std::vector<size_t> order;
    std::vector<std::thread::id> runners;
    ParallelFor(nullptr, n, TaskPriority::kHigh, [&](size_t i) {
      order.push_back(i);
      runners.push_back(std::this_thread::get_id());
    });
    ASSERT_EQ(order.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(order[i], i);
      EXPECT_EQ(runners[i], std::this_thread::get_id());
    }
  }
}

}  // namespace
}  // namespace gat
