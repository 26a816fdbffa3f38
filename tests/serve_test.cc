// Tests for gat/serve: token-bucket admission edge cases, deadline
// semantics at every task boundary (admission, query start, shard
// sweep), priority classes, and the open-loop load driver's virtual-time
// determinism — all on an injectable ManualClock, so every outcome is a
// pure function of the schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "gat/common/clock.h"
#include "gat/common/query_context.h"
#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/executor.h"
#include "gat/engine/query_engine.h"
#include "gat/search/gat_search.h"
#include "gat/serve/front_door.h"
#include "gat/serve/load_driver.h"
#include "gat/serve/token_bucket.h"
#include "gat/shard/sharded_index.h"
#include "gat/shard/sharded_searcher.h"

namespace gat {
namespace {

std::vector<Query> TestQueries(const Dataset& dataset, uint64_t seed,
                               uint32_t count) {
  QueryWorkloadParams wp;
  wp.num_queries = count;
  wp.seed = seed;
  QueryGenerator qgen(dataset, wp);
  return qgen.Workload();
}

// ---------------------------------------------------------- TokenBucket

TEST(TokenBucket, StartsFullAndBurstBounds) {
  TokenBucket bucket(/*tokens_per_sec=*/10.0, /*burst=*/3.0);
  // The initial burst admits exactly 3 back-to-back requests.
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0));
}

TEST(TokenBucket, RefillsAtRateAndCapsAtBurst) {
  TokenBucket bucket(/*tokens_per_sec=*/10.0, /*burst=*/3.0);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(0));
  // 10 tokens/s = one per 100ms. At +100ms exactly one is back.
  EXPECT_TRUE(bucket.TryAcquire(100'000));
  EXPECT_FALSE(bucket.TryAcquire(100'000));
  // A long idle period refills to burst, never beyond: 10 virtual
  // seconds would mint 100 tokens, but only 3 fit.
  EXPECT_TRUE(bucket.TryAcquire(10'200'000));
  EXPECT_TRUE(bucket.TryAcquire(10'200'000));
  EXPECT_TRUE(bucket.TryAcquire(10'200'000));
  EXPECT_FALSE(bucket.TryAcquire(10'200'000));
}

TEST(TokenBucket, ZeroRateNeverRefills) {
  TokenBucket bucket(/*tokens_per_sec=*/0.0, /*burst=*/2.0);
  EXPECT_TRUE(bucket.TryAcquire(0));
  EXPECT_TRUE(bucket.TryAcquire(0));
  // However long the clock advances, a zero-rate tenant stays starved.
  EXPECT_FALSE(bucket.TryAcquire(3'600'000'000ULL));
}

TEST(TokenBucket, ClockRewindMintsNothing) {
  TokenBucket bucket(/*tokens_per_sec=*/1000.0, /*burst=*/1.0);
  EXPECT_TRUE(bucket.TryAcquire(1'000'000));
  // Rewinding to 0 must not refill (and must not crash); the bucket
  // refills only once the clock passes its high-water mark again.
  EXPECT_FALSE(bucket.TryAcquire(0));
  EXPECT_FALSE(bucket.TryAcquire(1'000'000));
  EXPECT_TRUE(bucket.TryAcquire(1'001'000));
}

TEST(TokenBucket, FailedAcquireDrainsNothing) {
  TokenBucket bucket(/*tokens_per_sec=*/0.0, /*burst=*/1.5);
  EXPECT_TRUE(bucket.TryAcquire(0));   // 0.5 left
  EXPECT_FALSE(bucket.TryAcquire(0));  // refused, balance untouched
  EXPECT_DOUBLE_EQ(bucket.tokens(), 0.5);
}

// --------------------------------------------------------- QueryContext

TEST(QueryContext, ExpiryIsInclusiveAtTheDeadline) {
  ManualClock clock;
  QueryContext context;
  context.clock = &clock;
  context.deadline_micros = 1000;
  clock.SetMicros(999);
  EXPECT_FALSE(context.Expired());
  // "Expires exactly at check": now == deadline counts as expired.
  clock.SetMicros(1000);
  EXPECT_TRUE(context.Expired());
  clock.SetMicros(1001);
  EXPECT_TRUE(context.Expired());
}

TEST(QueryContext, NoDeadlineNeverExpires) {
  ManualClock clock;
  clock.SetMicros(1ULL << 60);
  QueryContext context;
  context.clock = &clock;
  EXPECT_FALSE(context.HasDeadline());
  EXPECT_FALSE(context.Expired());
}

// ----------------------------------------------------- Executor priority

TEST(Executor, LowPriorityYieldsToHigh) {
  // One worker, paused behind a gate task: everything else queues.
  Executor executor(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<int> order;

  TaskGroup gate(executor);
  gate.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  TaskGroup low(executor, TaskPriority::kLow);
  TaskGroup high(executor, TaskPriority::kHigh);
  // Low submitted FIRST — strict priority must still run high first.
  for (int i = 0; i < 3; ++i) {
    low.Submit([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(100 + i);
    });
  }
  for (int i = 0; i < 3; ++i) {
    high.Submit([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  // Poll instead of Wait(): Wait() would *help* run this thread's own
  // group's tasks, racing the worker and blurring the dequeue order.
  // With the main thread hands-off, the single worker's strict
  // high-before-low pop order is the only order there is.
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (order.size() == 6) break;
    }
    std::this_thread::yield();
  }
  high.Wait();
  low.Wait();
  ASSERT_EQ(order.size(), 6u);
  // All high (0,1,2 in FIFO order) strictly before all low (100..102).
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
  EXPECT_EQ(order[3], 100);
  EXPECT_EQ(order[4], 101);
  EXPECT_EQ(order[5], 102);
}

TEST(Executor, TasksSubmittedCountsEveryEnqueue) {
  Executor executor(2);
  const uint64_t before = executor.tasks_submitted();
  {
    TaskGroup group(executor);
    for (int i = 0; i < 5; ++i) group.Submit([] {});
  }
  {
    TaskGroup low(executor, TaskPriority::kLow);
    for (int i = 0; i < 2; ++i) low.Submit([] {});
  }
  EXPECT_EQ(executor.tasks_submitted() - before, 7u);
}

TEST(Executor, TaskPriorityForMapsBulkToLow) {
  EXPECT_EQ(TaskPriorityFor(nullptr), TaskPriority::kHigh);
  QueryContext interactive;
  EXPECT_EQ(TaskPriorityFor(&interactive), TaskPriority::kHigh);
  QueryContext bulk;
  bulk.priority = RequestPriority::kBulk;
  EXPECT_EQ(TaskPriorityFor(&bulk), TaskPriority::kLow);
}

// ------------------------------------------------------------ FrontDoor

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = GenerateCity(CityProfile::Testing(/*trajectories=*/200,
                                                 /*seed=*/29));
    index_ = std::make_unique<GatIndex>(dataset_);
    searcher_ = std::make_unique<GatSearcher>(dataset_, *index_);
    queries_ = TestQueries(dataset_, /*seed=*/7, /*count=*/16);
  }

  Dataset dataset_;
  std::unique_ptr<GatIndex> index_;
  std::unique_ptr<GatSearcher> searcher_;
  std::vector<Query> queries_;
};

TEST_F(ServeTest, PerTenantBucketsIsolateTenants) {
  ManualClock clock;
  QueryEngine engine(*searcher_);
  FrontDoorOptions options;
  options.clock = &clock;
  options.default_quota = TenantQuota{/*tokens_per_sec=*/0.0, /*burst=*/2.0};
  FrontDoor door(engine, options);

  // Tenant 1 exhausts its own burst; tenant 2's bucket is untouched.
  EXPECT_TRUE(door.TryAdmit(1));
  EXPECT_TRUE(door.TryAdmit(1));
  EXPECT_FALSE(door.TryAdmit(1));
  EXPECT_TRUE(door.TryAdmit(2));
  EXPECT_TRUE(door.TryAdmit(2));
  EXPECT_FALSE(door.TryAdmit(2));

  const FrontDoorCounters counters = door.counters();
  EXPECT_EQ(counters.admitted, 4u);
  EXPECT_EQ(counters.shed, 2u);
}

TEST_F(ServeTest, TenantQuotaOverridesApply) {
  ManualClock clock;
  QueryEngine engine(*searcher_);
  FrontDoorOptions options;
  options.clock = &clock;
  options.default_quota = TenantQuota{0.0, 1.0};
  options.tenant_quotas.push_back({7, TenantQuota{0.0, 3.0}});
  FrontDoor door(engine, options);

  EXPECT_TRUE(door.TryAdmit(0));
  EXPECT_FALSE(door.TryAdmit(0));  // default burst 1
  EXPECT_TRUE(door.TryAdmit(7));
  EXPECT_TRUE(door.TryAdmit(7));
  EXPECT_TRUE(door.TryAdmit(7));
  EXPECT_FALSE(door.TryAdmit(7));  // override burst 3
}

TEST_F(ServeTest, ShedRequestCreatesZeroExecutorTasks) {
  ManualClock clock;
  Executor executor(4);
  QueryEngine engine(*searcher_, EngineOptions{.executor = &executor});
  FrontDoorOptions options;
  options.clock = &clock;
  options.default_quota = TenantQuota{0.0, 1.0};
  FrontDoor door(engine, options);

  ServeRequest request;
  request.tenant = 0;
  request.queries = queries_;
  request.k = 5;

  // First request: admitted, runs on the pool.
  const uint64_t before_ok = executor.tasks_submitted();
  ServeResult ok = door.Serve(request);
  EXPECT_EQ(ok.status, ServeStatus::kOk);
  // One task per query but the first, which runs on the calling thread.
  const uint64_t ok_tasks = executor.tasks_submitted() - before_ok;
  EXPECT_EQ(ok_tasks, queries_.size() - 1);

  // Second request: bucket empty → shed, and the executor counter is
  // the proof that shedding did zero engine work.
  const uint64_t before_shed = executor.tasks_submitted();
  ServeResult shed = door.Serve(request);
  EXPECT_EQ(shed.status, ServeStatus::kShed);
  EXPECT_TRUE(shed.batch.results.empty());
  EXPECT_EQ(executor.tasks_submitted() - before_shed, 0u);
}

TEST_F(ServeTest, ExpiredAtAdmissionDoesZeroEngineWork) {
  ManualClock clock;
  Executor executor(4);
  QueryEngine engine(*searcher_, EngineOptions{.executor = &executor});
  FrontDoorOptions options;
  options.clock = &clock;
  FrontDoor door(engine, options);

  clock.SetMicros(5'000);
  ServeRequest request;
  request.queries = queries_;
  request.deadline_micros = 5'000;  // now == deadline → expired

  const uint64_t before = executor.tasks_submitted();
  ServeResult result = door.Serve(request);
  EXPECT_EQ(result.status, ServeStatus::kDeadlineExceeded);
  EXPECT_TRUE(result.batch.results.empty());
  EXPECT_EQ(executor.tasks_submitted() - before, 0u);

  const FrontDoorCounters counters = door.counters();
  EXPECT_EQ(counters.admitted, 1u);
  EXPECT_EQ(counters.deadline_misses, 1u);
  EXPECT_EQ(counters.completed, 0u);
}

TEST_F(ServeTest, DeadlineJustAheadOfNowCompletes) {
  // The boundary's other side: a deadline one microsecond in the future
  // is NOT expired at the entry check, and since the ManualClock never
  // advances during the batch, the request completes normally.
  ManualClock clock;
  QueryEngine engine(*searcher_);
  FrontDoorOptions options;
  options.clock = &clock;
  FrontDoor door(engine, options);

  clock.SetMicros(5'000);
  ServeRequest request;
  request.queries = queries_;
  request.deadline_micros = 5'001;

  ServeResult result = door.Serve(request);
  EXPECT_EQ(result.status, ServeStatus::kOk);
  ASSERT_EQ(result.batch.results.size(), queries_.size());
  EXPECT_EQ(result.batch.deadline_exceeded, 0u);
  EXPECT_EQ(door.counters().completed, 1u);
}

// A searcher wrapper that advances a ManualClock by a fixed tick after
// every completed Search — the deterministic stand-in for "each query
// burns real time", which lets a single-threaded batch expire midway.
class ClockAdvancingSearcher : public Searcher {
 public:
  ClockAdvancingSearcher(const Searcher& inner, ManualClock& clock,
                         uint64_t tick_micros)
      : inner_(inner), clock_(clock), tick_micros_(tick_micros) {}

  ResultList Search(const Query& query, size_t k, QueryKind kind,
                    SearchStats* stats = nullptr,
                    const QueryContext* context = nullptr) const override {
    ResultList out = inner_.Search(query, k, kind, stats, context);
    clock_.AdvanceMicros(tick_micros_);
    return out;
  }
  std::string name() const override { return inner_.name(); }

 private:
  const Searcher& inner_;
  ManualClock& clock_;
  const uint64_t tick_micros_;
};

TEST_F(ServeTest, MidBatchExpiryRefusesRemainingQueriesAndAllResults) {
  ManualClock clock;
  ClockAdvancingSearcher ticking(*searcher_, clock, /*tick_micros=*/1'000);
  QueryEngine engine(ticking);

  const std::vector<Query> batch_queries(queries_.begin(),
                                         queries_.begin() + 4);
  QueryContext context;
  context.clock = &clock;
  context.deadline_micros = 2'000;  // two 1ms queries fit, then expiry

  BatchResult batch = engine.Run(batch_queries, 5, QueryKind::kAtsq,
                                 &context);
  ASSERT_EQ(batch.statuses.size(), 4u);
  EXPECT_EQ(batch.statuses[0], QueryStatus::kOk);
  EXPECT_EQ(batch.statuses[1], QueryStatus::kOk);
  // After two ticks now == 2000 == deadline: expired exactly at the
  // boundary — the remaining queries are refused, not started.
  EXPECT_EQ(batch.statuses[2], QueryStatus::kDeadlineExceeded);
  EXPECT_EQ(batch.statuses[3], QueryStatus::kDeadlineExceeded);
  EXPECT_EQ(batch.deadline_exceeded, 2u);
  EXPECT_EQ(batch.totals.deadline_skips, 2u);
  EXPECT_TRUE(batch.results[2].empty());
  EXPECT_TRUE(batch.results[3].empty());

  // The completed prefix is bit-identical to an undeadlined run.
  BatchResult reference = engine.Run(batch_queries, 5, QueryKind::kAtsq);
  EXPECT_EQ(batch.results[0], reference.results[0]);
  EXPECT_EQ(batch.results[1], reference.results[1]);

  // And the front door maps any mid-batch expiry to a deadline miss
  // with every result cleared — never partial answers.
  clock.SetMicros(0);
  FrontDoorOptions options;
  options.clock = &clock;
  FrontDoor door(engine, options);
  ServeRequest request;
  request.queries = batch_queries;
  request.k = 5;
  request.deadline_micros = 2'000;
  ServeResult served = door.Serve(request);
  EXPECT_EQ(served.status, ServeStatus::kDeadlineExceeded);
  for (const ResultList& r : served.batch.results) EXPECT_TRUE(r.empty());
}

// ------------------------------------------------- Shard-boundary checks

TEST(ServeSharded, ExpiredQueryRefusesEveryShardSweep) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(120, 31));
  const ShardedIndex sharded(dataset, {}, ShardOptions{.num_shards = 3});
  const ShardedSearcher searcher(sharded);
  const std::vector<Query> queries = TestQueries(dataset, 3, 4);

  ManualClock clock;
  clock.SetMicros(10'000);
  QueryContext context;
  context.clock = &clock;
  context.deadline_micros = 10'000;

  SearchStats stats;
  const ResultList results =
      searcher.Search(queries[0], 5, QueryKind::kAtsq, &stats, &context);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.deadline_skips, 1u);
  // The entry boundary refused the query before any shard visit: no
  // shard searched, no disk touched.
  EXPECT_EQ(stats.index_pins, 0u);
  EXPECT_EQ(stats.disk_reads, 0u);
}

TEST(ServeSharded, UnexpiredContextIsBitIdenticalToNoContext) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(120, 31));
  const ShardedIndex sharded(dataset, {}, ShardOptions{.num_shards = 3});
  const ShardedSearcher searcher(sharded);
  const std::vector<Query> queries = TestQueries(dataset, 3, 6);

  ManualClock clock;
  QueryContext context;
  context.clock = &clock;
  context.deadline_micros = 1'000'000;
  context.priority = RequestPriority::kBulk;

  for (const Query& query : queries) {
    SearchStats with_ctx;
    SearchStats without_ctx;
    const ResultList a =
        searcher.Search(query, 5, QueryKind::kAtsq, &with_ctx, &context);
    const ResultList b =
        searcher.Search(query, 5, QueryKind::kAtsq, &without_ctx);
    EXPECT_EQ(a, b);
    EXPECT_EQ(with_ctx.candidates_retrieved, without_ctx.candidates_retrieved);
    EXPECT_EQ(with_ctx.index_pins, without_ctx.index_pins);
    EXPECT_EQ(with_ctx.deadline_skips, 0u);
  }
}

// ------------------------------------------------------------ LoadDriver

TEST(LoadDriver, ScheduleIsDeterministicAndMeanPaced) {
  LoadScheduleParams params;
  params.arrivals_per_sec = 500.0;
  params.duration_ms = 400.0;
  params.seed = 99;
  const std::vector<ArrivalSpec> a = MakeOpenLoopSchedule(params);
  const std::vector<ArrivalSpec> b = MakeOpenLoopSchedule(params);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_ms, b[i].arrival_ms);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].priority, b[i].priority);
  }
  // ~200 arrivals expected; the jittered-uniform gap is mean-preserving
  // so the count lands well within ±30%.
  EXPECT_GT(a.size(), 140u);
  EXPECT_LT(a.size(), 260u);
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GT(a[i].arrival_ms, a[i - 1].arrival_ms);
  }
}

class LoadDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = GenerateCity(CityProfile::Testing(150, 41));
    sharded_ = std::make_unique<ShardedIndex>(dataset_, GatConfig{},
                                              ShardOptions{.num_shards = 2});
    pool_ = TestQueries(dataset_, /*seed=*/13, /*count=*/32);
  }

  struct Observed {
    std::vector<ServeStatus> statuses;
    std::vector<ResultList> first_results;
  };

  // One full open-loop run at the given engine thread count. The
  // simulated timeline must not depend on `threads`.
  DriveOutcome RunAt(uint32_t threads, Observed* observed = nullptr) {
    ManualClock clock;
    std::unique_ptr<Executor> executor;
    if (threads > 1) executor = std::make_unique<Executor>(threads);
    ShardedSearcher searcher(*sharded_, {}, executor.get());
    QueryEngine engine(searcher, EngineOptions{.executor = executor.get()});

    FrontDoorOptions door_options;
    door_options.clock = &clock;
    door_options.default_quota = TenantQuota{80.0, 20.0};
    FrontDoor door(engine, door_options);

    LoadScheduleParams params;
    params.arrivals_per_sec = 600.0;  // well past the 80/s buckets
    params.duration_ms = 500.0;
    params.seed = 7;
    const std::vector<ArrivalSpec> schedule = MakeOpenLoopSchedule(params);

    DriverOptions options;
    options.virtual_slots = 3;
    options.service_ms_per_query = 4.0;
    options.k = 5;
    ServeObserver observer;
    if (observed != nullptr) {
      observer = [observed](const ArrivalSpec&, const ServeResult& result) {
        observed->statuses.push_back(result.status);
        observed->first_results.push_back(
            result.batch.results.empty() ? ResultList{}
                                         : result.batch.results.front());
      };
    }
    return RunOpenLoop(door, clock, schedule, pool_, options, observer);
  }

  Dataset dataset_;
  std::unique_ptr<ShardedIndex> sharded_;
  std::vector<Query> pool_;
};

TEST_F(LoadDriverTest, OutcomesAreBitIdenticalAcrossThreadCounts) {
  Observed at1;
  Observed at4;
  const DriveOutcome one = RunAt(1, &at1);
  const DriveOutcome four = RunAt(4, &at4);

  // The whole point of virtual time: counters, latency vectors and
  // per-request outcomes are pure functions of the schedule.
  auto expect_identical = [](const ClassOutcome& a, const ClassOutcome& b) {
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.deadline_misses, b.deadline_misses);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.latency_ms, b.latency_ms);
    EXPECT_EQ(a.totals.candidates_retrieved, b.totals.candidates_retrieved);
    EXPECT_EQ(a.totals.disk_reads, b.totals.disk_reads);
  };
  expect_identical(one.interactive, four.interactive);
  expect_identical(one.bulk, four.bulk);
  EXPECT_EQ(one.virtual_duration_ms, four.virtual_duration_ms);

  // Per-request statuses and answers, in event order.
  ASSERT_EQ(at1.statuses.size(), at4.statuses.size());
  EXPECT_EQ(at1.statuses, at4.statuses);
  ASSERT_EQ(at1.first_results.size(), at4.first_results.size());
  for (size_t i = 0; i < at1.first_results.size(); ++i) {
    EXPECT_EQ(at1.first_results[i], at4.first_results[i]) << i;
  }

  // Overload sanity: the 600/s offered load must actually shed against
  // 80/s buckets, and some work must complete.
  EXPECT_GT(one.interactive.shed + one.bulk.shed, 0u);
  EXPECT_GT(one.interactive.completed, 0u);
}

TEST_F(LoadDriverTest, InteractiveOvertakesBulkOnASingleSlot) {
  // Crafted schedule, one virtual slot: a long bulk train arrives
  // first, then interactive requests. Strict class priority must let
  // every interactive request jump the queued bulk requests — visible
  // as interactive latencies far below what FIFO would give them.
  ManualClock clock;
  ShardedSearcher searcher(*sharded_);
  QueryEngine engine(searcher);
  FrontDoorOptions door_options;
  door_options.clock = &clock;
  door_options.default_quota = TenantQuota{1e6, 1e6};  // admission off
  FrontDoor door(engine, door_options);

  std::vector<ArrivalSpec> schedule;
  for (int i = 0; i < 6; ++i) {
    ArrivalSpec bulk;
    bulk.arrival_ms = 1.0 + i;
    bulk.priority = RequestPriority::kBulk;
    bulk.num_queries = 1;
    bulk.pool_offset = static_cast<uint32_t>(i);
    schedule.push_back(bulk);
  }
  for (int i = 0; i < 3; ++i) {
    ArrivalSpec interactive;
    interactive.arrival_ms = 8.0 + i;
    interactive.priority = RequestPriority::kInteractive;
    interactive.num_queries = 1;
    interactive.pool_offset = static_cast<uint32_t>(6 + i);
    schedule.push_back(interactive);
  }

  DriverOptions options;
  options.virtual_slots = 1;
  options.service_ms_per_query = 10.0;
  options.k = 5;
  const DriveOutcome outcome =
      RunOpenLoop(door, clock, schedule, pool_, options);

  ASSERT_EQ(outcome.interactive.completed, 3u);
  ASSERT_EQ(outcome.bulk.completed, 6u);
  // FIFO would finish the 6 bulk requests (60ms of service) before the
  // first interactive one. With class priority, the interactive train
  // runs as soon as the in-flight bulk request drains: worst latency
  // covers at most (one residual bulk + the 3 interactive services).
  for (const double latency : outcome.interactive.latency_ms) {
    EXPECT_LT(latency, 40.0);
  }
  // Bulk pays for yielding: its tail waits behind the overtakers.
  EXPECT_GT(outcome.bulk.latency_ms.back(), 60.0);
}

}  // namespace
}  // namespace gat
