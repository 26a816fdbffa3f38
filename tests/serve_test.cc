// Tests for gat/serve: token-bucket admission edge cases, deadline
// semantics at every task boundary (admission, query start, shard
// sweep), priority classes, and the request envelope (priority and
// deadline) that reaches the searcher — all on an injectable
// ManualClock, so every outcome is a pure function of the call sequence.

#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gat/common/clock.h"
#include "gat/common/query_context.h"
#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/executor.h"
#include "gat/engine/query_engine.h"
#include "gat/search/gat_search.h"
#include "gat/serve/front_door.h"
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

// ---------------------------------------------- Envelope into the engine

// A searcher wrapper that records a copy of the QueryContext each Search
// receives (nullopt for none): what the engine was actually told about
// the request, as opposed to what the request carried.
class ContextRecordingSearcher : public Searcher {
 public:
  explicit ContextRecordingSearcher(const Searcher& inner) : inner_(inner) {}

  ResultList Search(const Query& query, size_t k, QueryKind kind,
                    SearchStats* stats = nullptr,
                    const QueryContext* context = nullptr) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      seen_.push_back(context == nullptr ? std::nullopt
                                         : std::optional(*context));
    }
    return inner_.Search(query, k, kind, stats, context);
  }
  std::string name() const override { return inner_.name(); }

  /// The contexts of every Search since the last call, in call order.
  std::vector<std::optional<QueryContext>> TakeSeen() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(seen_, {});
  }

 private:
  const Searcher& inner_;
  mutable std::mutex mu_;
  mutable std::vector<std::optional<QueryContext>> seen_;
};

TEST_F(ServeTest, PriorityAndDeadlineReachEverySearch) {
  ManualClock clock;
  ContextRecordingSearcher recording(*searcher_);
  QueryEngine engine(recording);
  FrontDoorOptions options;
  options.clock = &clock;
  FrontDoor door(engine, options);

  // Both classes, each with its own deadline: every Search must see the
  // request's envelope, not a default.
  for (const RequestPriority priority :
       {RequestPriority::kInteractive, RequestPriority::kBulk}) {
    ServeRequest request;
    request.priority = priority;
    request.deadline_micros =
        priority == RequestPriority::kBulk ? 9'000 : 4'000;
    request.queries.assign(queries_.begin(), queries_.begin() + 3);
    request.k = 5;
    ASSERT_EQ(door.Serve(request).status, ServeStatus::kOk);

    const std::vector<std::optional<QueryContext>> seen = recording.TakeSeen();
    ASSERT_EQ(seen.size(), request.queries.size());
    for (const std::optional<QueryContext>& context : seen) {
      ASSERT_TRUE(context.has_value());
      EXPECT_EQ(context->priority, priority);
      EXPECT_EQ(context->deadline_micros, request.deadline_micros);
      EXPECT_EQ(context->clock, &clock);
    }
  }
}

}  // namespace
}  // namespace gat
