// Tests for gat/engine: executor vs inline result equivalence (the
// QueryEngine determinism contract), stats merging and the number of
// executor tasks a batch costs.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/executor.h"
#include "gat/engine/query_engine.h"
#include "gat/index/gat_index.h"
#include "gat/search/gat_search.h"

namespace gat {
namespace {

// ---------------------------------------------------------------- engine

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = GenerateCity(CityProfile::Testing(/*trajectories=*/400,
                                                 /*seed=*/11));
    index_ = std::make_unique<GatIndex>(dataset_);
    searcher_ = std::make_unique<GatSearcher>(dataset_, *index_);
    QueryWorkloadParams wp;
    wp.num_queries = 40;
    wp.seed = 99;
    queries_ = QueryGenerator(dataset_, wp).Workload();
    ASSERT_FALSE(queries_.empty());
  }

  Executor pool_{4};
  Dataset dataset_;
  std::unique_ptr<GatIndex> index_;
  std::unique_ptr<GatSearcher> searcher_;
  std::vector<Query> queries_;
};

TEST_F(QueryEngineTest, MultiThreadMatchesSingleThreadBitIdentical) {
  QueryEngine single(*searcher_);
  QueryEngine pooled(*searcher_, EngineOptions{.executor = &pool_});
  ASSERT_EQ(single.threads(), 1u);
  ASSERT_EQ(pooled.threads(), 4u);

  for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
    const BatchResult st = single.Run(queries_, /*k=*/10, kind);
    const BatchResult mt = pooled.Run(queries_, /*k=*/10, kind);
    ASSERT_EQ(st.results.size(), queries_.size());
    ASSERT_EQ(mt.results.size(), queries_.size());
    for (size_t i = 0; i < queries_.size(); ++i) {
      // operator== on SearchResult compares trajectory id and the exact
      // double distance — bit-identical, not approximately equal.
      EXPECT_EQ(st.results[i], mt.results[i]) << "query " << i;
    }
  }
}

TEST_F(QueryEngineTest, ResultsIdenticalAcrossRepeatedRuns) {
  QueryEngine pooled(*searcher_, EngineOptions{.executor = &pool_});
  const BatchResult a = pooled.Run(queries_, /*k=*/5, QueryKind::kAtsq);
  const BatchResult b = pooled.Run(queries_, /*k=*/5, QueryKind::kAtsq);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i], b.results[i]);
  }
}

TEST_F(QueryEngineTest, MergedStatsEqualSequentialSums) {
  // The per-query slots must merge to exactly the counters a sequential
  // loop accumulates: every counter is deterministic per query.
  SearchStats expected;
  for (const Query& q : queries_) {
    SearchStats per_query;
    searcher_->Search(q, /*k=*/10, QueryKind::kAtsq, &per_query);
    per_query.elapsed_ms = 0.0;  // timing is the one non-deterministic field
    expected += per_query;
  }

  QueryEngine pooled(*searcher_, EngineOptions{.executor = &pool_});
  BatchResult batch = pooled.Run(queries_, /*k=*/10, QueryKind::kAtsq);

  EXPECT_EQ(batch.totals.candidates_retrieved, expected.candidates_retrieved);
  EXPECT_EQ(batch.totals.tas_pruned, expected.tas_pruned);
  EXPECT_EQ(batch.totals.activity_rejected, expected.activity_rejected);
  EXPECT_EQ(batch.totals.mib_rejected, expected.mib_rejected);
  EXPECT_EQ(batch.totals.distance_computations,
            expected.distance_computations);
  EXPECT_EQ(batch.totals.nodes_popped, expected.nodes_popped);
  EXPECT_EQ(batch.totals.heap_pushes, expected.heap_pushes);
  EXPECT_EQ(batch.totals.rounds, expected.rounds);
  EXPECT_EQ(batch.totals.disk_reads, expected.disk_reads);

}

TEST_F(QueryEngineTest, EmptyBatch) {
  QueryEngine pooled(*searcher_, EngineOptions{.executor = &pool_});
  const BatchResult batch = pooled.Run({}, /*k=*/10, QueryKind::kAtsq);
  EXPECT_TRUE(batch.results.empty());
  EXPECT_EQ(batch.totals.candidates_retrieved, 0u);
}

TEST_F(QueryEngineTest, MoreThreadsThanQueries) {
  const std::vector<Query> two(queries_.begin(), queries_.begin() + 2);
  Executor eight(8);
  QueryEngine pooled(*searcher_, EngineOptions{.executor = &eight});
  QueryEngine single(*searcher_);
  const BatchResult mt = pooled.Run(two, /*k=*/10, QueryKind::kAtsq);
  const BatchResult st = single.Run(two, /*k=*/10, QueryKind::kAtsq);
  ASSERT_EQ(mt.results.size(), 2u);
  for (size_t i = 0; i < 2; ++i) EXPECT_EQ(mt.results[i], st.results[i]);
}

TEST_F(QueryEngineTest, BatchOfNSubmitsNMinusOneTasks) {
  // The caller runs queries[0] itself: a batch of one (every served
  // read) submits no task, a batch of n exactly n-1. Answers, statuses
  // and totals equal the inline engine's.
  QueryEngine pooled(*searcher_, EngineOptions{.executor = &pool_});
  QueryEngine single(*searcher_);
  for (const size_t n : {size_t{1}, size_t{2}, queries_.size()}) {
    const std::vector<Query> batch_queries(queries_.begin(),
                                           queries_.begin() + n);
    const uint64_t before = pool_.tasks_submitted();
    const BatchResult got =
        pooled.Run(batch_queries, /*k=*/6, QueryKind::kOatsq);
    EXPECT_EQ(pool_.tasks_submitted() - before, n - 1) << "n = " << n;
    const BatchResult want =
        single.Run(batch_queries, /*k=*/6, QueryKind::kOatsq);
    ASSERT_EQ(got.results.size(), n);
    EXPECT_EQ(got.results, want.results) << "n = " << n;
    EXPECT_EQ(got.statuses, want.statuses) << "n = " << n;
    EXPECT_EQ(got.deadline_exceeded, 0u);
    EXPECT_EQ(got.totals.candidates_retrieved,
              want.totals.candidates_retrieved);
    EXPECT_EQ(got.totals.distance_computations,
              want.totals.distance_computations);
    EXPECT_EQ(got.totals.nodes_popped, want.totals.nodes_popped);
    EXPECT_EQ(got.totals.rounds, want.totals.rounds);
    EXPECT_EQ(got.totals.disk_reads, want.totals.disk_reads);
  }
}

TEST_F(QueryEngineTest, SharedExecutorMatchesInline) {
  // EngineOptions::executor: answers must not depend on the pool size.
  Executor executor(3);
  QueryEngine shared(*searcher_, EngineOptions{.executor = &executor});
  EXPECT_EQ(shared.threads(), 3u);
  EXPECT_EQ(shared.executor(), &executor);
  QueryEngine single(*searcher_);
  const BatchResult got = shared.Run(queries_, /*k=*/7, QueryKind::kAtsq);
  const BatchResult want = single.Run(queries_, /*k=*/7, QueryKind::kAtsq);
  ASSERT_EQ(got.results.size(), want.results.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    EXPECT_EQ(got.results[i], want.results[i]) << "query " << i;
  }
}

TEST_F(QueryEngineTest, TwoEnginesPipelineOnOneExecutor) {
  // Two engines (different k) share one pool from two caller threads —
  // the cross-batch pipelining shape. Each batch must be bit-identical
  // to its single-threaded reference.
  Executor executor(4);
  QueryEngine a(*searcher_, EngineOptions{.executor = &executor});
  QueryEngine b(*searcher_, EngineOptions{.executor = &executor});
  QueryEngine single(*searcher_);
  const BatchResult want_a = single.Run(queries_, /*k=*/3, QueryKind::kAtsq);
  const BatchResult want_b = single.Run(queries_, /*k=*/8, QueryKind::kOatsq);

  BatchResult got_a, got_b;
  std::thread caller_a(
      [&] { got_a = a.Run(queries_, /*k=*/3, QueryKind::kAtsq); });
  std::thread caller_b(
      [&] { got_b = b.Run(queries_, /*k=*/8, QueryKind::kOatsq); });
  caller_a.join();
  caller_b.join();
  for (size_t i = 0; i < queries_.size(); ++i) {
    EXPECT_EQ(got_a.results[i], want_a.results[i]) << "batch a, query " << i;
    EXPECT_EQ(got_b.results[i], want_b.results[i]) << "batch b, query " << i;
  }
}

TEST_F(QueryEngineTest, PerQueryLatenciesArePopulated) {
  QueryEngine pooled(*searcher_, EngineOptions{.executor = &pool_});
  const BatchResult batch = pooled.Run(queries_, /*k=*/5, QueryKind::kAtsq);
  ASSERT_EQ(batch.latencies.size(), queries_.size());
  for (const QueryLatency& lat : batch.latencies) {
    EXPECT_GE(lat.wall_ms, 0.0);
  }
}

}  // namespace
}  // namespace gat
