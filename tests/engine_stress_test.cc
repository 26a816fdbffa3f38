// Stress tests for the engine's concurrency primitives, written to give
// TSan (-fsanitize=thread, the CI `tsan` matrix leg) real interleavings
// to chew on: executor task storms and cross-batch pipelining through
// one QueryEngine.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
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

// ------------------------------------------------------- executor storms

TEST(ExecutorStress, NestedGroupStormCompletes) {
  Executor executor(4);
  std::atomic<uint64_t> leaves{0};
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    TaskGroup outer(executor);
    for (int i = 0; i < 16; ++i) {
      outer.Submit([&executor, &leaves] {
        TaskGroup inner(executor);
        for (int j = 0; j < 4; ++j) {
          inner.Submit([&leaves] {
            leaves.fetch_add(1, std::memory_order_relaxed);
          });
        }
        inner.Wait();
      });
    }
    outer.Wait();
  }
  EXPECT_EQ(leaves.load(), uint64_t{kRounds} * 16 * 4);
}

// ------------------------------------------- cross-batch pipelined engine

class PipelineStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = GenerateCity(CityProfile::Testing(/*trajectories=*/150,
                                                 /*seed=*/7));
    index_ = std::make_unique<GatIndex>(dataset_);
    searcher_ = std::make_unique<GatSearcher>(dataset_, *index_);
    QueryWorkloadParams wp;
    wp.num_queries = 12;
    wp.seed = 31;
    queries_ = QueryGenerator(dataset_, wp).Workload();
    ASSERT_FALSE(queries_.empty());
  }

  Dataset dataset_;
  std::unique_ptr<GatIndex> index_;
  std::unique_ptr<GatSearcher> searcher_;
  std::vector<Query> queries_;
};

TEST_F(PipelineStressTest, ConcurrentBatchesStayBitIdentical) {
  QueryEngine single(*searcher_);
  const BatchResult want = single.Run(queries_, /*k=*/5, QueryKind::kAtsq);

  Executor executor(4);
  QueryEngine pooled(*searcher_, EngineOptions{.executor = &executor});
  constexpr int kCallers = 6;
  constexpr int kBatchesPerCaller = 5;
  std::vector<std::thread> callers;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int b = 0; b < kBatchesPerCaller; ++b) {
        const BatchResult got = pooled.Run(queries_, /*k=*/5,
                                           QueryKind::kAtsq);
        if (got.results.size() != want.results.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < got.results.size(); ++i) {
          if (got.results[i] != want.results[i]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace gat
