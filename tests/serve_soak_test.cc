// Overload soak for the serving front door, meant to run under TSan and
// ASan (ctest label: soak): many client threads hammer one FrontDoor on
// one shared executor far past its admission budget, and the suite
// checks the three properties overload must not bend —
//
//  1. shed requests create ZERO executor tasks (exact task-count delta),
//  2. every accepted request's answers are bit-identical to a quiescent
//     single-threaded run of the same queries,
//  3. every accepted request's SearchStats counters are exactly the
//     quiescent counters — concurrency and shedding may reorder work,
//     never change it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/executor.h"
#include "gat/engine/query_engine.h"
#include "gat/search/gat_search.h"
#include "gat/serve/front_door.h"

namespace gat {
namespace {

constexpr uint32_t kClientThreads = 8;
constexpr uint32_t kRequestsPerClient = 40;
constexpr uint32_t kQueriesPerRequest = 3;
constexpr size_t kTopK = 5;

class ServeSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = GenerateCity(CityProfile::Testing(/*trajectories=*/300,
                                                 /*seed=*/77));
    index_ = std::make_unique<GatIndex>(dataset_);
    searcher_ = std::make_unique<GatSearcher>(dataset_, *index_);

    QueryWorkloadParams wp;
    wp.num_queries = kClientThreads * kQueriesPerRequest;
    wp.seed = 5;
    QueryGenerator qgen(dataset_, wp);
    pool_ = qgen.Workload();

    // Each client replays one fixed slice of the pool; the quiescent
    // reference for that slice is computed once, single-threaded.
    for (uint32_t c = 0; c < kClientThreads; ++c) {
      client_queries_.emplace_back(
          pool_.begin() + c * kQueriesPerRequest,
          pool_.begin() + (c + 1) * kQueriesPerRequest);
    }
    QueryEngine quiet(*searcher_);
    for (uint32_t c = 0; c < kClientThreads; ++c) {
      reference_.push_back(
          quiet.Run(client_queries_[c], kTopK, QueryKind::kAtsq));
    }
  }

  // Counter-field equality (elapsed_ms is wall time and excluded).
  static void ExpectSameCounters(const SearchStats& a, const SearchStats& b) {
    EXPECT_EQ(a.candidates_retrieved, b.candidates_retrieved);
    EXPECT_EQ(a.disk_reads, b.disk_reads);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.nodes_popped, b.nodes_popped);
    EXPECT_EQ(a.deadline_skips, b.deadline_skips);
  }

  Dataset dataset_;
  std::unique_ptr<GatIndex> index_;
  std::unique_ptr<GatSearcher> searcher_;
  std::vector<Query> pool_;
  std::vector<std::vector<Query>> client_queries_;
  std::vector<BatchResult> reference_;
};

TEST_F(ServeSoakTest, ShedRequestsConsumeNoExecutorWorkUnderOverload) {
  Executor executor(4);
  QueryEngine engine(*searcher_, EngineOptions{.executor = &executor});
  FrontDoorOptions options;
  // Tight budget: 8 threads x 40 requests against one tenant's
  // 100/s + burst-8 bucket guarantees heavy shedding.
  options.default_quota = TenantQuota{/*tokens_per_sec=*/100.0,
                                      /*burst=*/8.0};
  FrontDoor door(engine, options);

  const uint64_t tasks_before = executor.tasks_submitted();
  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> shed_count{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      ServeRequest request;
      request.tenant = 0;  // one shared tenant: maximum contention
      request.queries = client_queries_[c];
      request.k = kTopK;
      for (uint32_t r = 0; r < kRequestsPerClient; ++r) {
        ServeResult result = door.Serve(request);
        if (result.status == ServeStatus::kShed) {
          shed_count.fetch_add(1);
          if (!result.batch.results.empty()) failures.fetch_add(1);
          continue;
        }
        if (result.status != ServeStatus::kOk) {
          failures.fetch_add(1);  // no deadlines set: kOk or kShed only
          continue;
        }
        ok_count.fetch_add(1);
        // Accepted answers are bit-identical to the quiescent run,
        // whatever shedding and concurrency surround them.
        if (result.batch.results != reference_[c].results) {
          failures.fetch_add(1);
        }
        for (size_t i = 0; i < result.batch.results.size(); ++i) {
          if (result.batch.statuses[i] != QueryStatus::kOk) {
            failures.fetch_add(1);
          }
        }
        ExpectSameCounters(result.batch.totals, reference_[c].totals);
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(shed_count.load(), 0u) << "overload must actually shed";
  EXPECT_GT(ok_count.load(), 0u) << "the burst must admit something";
  EXPECT_EQ(ok_count.load() + shed_count.load(),
            uint64_t{kClientThreads} * kRequestsPerClient);

  // The central overload invariant: executor tasks exist only for
  // admitted requests — each submits one task per query but the first,
  // which runs on the serving thread — and shed requests contribute
  // exactly zero.
  EXPECT_EQ(executor.tasks_submitted() - tasks_before,
            ok_count.load() * (kQueriesPerRequest - 1));

  const FrontDoorCounters counters = door.counters();
  EXPECT_EQ(counters.admitted, ok_count.load());
  EXPECT_EQ(counters.shed, shed_count.load());
  EXPECT_EQ(counters.completed, ok_count.load());
  EXPECT_EQ(counters.deadline_misses, 0u);
}

TEST_F(ServeSoakTest, MixedPriorityClassesStayExactUnderConcurrency) {
  Executor executor(4);
  QueryEngine engine(*searcher_, EngineOptions{.executor = &executor});
  FrontDoorOptions options;
  options.default_quota = TenantQuota{/*tokens_per_sec=*/500.0,
                                      /*burst=*/16.0};
  FrontDoor door(engine, options);

  std::atomic<int> failures{0};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      ServeRequest request;
      request.tenant = c;  // per-client tenants: everything admits
      request.priority = (c % 2 == 0) ? RequestPriority::kInteractive
                                      : RequestPriority::kBulk;
      request.queries = client_queries_[c];
      request.k = kTopK;
      for (uint32_t r = 0; r < 8; ++r) {
        ServeResult result = door.Serve(request);
        if (result.status != ServeStatus::kOk) {
          failures.fetch_add(1);
          continue;
        }
        completed.fetch_add(1);
        // Priority picks a queue, never an answer: bulk-class results
        // are bit-identical to the quiescent (high-priority) reference.
        if (result.batch.results != reference_[c].results) {
          failures.fetch_add(1);
        }
        ExpectSameCounters(result.batch.totals, reference_[c].totals);
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(completed.load(), uint64_t{kClientThreads} * 8);
  EXPECT_EQ(door.counters().deadline_misses, 0u);
}

}  // namespace
}  // namespace gat
