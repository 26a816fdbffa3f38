// Tests for the sharded serving layer: the round-robin partition, the
// parallel shard builds, and the central guarantee that ShardedSearcher
// answers bit-identically to a single GatIndex over the whole dataset.

#include "gat/shard/sharded_index.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/executor.h"
#include "gat/engine/query_engine.h"
#include "gat/search/gat_search.h"
#include "gat/shard/sharded_searcher.h"

namespace gat {
namespace {

std::vector<Query> TestQueries(const Dataset& dataset, uint64_t seed,
                               uint32_t count = 12) {
  QueryWorkloadParams wp;
  wp.num_queries = count;
  wp.seed = seed;
  QueryGenerator qgen(dataset, wp);
  return qgen.Workload();
}

TEST(Partition, RoundRobinIsStableAndPreservesGlobalFrame) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(50, 17));
  const uint32_t kShards = 3;
  const auto shards = dataset.PartitionRoundRobin(kShards);
  ASSERT_EQ(shards.size(), kShards);

  size_t total = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    ASSERT_TRUE(shards[s].finalized());
    // Global frame preserved: bounding box, activity table, vocabulary.
    EXPECT_EQ(shards[s].bounding_box(), dataset.bounding_box());
    EXPECT_EQ(shards[s].num_distinct_activities(),
              dataset.num_distinct_activities());
    EXPECT_EQ(shards[s].vocabulary().size(), dataset.vocabulary().size());
    total += shards[s].size();

    // Stable mapping: local j in shard s is global j * N + s, with the
    // activity IDs untranslated.
    for (TrajectoryId local = 0; local < shards[s].size(); ++local) {
      const Trajectory& got = shards[s].trajectory(local);
      const Trajectory& want = dataset.trajectory(local * kShards + s);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].location, want[i].location);
        EXPECT_EQ(got[i].activities, want[i].activities);
      }
    }
  }
  EXPECT_EQ(total, dataset.size());
}

TEST(Partition, MoreShardsThanTrajectoriesLeavesEmptyShards) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(3, 23));
  const auto shards = dataset.PartitionRoundRobin(8);
  ASSERT_EQ(shards.size(), 8u);
  for (uint32_t s = 0; s < 8; ++s) {
    EXPECT_EQ(shards[s].size(), s < dataset.size() ? 1u : 0u);
  }
  // Empty shards still carry the global frame and can back an index.
  const ShardedIndex sharded(dataset, {}, ShardOptions{.num_shards = 8});
  const ShardedSearcher searcher(sharded);
  for (const Query& q : TestQueries(dataset, 5, 3)) {
    EXPECT_NO_FATAL_FAILURE(searcher.Search(q, 2, QueryKind::kAtsq));
  }
}

TEST(Partition, EmptyShardsAnswerLikeTheSingleIndex) {
  // Regression: shards > trajectory count must stay bit-identical to
  // the monolithic index, sequentially and fanned out on an executor.
  const Dataset dataset = GenerateCity(CityProfile::Testing(5, 29));
  const GatIndex single_index(dataset);
  const GatSearcher single(dataset, single_index);
  const ShardedIndex sharded(dataset, {}, ShardOptions{.num_shards = 8});
  Executor executor(4);
  const ShardedSearcher sequential(sharded);
  const ShardedSearcher fanned(sharded, {}, &executor);
  for (const Query& q : TestQueries(dataset, 61, 6)) {
    for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
      const ResultList want = single.Search(q, 4, kind);
      ASSERT_EQ(sequential.Search(q, 4, kind), want);
      ASSERT_EQ(fanned.Search(q, 4, kind), want);
    }
  }
}

TEST(Partition, EmptyParentDatasetBuildsAndAnswersEmpty) {
  // Regression: an empty dataset has an empty bounding box; every shard
  // (all empty) must still build a valid index, snapshot-cache, and
  // answer zero results — never abort in the grid.
  Dataset empty;
  empty.Finalize();
  const std::string dir = ::testing::TempDir() + "/empty_parent_cache";
  std::filesystem::remove_all(dir);
  ShardOptions options;
  options.num_shards = 4;
  options.snapshot_dir = dir;
  const ShardedIndex cold(empty, {}, options);
  EXPECT_EQ(cold.shards_loaded_from_snapshot(), 0u);
  const ShardedIndex warm(empty, {}, options);
  EXPECT_EQ(warm.shards_loaded_from_snapshot(), 4u);

  Query q;
  q.Add(QueryPoint{Point{1.0, 2.0}, {0, 1}});
  for (const ShardedIndex* index : {&cold, &warm}) {
    const ShardedSearcher searcher(*index);
    for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
      EXPECT_TRUE(searcher.Search(q, 3, kind).empty());
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Partition, EmptyShardSnapshotsWarmLoad) {
  // The empty shards of a sparse dataset must round-trip through the
  // snapshot cache exactly like populated ones.
  const Dataset dataset = GenerateCity(CityProfile::Testing(3, 23));
  const std::string dir = ::testing::TempDir() + "/sparse_shard_cache";
  std::filesystem::remove_all(dir);
  ShardOptions options;
  options.num_shards = 8;
  options.snapshot_dir = dir;
  const ShardedIndex cold(dataset, {}, options);
  EXPECT_EQ(cold.shards_loaded_from_snapshot(), 0u);
  const ShardedIndex warm(dataset, {}, options);
  EXPECT_EQ(warm.shards_loaded_from_snapshot(), 8u);
  const ShardedSearcher cold_searcher(cold);
  const ShardedSearcher warm_searcher(warm);
  for (const Query& q : TestQueries(dataset, 5, 3)) {
    ASSERT_EQ(warm_searcher.Search(q, 2, QueryKind::kAtsq),
              cold_searcher.Search(q, 2, QueryKind::kAtsq));
  }
  std::filesystem::remove_all(dir);
}

class ShardEquivalenceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ShardEquivalenceTest, TopKBitIdenticalToSingleIndex) {
  const uint32_t num_shards = GetParam();
  const Dataset dataset = GenerateCity(CityProfile::Testing(200, 41));
  const GatIndex single_index(dataset);
  const GatSearcher single(dataset, single_index);

  // Built on a shared executor, searched both sequentially and with
  // per-query fan-out on the same pool: all three answers must be
  // bit-identical.
  Executor executor(4);
  const ShardedIndex sharded(
      dataset, {},
      ShardOptions{.num_shards = num_shards, .executor = &executor});
  const ShardedSearcher sequential(sharded);
  const ShardedSearcher fanned(sharded, {}, &executor);

  for (const Query& q : TestQueries(dataset, 123)) {
    for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
      for (const size_t k : {1u, 5u, 9u}) {
        const ResultList want = single.Search(q, k, kind);
        // operator== on SearchResult compares trajectory IDs and exact
        // double distances — bit-identical, not merely epsilon-close.
        ASSERT_EQ(sequential.Search(q, k, kind), want)
            << ToString(kind) << " shards=" << num_shards << " k=" << k;
        ASSERT_EQ(fanned.Search(q, k, kind), want)
            << "fan-out " << ToString(kind) << " shards=" << num_shards
            << " k=" << k;
      }
    }
  }
}

TEST_P(ShardEquivalenceTest, FanOutStatsMatchSequentialVisit) {
  // The merge happens after the group barrier in shard order, so the
  // answers and summed counters — and the elapsed_ms summation order —
  // are the same whether the shards ran inline or as tasks. The caller
  // sweeps shard 0 itself: a query submits num_shards - 1 tasks.
  const uint32_t num_shards = GetParam();
  const Dataset dataset = GenerateCity(CityProfile::Testing(200, 41));
  Executor executor(4);
  const ShardedIndex sharded(dataset, {},
                             ShardOptions{.num_shards = num_shards});
  const ShardedSearcher sequential(sharded);
  const ShardedSearcher fanned(sharded, {}, &executor);

  for (const Query& q : TestQueries(dataset, 77, 4)) {
    SearchStats seq_stats, fan_stats;
    const ResultList want = sequential.Search(q, 5, QueryKind::kAtsq,
                                              &seq_stats);
    const uint64_t tasks_before = executor.tasks_submitted();
    EXPECT_EQ(fanned.Search(q, 5, QueryKind::kAtsq, &fan_stats), want);
    EXPECT_EQ(executor.tasks_submitted() - tasks_before, num_shards - 1);
    EXPECT_EQ(fan_stats.candidates_retrieved, seq_stats.candidates_retrieved);
    EXPECT_EQ(fan_stats.tas_pruned, seq_stats.tas_pruned);
    EXPECT_EQ(fan_stats.distance_computations,
              seq_stats.distance_computations);
    EXPECT_EQ(fan_stats.disk_reads, seq_stats.disk_reads);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardEquivalenceTest,
                         ::testing::Values(1u, 2u, 4u));

TEST(ShardedSearcher, StatsAreResetPerQueryLikeEveryOtherSearcher) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(100, 71));
  const ShardedIndex sharded(dataset, {}, ShardOptions{.num_shards = 2});
  const ShardedSearcher searcher(sharded);
  const auto queries = TestQueries(dataset, 11, 2);

  SearchStats fresh;
  searcher.Search(queries[0], 5, QueryKind::kAtsq, &fresh);
  // Reusing one stats object across queries must not accumulate.
  SearchStats reused;
  searcher.Search(queries[1], 5, QueryKind::kAtsq, &reused);
  searcher.Search(queries[0], 5, QueryKind::kAtsq, &reused);
  EXPECT_EQ(reused.candidates_retrieved, fresh.candidates_retrieved);
  EXPECT_EQ(reused.distance_computations, fresh.distance_computations);
  EXPECT_EQ(reused.disk_reads, fresh.disk_reads);
}

TEST(ShardedSearcher, BatchThroughQueryEngineMatchesSingleIndex) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(150, 67));
  const GatIndex single_index(dataset);
  const GatSearcher single(dataset, single_index);
  const ShardedIndex sharded(dataset, {}, ShardOptions{.num_shards = 4});
  const ShardedSearcher fanned(sharded);

  const auto queries = TestQueries(dataset, 321, 16);
  Executor executor(4);
  const QueryEngine single_engine(single);
  const QueryEngine shard_engine(fanned, EngineOptions{.executor = &executor});
  for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
    const BatchResult want = single_engine.Run(queries, 9, kind);
    const BatchResult got = shard_engine.Run(queries, 9, kind);
    ASSERT_EQ(got.results.size(), want.results.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(got.results[i], want.results[i]) << "query " << i;
    }
  }
}

TEST(ShardedSearcher, NestedFanOutInsideEngineTasksMatchesSingleIndex) {
  // Engine query tasks AND per-query shard tasks on ONE executor —
  // nested submission, no second pool. Answers
  // must stay bit-identical to the single-threaded monolithic run.
  const Dataset dataset = GenerateCity(CityProfile::Testing(150, 67));
  const GatIndex single_index(dataset);
  const GatSearcher single(dataset, single_index);

  Executor executor(4);
  const ShardedIndex sharded(
      dataset, {}, ShardOptions{.num_shards = 4, .executor = &executor});
  const ShardedSearcher fanned(sharded, {}, &executor);

  const auto queries = TestQueries(dataset, 321, 16);
  const QueryEngine single_engine(single);
  const QueryEngine shard_engine(fanned, EngineOptions{.executor = &executor});
  for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
    const BatchResult want = single_engine.Run(queries, 9, kind);
    const BatchResult got = shard_engine.Run(queries, 9, kind);
    ASSERT_EQ(got.results.size(), want.results.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(got.results[i], want.results[i]) << "query " << i;
    }
  }
}

TEST(ShardedIndex, SnapshotDirectoryIsASelfPrimingCache) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(120, 83));
  const std::string dir = ::testing::TempDir() + "/shard_cache";
  std::filesystem::remove_all(dir);

  ShardOptions options;
  options.num_shards = 3;
  options.snapshot_dir = dir;

  // Cold start: nothing to load, everything built and saved.
  const ShardedIndex cold(dataset, {}, options);
  EXPECT_EQ(cold.shards_loaded_from_snapshot(), 0u);
  for (uint32_t s = 0; s < 3; ++s) {
    EXPECT_TRUE(std::filesystem::exists(ShardedIndex::SnapshotPath(dir, s, 3)));
  }

  // Warm start: every shard restored from its snapshot, same answers.
  const ShardedIndex warm(dataset, {}, options);
  EXPECT_EQ(warm.shards_loaded_from_snapshot(), 3u);
  const ShardedSearcher cold_searcher(cold);
  const ShardedSearcher warm_searcher(warm);
  for (const Query& q : TestQueries(dataset, 9)) {
    for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
      ASSERT_EQ(warm_searcher.Search(q, 9, kind),
                cold_searcher.Search(q, 9, kind));
    }
  }

  // A config change invalidates the cache instead of serving stale data.
  ShardOptions reconfigured = options;
  const GatConfig deeper{.depth = 7, .memory_levels = 5, .tas_width = 2};
  const ShardedIndex rebuilt(dataset, deeper, reconfigured);
  EXPECT_EQ(rebuilt.shards_loaded_from_snapshot(), 0u);
  EXPECT_EQ(rebuilt.PinGeneration()->PinShard(0)->index->config(), deeper);

  // A shard-count change produces differently named snapshots — also a
  // clean rebuild, not a mismatched load.
  ShardOptions resharded = options;
  resharded.num_shards = 2;
  const ShardedIndex recut(dataset, {}, resharded);
  EXPECT_EQ(recut.shards_loaded_from_snapshot(), 0u);
  const ShardedSearcher recut_searcher(recut);
  for (const Query& q : TestQueries(dataset, 9, 4)) {
    ASSERT_EQ(recut_searcher.Search(q, 9, QueryKind::kAtsq),
              cold_searcher.Search(q, 9, QueryKind::kAtsq));
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardedIndex, StaleSnapshotOfDifferentDatasetIsRebuilt) {
  const std::string dir = ::testing::TempDir() + "/shard_stale";
  std::filesystem::remove_all(dir);
  ShardOptions options;
  options.num_shards = 2;
  options.snapshot_dir = dir;

  // Prime the cache with dataset A, then construct over other datasets
  // under the same file names and config: the dataset fingerprint must
  // force a rebuild, never a stale warm load.
  const Dataset a = GenerateCity(CityProfile::Testing(100, 51));
  const ShardedIndex primed(a, {}, options);
  EXPECT_EQ(primed.shards_loaded_from_snapshot(), 0u);

  // Different size...
  const Dataset smaller = GenerateCity(CityProfile::Testing(60, 52));
  const ShardedIndex rebuilt(smaller, {}, options);
  EXPECT_EQ(rebuilt.shards_loaded_from_snapshot(), 0u);
  const auto generation = rebuilt.PinGeneration();
  EXPECT_EQ(generation->PinShard(0)->index->tas().num_trajectories(),
            generation->shard_dataset(0).size());

  // ...and the nasty case: same trajectory count, different content
  // (row counts match, only the fingerprint differs).
  const Dataset same_size = GenerateCity(CityProfile::Testing(60, 53));
  ASSERT_EQ(same_size.size(), smaller.size());
  const ShardedIndex recut(same_size, {}, options);
  EXPECT_EQ(recut.shards_loaded_from_snapshot(), 0u);

  // After rebuilding, the cache is coherent again for the last dataset.
  const ShardedIndex warm(same_size, {}, options);
  EXPECT_EQ(warm.shards_loaded_from_snapshot(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(ShardedIndex, MemoryBreakdownSumsShards) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(90, 29));
  const ShardedIndex sharded(dataset, {}, ShardOptions{.num_shards = 2});
  const auto generation = sharded.PinGeneration();
  size_t main_total = 0;
  for (uint32_t s = 0; s < 2; ++s) {
    main_total +=
        generation->PinShard(s)->index->memory_breakdown().MainMemoryTotal();
  }
  EXPECT_EQ(sharded.memory_breakdown().MainMemoryTotal(), main_total);
  EXPECT_GT(main_total, 0u);
}

}  // namespace
}  // namespace gat
