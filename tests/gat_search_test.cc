// GAT searcher tests: correctness against the brute-force oracle across
// index/search configurations, degenerate queries, and failure injection.

#include "gat/search/gat_search.h"

#include <gtest/gtest.h>

#include "gat/baselines/brute_force.h"
#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"

namespace gat {
namespace {

struct GatConfigCase {
  int depth;
  int memory_levels;
  int tas_width;
  uint32_t lambda;
  uint32_t nearest_cells;
  bool tight_bound;
  bool use_tas;
};

class GatSearchConfigTest : public ::testing::TestWithParam<GatConfigCase> {};

TEST_P(GatSearchConfigTest, MatchesBruteForceOnBothQueryKinds) {
  const auto c = GetParam();
  const Dataset dataset = GenerateCity(CityProfile::Testing(250, 2024));
  GatConfig config;
  config.depth = c.depth;
  config.memory_levels = c.memory_levels;
  config.tas_width = c.tas_width;
  const GatIndex index(dataset, config);
  GatSearchParams params;
  params.lambda = c.lambda;
  params.nearest_cells = c.nearest_cells;
  params.use_tight_lower_bound = c.tight_bound;
  params.use_tas = c.use_tas;
  const GatSearcher gat(dataset, index, params);
  const BruteForceSearcher oracle(dataset);

  QueryWorkloadParams wp;
  wp.num_queries = 12;
  wp.seed = 999;
  QueryGenerator qgen(dataset, wp);
  for (const Query& q : qgen.Workload()) {
    for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
      const auto expected = oracle.Search(q, 9, kind);
      const auto actual = gat.Search(q, 9, kind);
      ASSERT_TRUE(SameDistances(actual, expected, 1e-7))
          << ToString(kind) << " depth=" << c.depth
          << " lambda=" << c.lambda;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GatSearchConfigTest,
    ::testing::Values(
        GatConfigCase{8, 6, 2, 64, 10, true, true},    // paper defaults
        GatConfigCase{5, 3, 2, 64, 10, true, true},    // coarse grid
        GatConfigCase{1, 1, 2, 64, 10, true, true},    // degenerate grid
        GatConfigCase{8, 0, 2, 64, 10, true, true},    // all HICL on disk
        GatConfigCase{8, 8, 2, 64, 10, true, true},    // all HICL in memory
        GatConfigCase{8, 6, 1, 64, 10, true, true},    // single TAS interval
        GatConfigCase{8, 6, 8, 64, 10, true, true},    // many TAS intervals
        GatConfigCase{8, 6, 2, 1, 10, true, true},     // lambda = 1
        GatConfigCase{8, 6, 2, 5000, 10, true, true},  // lambda > dataset
        GatConfigCase{8, 6, 2, 64, 1, true, true},     // m = 1
        GatConfigCase{8, 6, 2, 64, 64, true, true},    // large m
        GatConfigCase{8, 6, 2, 64, 10, false, true},   // naive lower bound
        GatConfigCase{8, 6, 2, 64, 10, true, false},   // TAS disabled
        GatConfigCase{8, 6, 2, 64, 10, false, false}));

// ---------------------------------------------------------------------------
// Degenerate and failure-injection cases.
// ---------------------------------------------------------------------------

class GatSearchEdgeTest : public ::testing::Test {
 protected:
  GatSearchEdgeTest()
      : dataset_(GenerateCity(CityProfile::Testing(120, 555))),
        index_(dataset_),
        searcher_(dataset_, index_) {}

  Dataset dataset_;
  GatIndex index_;
  GatSearcher searcher_;
};

TEST_F(GatSearchEdgeTest, EmptyQueryReturnsNothing) {
  EXPECT_TRUE(searcher_.Atsq(Query{}, 5).empty());
  EXPECT_TRUE(searcher_.Oatsq(Query{}, 5).empty());
}

TEST_F(GatSearchEdgeTest, KZeroReturnsNothing) {
  Query q({QueryPoint{Point{1, 1}, {0}}});
  EXPECT_TRUE(searcher_.Atsq(q, 0).empty());
}

TEST_F(GatSearchEdgeTest, AllEmptyActivitySetsMatchEverythingAtZero) {
  Query q({QueryPoint{Point{1, 1}, {}}, QueryPoint{Point{2, 2}, {}}});
  const auto results = searcher_.Atsq(q, 5);
  ASSERT_EQ(results.size(), 5u);
  for (const auto& r : results) EXPECT_DOUBLE_EQ(r.distance, 0.0);
}

TEST_F(GatSearchEdgeTest, UnknownActivityYieldsNoResults) {
  // An activity ID beyond the vocabulary matches nothing.
  Query q({QueryPoint{Point{1, 1}, {999999}}});
  EXPECT_TRUE(searcher_.Atsq(q, 5).empty());
  EXPECT_TRUE(searcher_.Oatsq(q, 5).empty());
}

TEST_F(GatSearchEdgeTest, KLargerThanMatchCountReturnsAllMatches) {
  QueryWorkloadParams wp;
  wp.num_queries = 1;
  wp.seed = 13;
  QueryGenerator qgen(dataset_, wp);
  const Query q = qgen.Next();
  const BruteForceSearcher oracle(dataset_);
  const auto expected = oracle.Search(q, 100000, QueryKind::kAtsq);
  const auto actual = searcher_.Atsq(q, 100000);
  EXPECT_TRUE(SameDistances(actual, expected, 1e-7));
  EXPECT_LT(actual.size(), dataset_.size());  // not everything matches
}

TEST_F(GatSearchEdgeTest, QueryLocationOutsideBoundingBox) {
  // Locations far outside the indexed space still work (mdist clamps).
  const auto& box = dataset_.bounding_box();
  Query q({QueryPoint{Point{box.max.x + 500, box.max.y + 500},
                      {0}}});  // most frequent activity
  const BruteForceSearcher oracle(dataset_);
  const auto expected = oracle.Search(q, 3, QueryKind::kAtsq);
  const auto actual = searcher_.Atsq(q, 3);
  EXPECT_TRUE(SameDistances(actual, expected, 1e-7));
}

TEST_F(GatSearchEdgeTest, StatsArepopulated) {
  QueryWorkloadParams wp;
  wp.num_queries = 1;
  wp.seed = 14;
  QueryGenerator qgen(dataset_, wp);
  const Query q = qgen.Next();
  SearchStats stats;
  searcher_.Atsq(q, 9, &stats);
  EXPECT_GT(stats.candidates_retrieved, 0u);
  EXPECT_GT(stats.nodes_popped, 0u);
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_GT(stats.distance_computations, 0u);
  EXPECT_GE(stats.elapsed_ms, 0.0);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST_F(GatSearchEdgeTest, TasPruningActuallyFires) {
  // Across a workload, the sketch should reject at least some candidates
  // (with M=2 on a Zipf vocabulary there are always mismatched candidates).
  QueryWorkloadParams wp;
  wp.num_queries = 20;
  wp.seed = 15;
  wp.activities_per_point = 4;
  QueryGenerator qgen(dataset_, wp);
  uint64_t pruned = 0;
  for (const Query& q : qgen.Workload()) {
    SearchStats stats;
    searcher_.Atsq(q, 9, &stats);
    pruned += stats.tas_pruned;
  }
  EXPECT_GT(pruned, 0u);
}

TEST_F(GatSearchEdgeTest, ResultsAreSortedAndDistinct) {
  QueryWorkloadParams wp;
  wp.num_queries = 10;
  wp.seed = 16;
  QueryGenerator qgen(dataset_, wp);
  for (const Query& q : qgen.Workload()) {
    const auto results = searcher_.Oatsq(q, 9);
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_LE(results[i - 1].distance, results[i].distance);
      EXPECT_NE(results[i - 1].trajectory, results[i].trajectory);
    }
    for (const auto& r : results) EXPECT_NE(r.distance, kInfDist);
  }
}

TEST_F(GatSearchEdgeTest, OatsqDistancesDominateAtsq) {
  // Lemma 3 at the system level: for the same query, the i-th OATSQ
  // distance is >= the i-th ATSQ distance.
  QueryWorkloadParams wp;
  wp.num_queries = 10;
  wp.seed = 17;
  QueryGenerator qgen(dataset_, wp);
  for (const Query& q : qgen.Workload()) {
    const auto atsq = searcher_.Atsq(q, 9);
    const auto oatsq = searcher_.Oatsq(q, 9);
    for (size_t i = 0; i < std::min(atsq.size(), oatsq.size()); ++i) {
      EXPECT_LE(atsq[i].distance, oatsq[i].distance + 1e-9);
    }
  }
}

}  // namespace
}  // namespace gat
