// Unit tests for the baseline searchers' index structures and behaviours
// that the equivalence test does not cover.

#include <gtest/gtest.h>

#include <algorithm>

#include "gat/baselines/brute_force.h"
#include "gat/baselines/il_search.h"
#include "gat/baselines/rt_search.h"
#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/index/gat_index.h"
#include "gat/search/gat_search.h"

namespace gat {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  BaselineTest() : dataset_(GenerateCity(CityProfile::Testing(150, 888))) {}
  Dataset dataset_;
};

TEST_F(BaselineTest, IlCandidatesMatchScan) {
  IlSearcher il(dataset_);
  // For a few activity combinations, IL's intersection must equal a scan.
  for (const std::vector<ActivityId>& acts :
       {std::vector<ActivityId>{0}, {0, 1}, {2, 5}, {0, 3, 7}}) {
    std::vector<TrajectoryId> expected;
    for (TrajectoryId t = 0; t < dataset_.size(); ++t) {
      const auto available = dataset_.trajectory(t).ActivityUnion();
      if (std::includes(available.begin(), available.end(), acts.begin(),
                        acts.end())) {
        expected.push_back(t);
      }
    }
    EXPECT_EQ(il.CandidatesFor(acts), expected);
  }
}

TEST_F(BaselineTest, IlUnknownActivityYieldsNoCandidates) {
  IlSearcher il(dataset_);
  EXPECT_TRUE(il.CandidatesFor({999999}).empty());
  EXPECT_TRUE(il.CandidatesFor({0, 999999}).empty());
}

TEST_F(BaselineTest, IlEmptyActivityListMatchesEverything) {
  IlSearcher il(dataset_);
  EXPECT_EQ(il.CandidatesFor({}).size(), dataset_.size());
  EXPECT_GT(il.IndexBytes(), 0u);
}

TEST_F(BaselineTest, IlCandidateCountIndependentOfK) {
  // The paper: IL's cost is constant in k since it refines all candidates.
  IlSearcher il(dataset_);
  QueryWorkloadParams wp;
  wp.num_queries = 1;
  wp.seed = 3;
  QueryGenerator qgen(dataset_, wp);
  const Query q = qgen.Next();
  SearchStats s5, s25;
  il.Search(q, 5, QueryKind::kAtsq, &s5);
  il.Search(q, 25, QueryKind::kAtsq, &s25);
  EXPECT_EQ(s5.candidates_retrieved, s25.candidates_retrieved);
}

TEST_F(BaselineTest, GatExaminesNoMoreCandidatesThanIl) {
  // The mechanism behind Figure 3: GAT's spatial+activity pruning refines
  // no more candidates than activity-only IL (which refines every
  // trajectory covering the demanded activities). On larger datasets the
  // inequality is strict; the Figure-3 bench shows the gap.
  IlSearcher il(dataset_);
  GatIndex index(dataset_);
  GatSearcher gat(dataset_, index);
  QueryWorkloadParams wp;
  wp.num_queries = 15;
  wp.seed = 4;
  wp.diameter_km = 3.0;
  QueryGenerator qgen(dataset_, wp);
  uint64_t il_total = 0;
  uint64_t gat_total = 0;
  for (const Query& q : qgen.Workload()) {
    SearchStats si, sg;
    il.Search(q, 9, QueryKind::kAtsq, &si);
    gat.Search(q, 9, QueryKind::kAtsq, &sg);
    il_total += si.distance_computations;
    gat_total += sg.distance_computations;
  }
  EXPECT_LE(gat_total, il_total);
}

TEST_F(BaselineTest, RtAndIrtStopEarly) {
  // Both tree baselines must terminate without scanning every trajectory
  // on small-k queries (their whole point versus brute force). Uses a
  // larger dataset than the fixture: early termination needs enough
  // matches that the k-th best distance undercuts the stream radii.
  const Dataset big = GenerateCity(CityProfile::Testing(800, 889));
  RtSearcher rt(big);
  IrtSearcher irt(big);
  QueryWorkloadParams wp;
  wp.num_queries = 10;
  wp.seed = 5;
  wp.diameter_km = 4.0;
  QueryGenerator qgen(big, wp);
  uint64_t rt_cand = 0;
  uint64_t irt_cand = 0;
  const uint64_t total = 10 * big.size();
  for (const Query& q : qgen.Workload()) {
    SearchStats sr, si;
    rt.Search(q, 3, QueryKind::kAtsq, &sr);
    irt.Search(q, 3, QueryKind::kAtsq, &si);
    rt_cand += sr.candidates_retrieved;
    irt_cand += si.candidates_retrieved;
  }
  EXPECT_LT(rt_cand, total);
  EXPECT_LT(irt_cand, total);
  // IRT's activity filter retrieves no more candidates than RT.
  EXPECT_LE(irt_cand, rt_cand);
}

TEST_F(BaselineTest, BruteForceScansEverything) {
  BruteForceSearcher bf(dataset_);
  Query q({QueryPoint{Point{1, 1}, {0}}});
  SearchStats stats;
  bf.Search(q, 5, QueryKind::kAtsq, &stats);
  EXPECT_EQ(stats.candidates_retrieved, dataset_.size());
}

TEST_F(BaselineTest, SearcherNames) {
  EXPECT_EQ(IlSearcher(dataset_).name(), "IL");
  EXPECT_EQ(RtSearcher(dataset_).name(), "RT");
  EXPECT_EQ(IrtSearcher(dataset_).name(), "IRT");
  EXPECT_EQ(BruteForceSearcher(dataset_).name(), "BF");
}

}  // namespace
}  // namespace gat
