// The central integration test: on generated datasets, all four searchers
// of the paper (GAT, IL, RT, IRT) and the brute-force oracle must return
// identical top-k distance vectors for both ATSQ and OATSQ, across a grid
// of workload parameters (the paper's experiment dimensions).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gat/baselines/brute_force.h"
#include "gat/baselines/il_search.h"
#include "gat/baselines/rt_search.h"
#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/index/gat_index.h"
#include "gat/search/gat_search.h"

namespace gat {
namespace {

struct WorkloadCase {
  uint32_t k;
  uint32_t num_query_points;
  uint32_t activities_per_point;
  double diameter_km;
  uint64_t seed;
};

std::ostream& operator<<(std::ostream& os, const WorkloadCase& w) {
  return os << "k=" << w.k << " |Q|=" << w.num_query_points
            << " |q.Phi|=" << w.activities_per_point << " d=" << w.diameter_km
            << " seed=" << w.seed;
}

class SearchEquivalenceTest : public ::testing::TestWithParam<WorkloadCase> {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(GenerateCity(CityProfile::Testing(300, 31415)));
    index_ = new GatIndex(*dataset_);
    gat_ = new GatSearcher(*dataset_, *index_);
    il_ = new IlSearcher(*dataset_);
    rt_ = new RtSearcher(*dataset_);
    irt_ = new IrtSearcher(*dataset_);
    oracle_ = new BruteForceSearcher(*dataset_);
  }

  static void TearDownTestSuite() {
    delete oracle_;
    delete irt_;
    delete rt_;
    delete il_;
    delete gat_;
    delete index_;
    delete dataset_;
    oracle_ = nullptr;
    irt_ = nullptr;
    rt_ = nullptr;
    il_ = nullptr;
    gat_ = nullptr;
    index_ = nullptr;
    dataset_ = nullptr;
  }

  static Dataset* dataset_;
  static GatIndex* index_;
  static GatSearcher* gat_;
  static IlSearcher* il_;
  static RtSearcher* rt_;
  static IrtSearcher* irt_;
  static BruteForceSearcher* oracle_;
};

Dataset* SearchEquivalenceTest::dataset_ = nullptr;
GatIndex* SearchEquivalenceTest::index_ = nullptr;
GatSearcher* SearchEquivalenceTest::gat_ = nullptr;
IlSearcher* SearchEquivalenceTest::il_ = nullptr;
RtSearcher* SearchEquivalenceTest::rt_ = nullptr;
IrtSearcher* SearchEquivalenceTest::irt_ = nullptr;
BruteForceSearcher* SearchEquivalenceTest::oracle_ = nullptr;

TEST_P(SearchEquivalenceTest, AllSearchersAgreeWithOracle) {
  const auto w = GetParam();
  QueryWorkloadParams wp;
  wp.num_query_points = w.num_query_points;
  wp.activities_per_point = w.activities_per_point;
  wp.diameter_km = w.diameter_km;
  wp.num_queries = 8;
  wp.seed = w.seed;
  QueryGenerator qgen(*dataset_, wp);

  const std::vector<const Searcher*> searchers = {gat_, il_, rt_, irt_};
  for (const Query& q : qgen.Workload()) {
    for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
      const auto expected = oracle_->Search(q, w.k, kind);
      for (const Searcher* s : searchers) {
        const auto actual = s->Search(q, w.k, kind);
        ASSERT_TRUE(SameDistances(actual, expected, 1e-7))
            << s->name() << " " << ToString(kind) << " {" << w << "}"
            << " expected " << expected.size() << " results, got "
            << actual.size();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperParameterGrid, SearchEquivalenceTest,
    ::testing::Values(
        // Effect of k (Figure 3 axis).
        WorkloadCase{1, 4, 3, 4.0, 1}, WorkloadCase{5, 4, 3, 4.0, 2},
        WorkloadCase{9, 4, 3, 4.0, 3}, WorkloadCase{25, 4, 3, 4.0, 4},
        // Effect of |Q| (Figure 4 axis).
        WorkloadCase{9, 1, 3, 4.0, 5}, WorkloadCase{9, 2, 3, 4.0, 6},
        WorkloadCase{9, 6, 3, 4.0, 7},
        // Effect of |q.Phi| (Figure 5 axis).
        WorkloadCase{9, 4, 1, 4.0, 8}, WorkloadCase{9, 4, 2, 4.0, 9},
        WorkloadCase{9, 4, 5, 4.0, 10},
        // Effect of delta(Q) (Figure 6 axis).
        WorkloadCase{9, 4, 3, 1.0, 11}, WorkloadCase{9, 4, 3, 8.0, 12},
        WorkloadCase{9, 4, 3, 15.0, 13}));

}  // namespace
}  // namespace gat
