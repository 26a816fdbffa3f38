// Golden counters for the GAT search kernel: a fixed seeded city, a fixed
// query workload, and the exact top-k answers plus every work counter the
// kernel reports, at 1 and 2 shards. The values were recorded from the
// reference implementation; a kernel rewrite that changes any answer,
// any tie order in the best-first queue (nodes_popped, heap_pushes,
// rounds) or any validation decision fails here.
//
// The counters are digested in two groups. The activity sketch decides
// only which candidates pay an APL fetch, so it can move `tas_pruned`,
// `activity_rejected` and `disk_reads` (`sketch_digest`) but never the
// answers or the other six counters (`kernel_digest`): a sketch change
// re-records the first group and must leave the second untouched.
//
// On a mismatch the test prints the actual row in the same literal form
// as kGolden, so an intended re-baseline is a copy-paste — but an
// intended one only: these rows pin behaviour, not performance.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/shard/sharded_index.h"
#include "gat/shard/sharded_searcher.h"

namespace gat {
namespace {

constexpr size_t kTopK = 10;

struct GoldenRow {
  uint32_t shards;
  uint32_t lambda;         // GatSearchParams::lambda
  uint32_t nearest_cells;  // GatSearchParams::nearest_cells
  QueryKind kind;
  uint64_t candidates_retrieved;
  uint64_t tas_pruned;
  uint64_t activity_rejected;
  uint64_t mib_rejected;
  uint64_t distance_computations;
  uint64_t nodes_popped;
  uint64_t heap_pushes;
  uint64_t rounds;
  uint64_t disk_reads;
  /// FNV-1a over every query's top-k (trajectory ID, distance in
  /// micrometres), in result order.
  uint64_t results_digest;
  /// FNV-1a over every query's six sketch-independent counters
  /// (candidates_retrieved, mib_rejected, distance_computations,
  /// nodes_popped, heap_pushes, rounds), in workload order, so a shift
  /// between queries cannot hide in the sums above.
  uint64_t kernel_digest;
  /// The same over tas_pruned, activity_rejected and disk_reads: the
  /// counters the activity sketch's pass rate moves.
  uint64_t sketch_digest;

  bool operator==(const GoldenRow&) const = default;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {1, 64, 10, QueryKind::kAtsq, 3969, 2244, 15, 0, 1710, 6295, 7737, 57, 1883, 4221688619261975275u, 15181491921643417878u, 1616497161679812521u},
    {1, 64, 10, QueryKind::kOatsq, 5042, 3049, 15, 311, 1667, 11724, 13150, 74, 3818, 18265543774609140788u, 12062577161494390398u, 11710194262553237590u},
    {1, 2, 3, QueryKind::kAtsq, 3361, 1811, 15, 0, 1535, 3042, 4398, 414, 1708, 4221688619261975275u, 6021411744004834600u, 17176566184503900347u},
    {1, 2, 3, QueryKind::kOatsq, 4386, 2598, 15, 284, 1489, 7944, 9223, 665, 3435, 18265543774609140788u, 16389170569607578426u, 9770532480551375301u},
    {2, 64, 10, QueryKind::kAtsq, 5391, 3334, 17, 0, 2040, 16003, 18201, 82, 2373, 4221688619261975275u, 13223357772043766738u, 16555213671196287131u},
    {2, 64, 10, QueryKind::kOatsq, 7590, 5313, 23, 348, 1906, 34812, 36792, 119, 4499, 18265543774609140788u, 4582026803372571996u, 5826995334332854072u},
    {2, 2, 3, QueryKind::kAtsq, 4063, 2312, 16, 0, 1735, 8158, 10422, 798, 2066, 4221688619261975275u, 11667635671348698782u, 1265166014603331881u},
    {2, 2, 3, QueryKind::kOatsq, 6158, 4117, 22, 314, 1705, 24402, 26482, 1456, 4062, 18265543774609140788u, 10251997476286690886u, 8731338127659446990u},
};
// clang-format on

void Mix(uint64_t* h, uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    *h ^= (v >> (8 * byte)) & 0xFF;
    *h *= 1099511628211ull;
  }
}

std::string Render(const GoldenRow& r) {
  std::ostringstream os;
  os << "{" << r.shards << ", " << r.lambda << ", " << r.nearest_cells
     << ", QueryKind::"
     << (r.kind == QueryKind::kAtsq ? "kAtsq" : "kOatsq") << ", "
     << r.candidates_retrieved << ", " << r.tas_pruned << ", "
     << r.activity_rejected << ", " << r.mib_rejected << ", "
     << r.distance_computations << ", " << r.nodes_popped << ", "
     << r.heap_pushes << ", " << r.rounds << ", " << r.disk_reads << ", "
     << r.results_digest << "u, " << r.kernel_digest << "u, " << r.sketch_digest
     << "u},";
  return os.str();
}

GoldenRow RunWorkload(const ShardedIndex& index,
                      const std::vector<Query>& queries,
                      const GatSearchParams& params, QueryKind kind) {
  const ShardedSearcher searcher(index, params);
  GoldenRow row{index.num_shards(), params.lambda, params.nearest_cells, kind,
                0, 0, 0, 0, 0, 0, 0, 0, 0,
                14695981039346656037ull, 14695981039346656037ull,
                14695981039346656037ull};
  for (const Query& q : queries) {
    SearchStats st;
    const ResultList results = searcher.Search(q, kTopK, kind, &st);
    Mix(&row.results_digest, results.size());
    for (const SearchResult& r : results) {
      Mix(&row.results_digest, r.trajectory);
      Mix(&row.results_digest,
          static_cast<uint64_t>(std::llround(r.distance * 1e9)));
    }
    Mix(&row.kernel_digest, st.candidates_retrieved);
    Mix(&row.kernel_digest, st.mib_rejected);
    Mix(&row.kernel_digest, st.distance_computations);
    Mix(&row.kernel_digest, st.nodes_popped);
    Mix(&row.kernel_digest, st.heap_pushes);
    Mix(&row.kernel_digest, st.rounds);
    Mix(&row.sketch_digest, st.tas_pruned);
    Mix(&row.sketch_digest, st.activity_rejected);
    Mix(&row.sketch_digest, st.disk_reads);
    row.candidates_retrieved += st.candidates_retrieved;
    row.tas_pruned += st.tas_pruned;
    row.activity_rejected += st.activity_rejected;
    row.mib_rejected += st.mib_rejected;
    row.distance_computations += st.distance_computations;
    row.nodes_popped += st.nodes_popped;
    row.heap_pushes += st.heap_pushes;
    row.rounds += st.rounds;
    row.disk_reads += st.disk_reads;
  }
  return row;
}

TEST(SearchGolden, CountersAndAnswersArePinned) {
  // Default GatConfig: depth 8 with HICL levels 7-8 on the disk tier, so
  // disk_reads covers both HICL list fetches and APL fetches.
  const Dataset dataset = GenerateCity(CityProfile::Testing(600, 20131));
  QueryWorkloadParams wp;
  wp.num_queries = 20;
  wp.seed = 1304;
  const std::vector<Query> queries = QueryGenerator(dataset, wp).Workload();
  ASSERT_EQ(queries.size(), 20u);

  // The paper's defaults, then a small batch and a short cell list, where
  // retrieval rounds end every few pops and the Algorithm-2 walk is
  // truncated often: the setting most sensitive to the queue's tie order.
  const GatSearchParams settings[] = {
      {},
      {.lambda = 2, .nearest_cells = 3},
  };
  size_t row_index = 0;
  for (const uint32_t shards : {1u, 2u}) {
    const ShardedIndex index(dataset, {}, ShardOptions{.num_shards = shards});
    for (const GatSearchParams& params : settings) {
      for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
        const GoldenRow actual = RunWorkload(index, queries, params, kind);
        ASSERT_LT(row_index, std::size(kGolden));
        EXPECT_EQ(actual, kGolden[row_index]) << "actual: " << Render(actual);
        EXPECT_GT(actual.distance_computations, 0u);  // the workload bites
        ++row_index;
      }
    }
  }
  EXPECT_EQ(row_index, std::size(kGolden));
}

}  // namespace
}  // namespace gat
