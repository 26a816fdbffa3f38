// Golden counters for the GAT search kernel: a fixed seeded city, a fixed
// query workload, and the exact top-k answers plus every work counter the
// kernel reports, at 1 and 2 shards. The values were recorded from the
// reference implementation; a kernel rewrite that changes any answer,
// any tie order in the best-first queue (nodes_popped, heap_pushes,
// rounds) or any validation decision fails here.
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
  /// FNV-1a over every query's nine counters, in workload order, so a
  /// shift between queries cannot hide in the sums above.
  uint64_t counters_digest;

  bool operator==(const GoldenRow&) const = default;
};

// clang-format off
constexpr GoldenRow kGolden[] = {
    {1, 64, 10, QueryKind::kAtsq, 3969, 585, 1674, 0, 1710, 6295, 7737, 57, 3542, 4221688619261975275u, 12476141822482249930u},
    {1, 64, 10, QueryKind::kOatsq, 5042, 883, 2181, 311, 1667, 11724, 13150, 74, 5984, 18265543774609140788u, 2592762725622867815u},
    {1, 2, 3, QueryKind::kAtsq, 3361, 422, 1404, 0, 1535, 3042, 4398, 414, 3097, 4221688619261975275u, 1767493733661804932u},
    {1, 2, 3, QueryKind::kOatsq, 4386, 732, 1881, 284, 1489, 7944, 9223, 665, 5301, 18265543774609140788u, 18110174375221474305u},
    {2, 64, 10, QueryKind::kAtsq, 5391, 963, 2388, 0, 2040, 16003, 18201, 82, 4744, 4221688619261975275u, 14160782196008095231u},
    {2, 64, 10, QueryKind::kOatsq, 7590, 1664, 3672, 348, 1906, 34812, 36792, 119, 8148, 18265543774609140788u, 2926365944022460262u},
    {2, 2, 3, QueryKind::kAtsq, 4063, 578, 1750, 0, 1735, 8158, 10422, 798, 3800, 4221688619261975275u, 1796128362569942094u},
    {2, 2, 3, QueryKind::kOatsq, 6158, 1220, 2919, 314, 1705, 24402, 26482, 1456, 6959, 18265543774609140788u, 638193381787567654u},
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
     << r.results_digest << "u, " << r.counters_digest << "u},";
  return os.str();
}

GoldenRow RunWorkload(const ShardedIndex& index,
                      const std::vector<Query>& queries,
                      const GatSearchParams& params, QueryKind kind) {
  const ShardedSearcher searcher(index, params);
  GoldenRow row{index.num_shards(), params.lambda, params.nearest_cells, kind,
                0, 0, 0, 0, 0, 0, 0, 0, 0,
                14695981039346656037ull, 14695981039346656037ull};
  for (const Query& q : queries) {
    SearchStats st;
    const ResultList results = searcher.Search(q, kTopK, kind, &st);
    Mix(&row.results_digest, results.size());
    for (const SearchResult& r : results) {
      Mix(&row.results_digest, r.trajectory);
      Mix(&row.results_digest,
          static_cast<uint64_t>(std::llround(r.distance * 1e9)));
    }
    const uint64_t counters[] = {
        st.candidates_retrieved, st.tas_pruned,   st.activity_rejected,
        st.mib_rejected,         st.distance_computations,
        st.nodes_popped,         st.heap_pushes,  st.rounds,
        st.disk_reads};
    for (const uint64_t c : counters) Mix(&row.counters_digest, c);
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
