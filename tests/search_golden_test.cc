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
// The tree baselines RT and IRT get the same kind of pin over the same
// city and queries (kTreeGolden): answers plus their seven work counters,
// summed and digested per query.
//
// On a mismatch the test prints the actual row in the same literal form
// as kGolden, so an intended re-baseline is a copy-paste — but an
// intended one only: these rows pin behaviour, not performance.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "gat/baselines/rt_search.h"
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

struct TreeGoldenRow {
  std::string_view searcher;  // Searcher::name()
  QueryKind kind;
  uint64_t candidates_retrieved;
  uint64_t activity_rejected;
  uint64_t mib_rejected;
  uint64_t distance_computations;
  uint64_t nodes_popped;
  uint64_t rounds;
  uint64_t disk_reads;
  /// As GoldenRow::results_digest.
  uint64_t results_digest;
  /// FNV-1a over every query's seven counters above, in that order and in
  /// workload order.
  uint64_t counter_digest;

  bool operator==(const TreeGoldenRow&) const = default;
};

// clang-format off
constexpr TreeGoldenRow kTreeGolden[] = {
    {"RT", QueryKind::kAtsq, 4377, 2656, 0, 1721, 26112, 408, 5823, 4221688619261975275u, 7075810468552254554u},
    {"RT", QueryKind::kOatsq, 5765, 3807, 323, 1635, 71424, 1116, 8719, 18265543774609140788u, 945090205274306509u},
    {"IRT", QueryKind::kAtsq, 3131, 1621, 0, 1510, 11840, 185, 4495, 4221688619261975275u, 4170660060917821429u},
    {"IRT", QueryKind::kOatsq, 4259, 2480, 276, 1503, 24576, 384, 6622, 18265543774609140788u, 4297760747637181000u},
};
// clang-format on

void Mix(uint64_t* h, uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    *h ^= (v >> (8 * byte)) & 0xFF;
    *h *= 1099511628211ull;
  }
}

void MixResults(uint64_t* h, const ResultList& results) {
  Mix(h, results.size());
  for (const SearchResult& r : results) {
    Mix(h, r.trajectory);
    Mix(h, static_cast<uint64_t>(std::llround(r.distance * 1e9)));
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
    MixResults(&row.results_digest, searcher.Search(q, kTopK, kind, &st));
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

std::string Render(const TreeGoldenRow& r) {
  std::ostringstream os;
  os << "{\"" << r.searcher << "\", QueryKind::"
     << (r.kind == QueryKind::kAtsq ? "kAtsq" : "kOatsq") << ", "
     << r.candidates_retrieved << ", " << r.activity_rejected << ", "
     << r.mib_rejected << ", " << r.distance_computations << ", "
     << r.nodes_popped << ", " << r.rounds << ", " << r.disk_reads << ", "
     << r.results_digest << "u, " << r.counter_digest << "u},";
  return os.str();
}

TreeGoldenRow RunWorkload(const Searcher& searcher,
                          const std::vector<Query>& queries, QueryKind kind,
                          std::string_view name) {
  TreeGoldenRow row{name, kind, 0, 0, 0, 0, 0, 0, 0,
                    14695981039346656037ull, 14695981039346656037ull};
  for (const Query& q : queries) {
    SearchStats st;
    MixResults(&row.results_digest, searcher.Search(q, kTopK, kind, &st));
    const uint64_t counters[] = {st.candidates_retrieved, st.activity_rejected,
                                 st.mib_rejected, st.distance_computations,
                                 st.nodes_popped, st.rounds, st.disk_reads};
    for (const uint64_t c : counters) Mix(&row.counter_digest, c);
    row.candidates_retrieved += st.candidates_retrieved;
    row.activity_rejected += st.activity_rejected;
    row.mib_rejected += st.mib_rejected;
    row.distance_computations += st.distance_computations;
    row.nodes_popped += st.nodes_popped;
    row.rounds += st.rounds;
    row.disk_reads += st.disk_reads;
  }
  return row;
}

/// The golden city and its query workload.
Dataset GoldenCity() { return GenerateCity(CityProfile::Testing(600, 20131)); }

std::vector<Query> GoldenQueries(const Dataset& dataset) {
  QueryWorkloadParams wp;
  wp.num_queries = 20;
  wp.seed = 1304;
  return QueryGenerator(dataset, wp).Workload();
}

TEST(SearchGolden, CountersAndAnswersArePinned) {
  // Default GatConfig: depth 8 with HICL levels 7-8 on the disk tier, so
  // disk_reads covers both HICL list fetches and APL fetches.
  const Dataset dataset = GoldenCity();
  const std::vector<Query> queries = GoldenQueries(dataset);
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

TEST(SearchGolden, TreeBaselineCountersAndAnswersArePinned) {
  // The constructor defaults: 64 points per round, 32 entries per node.
  const Dataset dataset = GoldenCity();
  const std::vector<Query> queries = GoldenQueries(dataset);
  ASSERT_EQ(queries.size(), 20u);
  const RtSearcher rt(dataset);
  const IrtSearcher irt(dataset);
  size_t row_index = 0;
  for (const Searcher* searcher : {static_cast<const Searcher*>(&rt),
                                   static_cast<const Searcher*>(&irt)}) {
    const std::string name = searcher->name();
    for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
      const TreeGoldenRow actual = RunWorkload(*searcher, queries, kind, name);
      ASSERT_LT(row_index, std::size(kTreeGolden));
      EXPECT_EQ(actual, kTreeGolden[row_index])
          << "actual: " << Render(actual);
      EXPECT_GT(actual.distance_computations, 0u);  // the workload bites
      ++row_index;
    }
  }
  EXPECT_EQ(row_index, std::size(kTreeGolden));
}

}  // namespace
}  // namespace gat
