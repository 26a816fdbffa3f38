// Index tuning: how the GAT construction knobs trade memory for query
// latency — grid depth d (Figure 8), TAS sketch width M, the candidate
// batch size lambda, and the paper's memory-budget formula for the number
// of HICL levels kept in RAM.
//
// Build & run:   ./build/examples/index_tuning

#include <cstdio>

#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/index/gat_index.h"
#include "gat/search/gat_search.h"
#include "gat/util/stopwatch.h"

using namespace gat;

namespace {

double AvgQueryMs(const GatSearcher& searcher,
                  const std::vector<Query>& queries) {
  Stopwatch timer;
  for (const Query& q : queries) searcher.Atsq(q, 9);
  return timer.ElapsedMillis() / static_cast<double>(queries.size());
}

}  // namespace

int main() {
  const Dataset city = GenerateCity(CityProfile::LosAngeles(0.05));
  QueryWorkloadParams wp;
  wp.num_queries = 20;
  wp.seed = 7;
  QueryGenerator qgen(city, wp);
  const auto queries = qgen.Workload();

  std::printf("Grid depth sweep (Figure 8):\n");
  std::printf("%-10s%14s%20s\n", "grid", "avg ms", "main memory (KB)");
  for (int depth : {4, 5, 6, 7, 8}) {
    GatConfig config;
    config.depth = depth;
    config.memory_levels = std::min(depth, 6);
    const GatIndex index(city, config);
    const GatSearcher searcher(city, index);
    std::printf("%dx%-7d%14.3f%20zu\n", 1 << depth, 1 << depth,
                AvgQueryMs(searcher, queries),
                index.memory_breakdown().MainMemoryTotal() / 1024);
  }

  std::printf("\nTAS width sweep (sketch memory = 8*M*N bytes):\n");
  std::printf("%-6s%16s%18s\n", "M", "TAS bytes", "sketch prune rate");
  for (int m : {1, 2, 4, 8}) {
    GatConfig config;
    config.tas_width = m;
    const GatIndex index(city, config);
    const GatSearcher searcher(city, index);
    SearchStats total;
    for (const Query& q : queries) {
      SearchStats st;
      searcher.Atsq(q, 9, &st);
      st.elapsed_ms = 0;
      total += st;
    }
    const double rate =
        total.candidates_retrieved == 0
            ? 0.0
            : 100.0 * static_cast<double>(total.tas_pruned) /
                  static_cast<double>(total.candidates_retrieved);
    std::printf("%-6d%16zu%17.1f%%\n", m, index.tas().MemoryBytes(), rate);
  }

  std::printf("\nHICL memory-budget formula (Section IV):\n");
  const uint32_t vocab = city.num_distinct_activities();
  for (size_t budget_mb : {1, 4, 16, 64}) {
    const int h =
        Hicl::MemoryLevelsForBudget(budget_mb * 1024 * 1024, vocab, 8);
    std::printf("  budget %3zu MB, C=%u activities -> keep levels 1..%d in "
                "RAM\n",
                budget_mb, vocab, h);
  }
  return 0;
}
