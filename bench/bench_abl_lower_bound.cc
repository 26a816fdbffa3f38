// Ablation: the Algorithm-2 tighter lower bound vs the naive PQ-head bound
// the paper rejects in Section V-B. Measures retrieval rounds, candidates
// refined, and time — the tight bound should terminate the best-first loop
// earlier on both query kinds.

#include <cstdio>

#include "harness.h"

namespace gat::bench {
namespace {

void Run(const CityFixture& city, QueryKind kind, const BenchProtocol& proto,
         BenchReport& report) {
  QueryGenerator qgen(city.dataset(), DefaultWorkload(/*seed=*/910));
  const auto queries = qgen.Workload();

  std::printf("\n=== Lower-bound ablation: %s on %s ===\n",
              ToString(kind).c_str(), city.name().c_str());
  std::printf("%-22s%12s%14s%12s%12s\n", "bound", "avg ms", "candidates",
              "rounds", "cells");
  for (const bool tight : {true, false}) {
    GatSearchParams params;
    params.use_tight_lower_bound = tight;
    const GatSearcher searcher(city.dataset(), city.index(), params);
    const auto m = MeasureWorkload(searcher, queries, /*k=*/9, kind, proto);
    std::printf("%-22s%12.3f%14llu%12llu%12llu\n",
                tight ? "Algorithm 2 (tight)" : "PQ head (naive)", m.avg_ms,
                static_cast<unsigned long long>(m.totals.candidates_retrieved),
                static_cast<unsigned long long>(m.totals.rounds),
                static_cast<unsigned long long>(m.totals.nodes_popped));
    char point[128];
    std::snprintf(point, sizeof(point), "%s/%s/GAT/bound=%s",
                  city.name().c_str(), ToString(kind).c_str(),
                  tight ? "tight" : "naive");
    report.Add(point, m, queries.size());
  }
}

void Main(const BenchProtocol& proto, BenchReport& report) {
  PrintRunBanner("Ablation", "Algorithm-2 lower bound vs naive PQ-head bound",
                 proto);
  const CityFixture la(CityProfile::LosAngeles(ScaleFromEnv()));
  Run(la, QueryKind::kAtsq, proto, report);
  Run(la, QueryKind::kOatsq, proto, report);
}

}  // namespace
}  // namespace gat::bench

int main(int argc, char** argv) {
  return gat::bench::BenchMain(argc, argv, "abl_lower_bound",
                              gat::bench::Main);
}
