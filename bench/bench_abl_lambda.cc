// Ablation: the candidate batch size lambda of Algorithm 1. Small batches
// re-evaluate the lower bound often (early termination, but bookkeeping
// overhead); large batches retrieve more candidates than necessary.

#include <cstdio>

#include "harness.h"

namespace gat::bench {
namespace {

void Run(const CityFixture& city, QueryKind kind, const BenchProtocol& proto,
         BenchReport& report) {
  QueryGenerator qgen(city.dataset(), DefaultWorkload(/*seed=*/930));
  const auto queries = qgen.Workload();
  std::printf("\n=== lambda ablation: %s on %s ===\n", ToString(kind).c_str(),
              city.name().c_str());
  std::printf("%-10s%12s%14s%12s\n", "lambda", "avg ms", "candidates",
              "rounds");
  for (const uint32_t lambda : {1u, 4u, 16u, 64u, 256u, 1024u}) {
    GatSearchParams params;
    params.lambda = lambda;
    const GatSearcher searcher(city.dataset(), city.index(), params);
    const auto m = MeasureWorkload(searcher, queries, 9, kind, proto);
    std::printf("%-10u%12.3f%14llu%12llu\n", lambda, m.avg_ms,
                static_cast<unsigned long long>(m.totals.candidates_retrieved),
                static_cast<unsigned long long>(m.totals.rounds));
    char point[128];
    std::snprintf(point, sizeof(point), "%s/%s/GAT/lambda=%u",
                  city.name().c_str(), ToString(kind).c_str(), lambda);
    report.Add(point, m, queries.size());
  }
}

void Main(const BenchProtocol& proto, BenchReport& report) {
  PrintRunBanner("Ablation", "candidate batch size lambda (Algorithm 1)",
                 proto);
  const CityFixture la(CityProfile::LosAngeles(ScaleFromEnv()));
  Run(la, QueryKind::kAtsq, proto, report);
  Run(la, QueryKind::kOatsq, proto, report);
}

}  // namespace
}  // namespace gat::bench

int main(int argc, char** argv) {
  return gat::bench::BenchMain(argc, argv, "abl_lambda",
                              gat::bench::Main);
}
