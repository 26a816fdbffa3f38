// Figure 8: effect of the grid partition granularity (d = 5..8, i.e.
// 32x32 .. 256x256 cells) on GAT's ATSQ/OATSQ running time and on the
// main-memory cost of the index.
//
// Paper shape: finer grids help (tighter lower bounds) with diminishing
// returns beyond 64x64; memory cost rises gently with the partition count
// since only ITL grows in the memory tier (low HICL levels live on disk).

#include <algorithm>
#include <cstdio>

#include "harness.h"

namespace gat::bench {
namespace {

void RunCity(const CityProfile& profile, const BenchProtocol& proto,
             BenchReport& report) {
  const Dataset dataset = GenerateCity(profile);
  QueryGenerator qgen(dataset, DefaultWorkload(/*seed=*/800));
  const auto queries = qgen.Workload();

  std::printf("\n=== Figure 8: partition granularity on %s ===\n",
              profile.name.c_str());
  std::printf("%-12s%14s%14s%18s\n", "#partition", "ATSQ(ms)", "OATSQ(ms)",
              "memory cost(MB)");
  for (const int depth : {5, 6, 7, 8}) {
    GatConfig config;
    config.depth = depth;
    config.memory_levels = std::min(depth, 6);
    const GatIndex index(dataset, config);
    const GatSearcher gat(dataset, index);
    const auto atsq =
        MeasureWorkload(gat, queries, 9, QueryKind::kAtsq, proto);
    const auto oatsq =
        MeasureWorkload(gat, queries, 9, QueryKind::kOatsq, proto);
    const double mem_mb =
        static_cast<double>(index.memory_breakdown().MainMemoryTotal()) /
        (1024.0 * 1024.0);
    char label[32];
    std::snprintf(label, sizeof(label), "%dx%d", 1 << depth, 1 << depth);
    std::printf("%-12s%14.3f%14.3f%18.3f\n", label, atsq.avg_ms, oatsq.avg_ms,
                mem_mb);
    char point[128];
    std::snprintf(point, sizeof(point), "%s/ATSQ/GAT/grid=%s",
                  profile.name.c_str(), label);
    report.Add(point, atsq, queries.size());
    std::snprintf(point, sizeof(point), "%s/OATSQ/GAT/grid=%s",
                  profile.name.c_str(), label);
    report.Add(point, oatsq, queries.size());
  }
}

void Main(const BenchProtocol& proto, BenchReport& report) {
  PrintRunBanner("Figure 8",
                 "GAT runtime + main-memory cost vs grid granularity", proto);
  const double scale = ScaleFromEnv();
  RunCity(CityProfile::LosAngeles(scale), proto, report);
  RunCity(CityProfile::NewYork(scale), proto, report);
}

}  // namespace
}  // namespace gat::bench

int main(int argc, char** argv) {
  return gat::bench::BenchMain(argc, argv, "fig8_granularity",
                              gat::bench::Main);
}
