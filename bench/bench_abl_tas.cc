// Ablation: the trajectory activity sketch (TAS). Varies the interval
// count M, reporting sketch memory, pruning rate (candidates rejected
// without touching the disk-tier APL), the residual false-positive rate
// that the exact APL check absorbs, and end-to-end time. Also includes the
// TAS-off configuration (every candidate pays an APL disk read).

#include <algorithm>
#include <cstdio>

#include "harness.h"

namespace gat::bench {
namespace {

void Main(const BenchProtocol& proto, BenchReport& report) {
  PrintRunBanner("Ablation", "TAS sketch: pruning power vs interval count M",
                 proto);
  const Dataset dataset = GenerateCity(CityProfile::LosAngeles(ScaleFromEnv()));
  auto wp = DefaultWorkload(/*seed=*/920);
  wp.activities_per_point = 4;  // harder activity constraints
  QueryGenerator qgen(dataset, wp);
  const auto queries = qgen.Workload();

  std::printf("%-14s%14s%12s%14s%16s%12s\n", "config", "TAS bytes", "avg ms",
              "tas_pruned", "apl_rejected", "disk reads");
  for (const int m : {0, 1, 2, 4, 8, 16}) {  // 0 = TAS disabled
    GatConfig config;
    config.tas_intervals = std::max(1, m);
    const GatIndex index(dataset, config);
    GatSearchParams params;
    params.use_tas = m > 0;
    const GatSearcher searcher(dataset, index, params);
    const auto meas = MeasureWorkload(searcher, queries, 9, QueryKind::kAtsq,
                                      proto);
    char label[32];
    if (m == 0) {
      std::snprintf(label, sizeof(label), "TAS off");
    } else {
      std::snprintf(label, sizeof(label), "M=%d", m);
    }
    std::printf("%-14s%14zu%12.3f%14llu%16llu%12llu\n", label,
                m == 0 ? size_t{0} : index.tas().MemoryBytes(), meas.avg_ms,
                static_cast<unsigned long long>(meas.totals.tas_pruned),
                static_cast<unsigned long long>(meas.totals.activity_rejected),
                static_cast<unsigned long long>(meas.totals.disk_reads));
    char point[128];
    std::snprintf(point, sizeof(point), "LA/ATSQ/GAT/tas=%s", label);
    report.Add(point, meas, queries.size());
  }
  std::printf(
      "\nReading: larger M -> compacter intervals -> more candidates pruned\n"
      "before the (simulated) disk-resident APL is touched; memory cost is\n"
      "8*M*N bytes as in Section IV.\n");
}

}  // namespace
}  // namespace gat::bench

int main(int argc, char** argv) {
  return gat::bench::BenchMain(argc, argv, "abl_tas",
                              gat::bench::Main);
}
