// Ablation: the trajectory activity sketch (TAS). Varies the sketch width
// M (64·M bits per trajectory) on the LA and NY profiles, reporting sketch
// memory, the share of candidates the sketch passes on to the exact APL
// check, the false positives that check absorbs, and end-to-end time.
// Also includes the TAS-off configuration (every candidate pays an APL
// fetch).

#include <algorithm>
#include <cstdio>

#include "harness.h"

namespace gat::bench {
namespace {

void Run(const CityProfile& profile, const BenchProtocol& proto,
         BenchReport& report) {
  const Dataset dataset = GenerateCity(profile);
  auto wp = DefaultWorkload(/*seed=*/920);
  wp.activities_per_point = 4;  // harder activity constraints
  QueryGenerator qgen(dataset, wp);
  const auto queries = qgen.Workload();

  std::printf("\n=== TAS ablation: ATSQ on %s ===\n", profile.name.c_str());
  std::printf("%-10s%12s%12s%12s%14s%16s%12s\n", "config", "TAS bytes",
              "avg ms", "candidates", "passed (%)", "apl_rejected", "disk reads");
  for (const int m : {0, 1, 2, 4, 8, 16}) {  // 0 = TAS disabled
    GatConfig config;
    config.tas_width = std::max(1, m);
    const GatIndex index(dataset, config);
    GatSearchParams params;
    params.use_tas = m > 0;
    const GatSearcher searcher(dataset, index, params);
    const auto meas = MeasureWorkload(searcher, queries, 9, QueryKind::kAtsq,
                                      proto);
    const SearchStats& s = meas.totals;
    const uint64_t passed = s.candidates_retrieved - s.tas_pruned;
    const double passed_pct = 100.0 * static_cast<double>(passed) /
                              static_cast<double>(s.candidates_retrieved);
    char label[32];
    if (m == 0) {
      std::snprintf(label, sizeof(label), "TAS off");
    } else {
      std::snprintf(label, sizeof(label), "M=%d", m);
    }
    std::printf("%-10s%12zu%12.3f%12llu%8llu (%3.0f)%16llu%12llu\n", label,
                m == 0 ? size_t{0} : index.tas().MemoryBytes(), meas.avg_ms,
                static_cast<unsigned long long>(s.candidates_retrieved),
                static_cast<unsigned long long>(passed), passed_pct,
                static_cast<unsigned long long>(s.activity_rejected),
                static_cast<unsigned long long>(s.disk_reads));
    char point[128];
    std::snprintf(point, sizeof(point), "%s/ATSQ/GAT/tas=%s",
                  profile.name.c_str(), label);
    report.Add(point, meas, queries.size());
  }
}

void Main(const BenchProtocol& proto, BenchReport& report) {
  PrintRunBanner("Ablation", "TAS sketch: pass rate vs sketch width M", proto);
  Run(CityProfile::LosAngeles(ScaleFromEnv()), proto, report);
  Run(CityProfile::NewYork(ScaleFromEnv()), proto, report);
  std::printf(
      "\nReading: the sketch is a Bloom filter of 64*M bits per trajectory\n"
      "(8*M*N bytes, the paper's cost of M intervals). \"passed\" is the\n"
      "share of candidates it sends to the exact APL check, each one APL\n"
      "fetch (a disk read); apl_rejected counts its false positives. With\n"
      "the sketch off, every candidate is fetched.\n");
}

}  // namespace
}  // namespace gat::bench

int main(int argc, char** argv) {
  return gat::bench::BenchMain(argc, argv, "abl_tas",
                              gat::bench::Main);
}
