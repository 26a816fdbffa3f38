// Figure 3: effect of the result count k on ATSQ and OATSQ running time,
// on the LA and NY datasets, for IL / RT / IRT / GAT.
//
// Paper shape to reproduce: GAT fastest by a wide margin (order of
// magnitude vs IL, several-fold vs RT/IRT); IL flat in k; the tree methods
// and GAT grow mildly with k.

#include <cstdio>

#include "harness.h"

namespace gat::bench {
namespace {

void RunPanel(const CityFixture& city, QueryKind kind,
              const BenchProtocol& proto, BenchReport& report) {
  char title[128];
  std::snprintf(title, sizeof(title), "Figure 3: %s on %s",
                ToString(kind).c_str(), city.name().c_str());
  PrintPanelHeader(title, "k", city.searchers());
  QueryGenerator qgen(city.dataset(), DefaultWorkload(/*seed=*/300));
  const auto queries = qgen.Workload();
  for (const size_t k : {5, 10, 15, 20, 25}) {
    std::vector<double> row;
    for (const Searcher* s : city.searchers()) {
      const auto m = MeasureWorkload(*s, queries, k, kind, proto);
      row.push_back(m.avg_ms);
      char point[128];
      std::snprintf(point, sizeof(point), "%s/%s/%s/k=%zu",
                    city.name().c_str(), ToString(kind).c_str(),
                    s->name().c_str(), k);
      report.Add(point, m, queries.size());
    }
    PrintPanelRow(std::to_string(k), row);
  }
}

void Main(const BenchProtocol& proto, BenchReport& report) {
  PrintRunBanner("Figure 3", "effect of k (Table-V defaults otherwise)",
                 proto);
  const double scale = ScaleFromEnv();
  const CityFixture la(CityProfile::LosAngeles(scale));
  const CityFixture ny(CityProfile::NewYork(scale));
  for (const auto* city : {&la, &ny}) {
    RunPanel(*city, QueryKind::kAtsq, proto, report);
    RunPanel(*city, QueryKind::kOatsq, proto, report);
  }
}

}  // namespace
}  // namespace gat::bench

int main(int argc, char** argv) {
  return gat::bench::BenchMain(argc, argv, "fig3_effect_k",
                              gat::bench::Main);
}
