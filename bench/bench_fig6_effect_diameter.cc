// Figure 6: effect of the query diameter delta(Q), 5-50 km.
//
// Paper shape: IL flat (no spatial awareness); RT/IRT/GAT degrade as the
// query spreads (candidates around each location stop overlapping).

#include <cstdio>

#include "harness.h"

namespace gat::bench {
namespace {

void RunPanel(const CityFixture& city, QueryKind kind,
              const BenchProtocol& proto, BenchReport& report) {
  char title[128];
  std::snprintf(title, sizeof(title), "Figure 6: %s on %s",
                ToString(kind).c_str(), city.name().c_str());
  PrintPanelHeader(title, "delta(Q)", city.searchers());
  for (const double diameter : {5.0, 10.0, 20.0, 30.0, 50.0}) {
    auto wp = DefaultWorkload(/*seed=*/600 + static_cast<uint64_t>(diameter));
    wp.diameter_km = diameter;
    QueryGenerator qgen(city.dataset(), wp);
    const auto queries = qgen.Workload();
    std::vector<double> row;
    for (const Searcher* s : city.searchers()) {
      const auto m = MeasureWorkload(*s, queries, /*k=*/9, kind, proto);
      row.push_back(m.avg_ms);
      char point[128];
      std::snprintf(point, sizeof(point), "%s/%s/%s/delta=%.0fkm",
                    city.name().c_str(), ToString(kind).c_str(),
                    s->name().c_str(), diameter);
      report.Add(point, m, queries.size());
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%.0fkm", diameter);
    PrintPanelRow(label, row);
  }
}

void Main(const BenchProtocol& proto, BenchReport& report) {
  PrintRunBanner("Figure 6", "effect of delta(Q) (k=9, |Q|=4, |q.Phi|=3)",
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
  return gat::bench::BenchMain(argc, argv, "fig6_effect_diameter",
                              gat::bench::Main);
}
