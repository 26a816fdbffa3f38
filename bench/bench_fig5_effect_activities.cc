// Figure 5: effect of the number of activities per query location |q.Phi|
// (1..5).
//
// Paper shape: IL/IRT/GAT get cheaper with more demanded activities (fewer
// candidates survive activity filtering); RT is insensitive at retrieval
// but pays more refinement.

#include <cstdio>

#include "harness.h"

namespace gat::bench {
namespace {

void RunPanel(const CityFixture& city, QueryKind kind,
              const BenchProtocol& proto, BenchReport& report) {
  char title[128];
  std::snprintf(title, sizeof(title), "Figure 5: %s on %s",
                ToString(kind).c_str(), city.name().c_str());
  PrintPanelHeader(title, "|q.Phi|", city.searchers());
  for (const uint32_t acts : {1u, 2u, 3u, 4u, 5u}) {
    auto wp = DefaultWorkload(/*seed=*/500 + acts);
    wp.activities_per_point = acts;
    QueryGenerator qgen(city.dataset(), wp);
    const auto queries = qgen.Workload();
    std::vector<double> row;
    for (const Searcher* s : city.searchers()) {
      const auto m = MeasureWorkload(*s, queries, /*k=*/9, kind, proto);
      row.push_back(m.avg_ms);
      char point[128];
      std::snprintf(point, sizeof(point), "%s/%s/%s/phi=%u",
                    city.name().c_str(), ToString(kind).c_str(),
                    s->name().c_str(), acts);
      report.Add(point, m, queries.size());
    }
    PrintPanelRow(std::to_string(acts), row);
  }
}

void Main(const BenchProtocol& proto, BenchReport& report) {
  PrintRunBanner("Figure 5", "effect of |q.Phi| (k=9, |Q|=4, d=10km)", proto);
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
  return gat::bench::BenchMain(argc, argv, "fig5_effect_activities",
                              gat::bench::Main);
}
