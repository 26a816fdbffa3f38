// Figure 4: effect of the number of query locations |Q| (2..6).
//
// Paper shape: RT/IRT/GAT cost grows with |Q| (more candidate streams);
// IL gets *faster* for ATSQ (more demanded activities -> fewer candidates)
// but slower for OATSQ (Dmom DP cost grows with |Q|).

#include <cstdio>

#include "harness.h"

namespace gat::bench {
namespace {

void RunPanel(const CityFixture& city, QueryKind kind,
              const BenchProtocol& proto, BenchReport& report) {
  char title[128];
  std::snprintf(title, sizeof(title), "Figure 4: %s on %s",
                ToString(kind).c_str(), city.name().c_str());
  PrintPanelHeader(title, "|Q|", city.searchers());
  for (const uint32_t num_points : {2u, 3u, 4u, 5u, 6u}) {
    auto wp = DefaultWorkload(/*seed=*/400 + num_points);
    wp.num_query_points = num_points;
    QueryGenerator qgen(city.dataset(), wp);
    const auto queries = qgen.Workload();
    std::vector<double> row;
    for (const Searcher* s : city.searchers()) {
      const auto m = MeasureWorkload(*s, queries, /*k=*/9, kind, proto);
      row.push_back(m.avg_ms);
      char point[128];
      std::snprintf(point, sizeof(point), "%s/%s/%s/Q=%u",
                    city.name().c_str(), ToString(kind).c_str(),
                    s->name().c_str(), num_points);
      report.Add(point, m, queries.size());
    }
    PrintPanelRow(std::to_string(num_points), row);
  }
}

void Main(const BenchProtocol& proto, BenchReport& report) {
  PrintRunBanner("Figure 4", "effect of |Q| (k=9, |q.Phi|=3, d=10km)", proto);
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
  return gat::bench::BenchMain(argc, argv, "fig4_effect_qsize",
                              gat::bench::Main);
}
