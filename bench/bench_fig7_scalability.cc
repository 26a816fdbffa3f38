// Figure 7: scalability in the dataset size |D| — the paper samples the NY
// dataset down to 10K..50K trajectories. At bench scale the fractions are
// identical (20%..100% of the scaled NY dataset).
//
// Paper shape: all methods grow (sub)linearly; GAT scales best.

#include <cstdio>
#include <numeric>

#include "harness.h"

#include "gat/util/rng.h"

namespace gat::bench {
namespace {

void Main(const BenchProtocol& proto, BenchReport& report) {
  PrintRunBanner("Figure 7", "scalability in |D| (NY subsets, defaults)",
                 proto);
  const double scale = ScaleFromEnv();
  const Dataset full = GenerateCity(CityProfile::NewYork(scale));

  // Pre-shuffle trajectory IDs once so subsets are nested (10K ⊂ 20K ⊂ ...),
  // like sampling a growing crawl.
  std::vector<TrajectoryId> order(full.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(7777);
  rng.Shuffle(order);

  std::vector<std::unique_ptr<CityFixture>> fixtures;
  std::vector<std::string> labels;
  for (const double fraction : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    const size_t count = static_cast<size_t>(full.size() * fraction);
    std::vector<TrajectoryId> ids(order.begin(), order.begin() + count);
    char label[64];
    std::snprintf(label, sizeof(label), "%zu", count);
    labels.push_back(label);
    fixtures.push_back(std::make_unique<CityFixture>(
        std::string("NY-") + label, full.Sample(ids)));
  }

  for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
    char title[128];
    std::snprintf(title, sizeof(title), "Figure 7: %s, NY subsets",
                  ToString(kind).c_str());
    PrintPanelHeader(title, "|D|", fixtures.front()->searchers());
    for (size_t i = 0; i < fixtures.size(); ++i) {
      QueryGenerator qgen(fixtures[i]->dataset(),
                          DefaultWorkload(/*seed=*/700 + i));
      const auto queries = qgen.Workload();
      std::vector<double> row;
      for (const Searcher* s : fixtures[i]->searchers()) {
        const auto m = MeasureWorkload(*s, queries, /*k=*/9, kind, proto);
        row.push_back(m.avg_ms);
        char point[128];
        std::snprintf(point, sizeof(point), "%s/%s/%s",
                      fixtures[i]->name().c_str(), ToString(kind).c_str(),
                      s->name().c_str());
        report.Add(point, m, queries.size());
      }
      PrintPanelRow(labels[i], row);
    }
  }
}

}  // namespace
}  // namespace gat::bench

int main(int argc, char** argv) {
  return gat::bench::BenchMain(argc, argv, "fig7_scalability",
                              gat::bench::Main);
}
