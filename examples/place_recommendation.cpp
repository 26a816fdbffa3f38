// Place recommendation: find users with similar activity patterns around
// the places a user frequents, comparing the GAT index against the three
// baseline search strategies of the paper (they must return identical
// distances — only the work they do differs).
//
// Each method's workload runs through the QueryEngine (gat/engine): a
// batch's queries run as tasks on a shared executor and their stats
// merge into one SearchStats — same results as a serial loop, a
// fraction of the wall-clock.
//
// Build & run:   ./build/examples/place_recommendation [threads]

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "gat/baselines/il_search.h"
#include "gat/baselines/rt_search.h"
#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/query_engine.h"
#include "gat/index/gat_index.h"
#include "gat/search/gat_search.h"

using namespace gat;

int main(int argc, char** argv) {
  const int requested = argc > 1 ? std::atoi(argv[1]) : 4;
  if (requested < 1) {
    std::fprintf(stderr, "usage: %s [threads>=1]\n", argv[0]);
    return 2;
  }
  const uint32_t threads = static_cast<uint32_t>(requested);
  const Dataset city = GenerateCity(CityProfile::LosAngeles(0.05));
  std::printf("City: %zu trajectories; %u engine threads\n", city.size(),
              threads);

  const GatIndex index(city);
  const GatSearcher gat(city, index);
  const IlSearcher il(city);
  const RtSearcher rt(city);
  const IrtSearcher irt(city);
  const std::vector<const Searcher*> searchers = {&gat, &il, &rt, &irt};
  // One thread runs each batch inline, in query order.
  std::unique_ptr<Executor> executor;
  if (threads > 1) executor = std::make_unique<Executor>(threads);

  QueryWorkloadParams wp;
  wp.num_queries = 10;
  wp.seed = 2013;
  QueryGenerator qgen(city, wp);
  const auto queries = qgen.Workload();

  std::printf("\n%-6s%14s%16s%14s%12s\n", "method", "avg ms/query",
              "candidates", "dist comps", "disk reads");
  std::vector<ResultList> reference;
  for (const Searcher* s : searchers) {
    QueryEngine engine(*s, EngineOptions{.executor = executor.get()});
    const BatchResult batch = engine.Run(queries, 9, QueryKind::kAtsq);
    if (s == &gat) {
      reference = batch.results;
    } else {
      for (size_t i = 0; i < queries.size(); ++i) {
        if (!SameDistances(batch.results[i], reference[i], 1e-7)) {
          std::printf("!! %s disagrees with GAT on query %zu\n",
                      s->name().c_str(), i);
        }
      }
    }
    std::printf(
        "%-6s%14.3f%16llu%14llu%12llu\n", s->name().c_str(),
        batch.wall_ms / queries.size(),
        static_cast<unsigned long long>(batch.totals.candidates_retrieved),
        static_cast<unsigned long long>(batch.totals.distance_computations),
        static_cast<unsigned long long>(batch.totals.disk_reads));
  }

  std::printf(
      "\nAll four methods return the same top-k distances; they differ in\n"
      "how many candidates they touch — the entire subject of the paper's\n"
      "evaluation (Section VII).\n");
  return 0;
}
