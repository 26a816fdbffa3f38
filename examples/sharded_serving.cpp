// Sharded serving on ONE shared executor: the production-shaped path.
//
// A serving process has three kinds of work — index builds / snapshot
// loads at startup (or during a live rebuild), per-query shard fan-out,
// and concurrent query batches. All three run as tasks on a single
// Executor here, so the process owns exactly one thread set no matter
// what it is doing.
//
// First run (cold): the city dataset is partitioned round-robin into 4
// shards, a GAT index is built per shard as executor tasks, and every
// shard is snapshotted into ./gat_snapshots/. Second run (warm): the
// indexes are restored from the snapshots instead of rebuilt — with the
// structural validation of the big sections fanned out on the same
// pool. Either way, each query fans out across the shards as sibling
// tasks and the merged top-k is bit-identical to a single monolithic
// index.
//
// Build & run:   ./build/examples/sharded_serving   (run it twice!)

#include <cstdio>
#include <thread>
#include <vector>

#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/executor.h"
#include "gat/engine/query_engine.h"
#include "gat/shard/sharded_index.h"
#include "gat/shard/sharded_searcher.h"

int main() {
  using namespace gat;

  // The one pool everything below shares.
  Executor executor(4);

  // A small synthetic Los Angeles (see src/gat/datagen). In a real
  // deployment the dataset would come from LoadBinary/LoadText.
  const Dataset city = GenerateCity(CityProfile::LosAngeles(/*scale=*/0.02));
  std::printf("dataset: %zu trajectories, %u distinct activities\n",
              city.size(), city.num_distinct_activities());

  ShardOptions options;
  options.num_shards = 4;
  options.snapshot_dir = "gat_snapshots";  // self-priming cache
  options.executor = &executor;            // pool-shared build/load
  const ShardedIndex sharded(city, GatConfig{}, options);
  std::printf(
      "startup: %u/%u shards restored from '%s' (%s) in %.3f s\n",
      sharded.shards_loaded_from_snapshot(), sharded.num_shards(),
      options.snapshot_dir.c_str(),
      sharded.shards_loaded_from_snapshot() == sharded.num_shards()
          ? "warm start"
          : "cold start — run again for a warm one",
      sharded.build_seconds());
  const auto footprint = sharded.memory_breakdown();
  std::printf("footprint: %s\n", footprint.ToString().c_str());

  // Serve: the searcher fans each query across the shards on the shared
  // pool, and the engine runs batches on it too — ShardedSearcher is a
  // regular Searcher, so the two compose (nested task submission).
  const ShardedSearcher searcher(sharded, {}, &executor);
  const QueryEngine engine(searcher, EngineOptions{.executor = &executor});

  QueryWorkloadParams wp;
  wp.num_queries = 8;
  wp.seed = 2013;
  QueryGenerator qgen(city, wp);
  const auto queries = qgen.Workload();

  // Two concurrent callers — batches pipeline on the executor instead
  // of serializing behind a lock; each batch's results stay in query
  // order and bit-identical to a solo run.
  BatchResult batch, shadow;
  std::thread second_caller(
      [&] { shadow = engine.Run(queries, /*k=*/3, QueryKind::kOatsq); });
  batch = engine.Run(queries, /*k=*/3, QueryKind::kAtsq);
  second_caller.join();

  std::printf("\nbatch of %zu ATSQ queries (plus a concurrent OATSQ batch) "
              "on %u shared workers: %.1f ms\n",
              queries.size(), engine.threads(), batch.wall_ms);
  for (size_t i = 0; i < batch.results.size(); ++i) {
    std::printf("  q%zu top-3:", i);
    for (const auto& r : batch.results[i]) {
      std::printf("  Tr%u (%.3f km)", r.trajectory, r.distance);
    }
    std::printf("\n");
  }
  std::printf("\ncounters: %s\n", batch.totals.ToString().c_str());
  std::printf("concurrent OATSQ batch answered %zu queries in the gaps\n",
              shadow.results.size());
  return 0;
}
