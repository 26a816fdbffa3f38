// Cold-start serving from mmap-ed snapshots: the out-of-core path.
//
// A restarted serving process should answer its first query before it
// has "loaded the index" in any traditional sense. Here the sharded
// snapshot directory is mmap-ed instead of deserialized: the
// disk-resident components (all APL postings, the deep HICL levels)
// stay in the files as zero-copy views and are read page-granularly
// through one shared BlockCache, while only the small RAM tier (ITL,
// TAS, high HICL levels) is materialized.
//
// First run (cold): shards are built, snapshotted, and immediately
// re-served from their mappings. Second run (warm): the mappings load
// directly — run it twice and compare the startup line.
//
// The demo then exercises the live-operations path: serve a batch,
// publish an equivalent generation from a second primed snapshot
// directory with ShardedIndex::ReloadGeneration (no drain — in-flight
// readers pin the old generation, whose cache blocks are purged once
// it retires), and serve the same batch again to show the answers are
// bit-identical across the swap.
//
// Build & run:   ./build/examples/cold_start_serving   (run it twice!)

#include <cstdio>
#include <filesystem>

#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/executor.h"
#include "gat/engine/query_engine.h"
#include "gat/shard/sharded_index.h"
#include "gat/shard/sharded_searcher.h"
#include "gat/storage/block_cache.h"
#include "gat/util/stopwatch.h"

int main() {
  using namespace gat;

  Executor executor(4);
  const Dataset city = GenerateCity(CityProfile::LosAngeles(/*scale=*/0.02));
  std::printf("dataset: %zu trajectories, %u distinct activities\n",
              city.size(), city.num_distinct_activities());

  Stopwatch startup;
  ShardOptions options;
  options.num_shards = 4;
  options.snapshot_dir = "gat_snapshots_mmap";
  options.executor = &executor;
  options.mmap_disk_tier = true;                     // the storage subsystem
  options.cache_config.capacity_bytes = 8ull << 20;  // shared across shards
  options.cache_config.block_bytes = 4096;
  ShardedIndex sharded(city, GatConfig{}, options);  // mutable: reloaded
  const double startup_ms = startup.ElapsedMillis();

  const auto footprint = sharded.memory_breakdown();
  std::printf(
      "startup: %u/%u shards mmap-served (%s) in %.2f ms\n"
      "resident: %zu B main-memory tier; %zu B disk tier stays in the "
      "mappings\n",
      sharded.shards_mmap_served(), sharded.num_shards(),
      sharded.shards_loaded_from_snapshot() == sharded.num_shards()
          ? "warm start"
          : "cold start — run again for a warm one",
      startup_ms, footprint.MainMemoryTotal(), footprint.DiskTotal());

  // Serving: shard fan-out + batch pipelining on one pool. The searcher
  // pins the current generation per query, so it stays valid across the
  // generation swap below.
  const ShardedSearcher searcher(sharded, {}, &executor);
  const QueryEngine engine(searcher, EngineOptions{.executor = &executor});

  QueryWorkloadParams wp;
  wp.num_queries = 8;
  wp.seed = 2013;
  QueryGenerator qgen(city, wp);
  const auto queries = qgen.Workload();

  // Time-to-first-query: startup plus one answered query.
  Stopwatch first_query;
  const std::vector<Query> first(queries.begin(), queries.begin() + 1);
  (void)engine.Run(first, /*k=*/3, QueryKind::kAtsq);
  std::printf("time-to-first-query: %.2f ms startup + %.2f ms query\n",
              startup_ms, first_query.ElapsedMillis());

  const BlockCache& cache = *sharded.block_cache();
  const BlockCacheStats batch_before = cache.Snapshot();
  const BatchResult batch = engine.Run(queries, /*k=*/3, QueryKind::kAtsq);
  const BlockCacheStats batch_after = cache.Snapshot();
  std::printf("\nbatch of %zu queries on %u shared workers: %.1f ms\n",
              queries.size(), batch.threads_used, batch.wall_ms);
  for (size_t i = 0; i < batch.results.size(); ++i) {
    std::printf("  q%zu top-3:", i);
    for (const auto& r : batch.results[i]) {
      std::printf("  Tr%u (%.3f km)", r.trajectory, r.distance);
    }
    std::printf("\n");
  }

  std::printf("\ncounters: %s\n", batch.totals.ToString().c_str());
  const uint64_t hits = batch_after.hits - batch_before.hits;
  const uint64_t misses = batch_after.misses - batch_before.misses;
  std::printf(
      "block cache: %.1f%% hit rate (%llu hits / %llu misses), "
      "%llu evictions, %u B blocks\n",
      100.0 * CacheHitRate(hits, hits + misses),
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses),
      static_cast<unsigned long long>(batch_after.evictions -
                                      batch_before.evictions),
      cache.block_bytes());

  // Live reload: publish an equivalent copy of every shard snapshot as
  // a new generation while the process keeps serving. A deployment
  // points this at freshly produced snapshots; the mechanics — validate
  // off the serving path, atomic swap, drain-then-invalidate — are the
  // same.
  std::printf("\n--- generation swap: serve -> reload -> serve ---\n");
  const uint32_t shards = sharded.num_shards();
  const std::string incoming = options.snapshot_dir + "/incoming";
  std::error_code ec;
  std::filesystem::create_directories(incoming, ec);
  for (uint32_t shard = 0; shard < shards && !ec; ++shard) {
    std::filesystem::copy_file(
        ShardedIndex::SnapshotPath(options.snapshot_dir, shard, shards),
        ShardedIndex::SnapshotPath(incoming, shard, shards),
        std::filesystem::copy_options::overwrite_existing, ec);
  }
  const BlockCacheStats cache_before = cache.Snapshot();
  Stopwatch reload_timer;
  if (ec || !sharded.ReloadGeneration(city, shards, incoming, &executor)) {
    std::printf("reload failed: the old generation keeps serving\n");
    return 1;
  }
  const BlockCacheStats cache_after = cache.Snapshot();
  std::printf(
      "published generation %llu (%u/%u shards from snapshot) in %.2f ms; "
      "%llu cached blocks of the retired mappings invalidated\n",
      static_cast<unsigned long long>(sharded.generation_number()),
      sharded.shards_loaded_from_snapshot(), shards,
      reload_timer.ElapsedMillis(),
      static_cast<unsigned long long>(cache_after.invalidated -
                                      cache_before.invalidated));

  const BatchResult after = engine.Run(queries, /*k=*/3, QueryKind::kAtsq);
  bool identical = after.results.size() == batch.results.size();
  for (size_t i = 0; identical && i < after.results.size(); ++i) {
    identical = after.results[i] == batch.results[i];
  }
  std::printf("batch re-run across the swap: results %s\n",
              identical ? "bit-identical (equivalent snapshot, as promised)"
                        : "DIVERGED — this is a bug");
  return identical ? 0 : 1;
}
