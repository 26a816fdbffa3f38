// Live snapshot reload measured end-to-end: query latency while a
// background task publishes new index generations in a loop.
//
// The serving setup is the storage bench's: a 4-shard mmap-served
// ShardedIndex over one shared BlockCache, queried through
// ShardedSearcher on a shared executor. What this bench adds is a
// *reloader* — a background thread that publishes equivalent
// generations via ShardedIndex::ReloadGeneration, alternating between
// two directories of byte-identical `shard-i-of-4.gats` files, while
// the measured batches run. A publication that rebuilt any shard
// instead of loading it would measure a different cost: fatal.
//
// What is measured and asserted:
//
//   * NY/ATSQ/reload=off: the quiescent reference — same serving stack,
//     no reloader. Its counters (and, same-machine, its p95) are the
//     baseline the live run is held against.
//   * NY/ATSQ/reload=live: the same workload under continuous
//     background reload. Deterministic work counters must be IDENTICAL
//     to reload=off — a hot swap to an equivalent snapshot is invisible
//     to the algorithm — and every per-query result is asserted
//     bit-identical to the unsharded in-memory reference while swaps
//     land mid-batch (fatal on divergence). The p95 ratio live/off is
//     printed; the serving bar is <= 1.25x at --threads 4 (wall-clock,
//     so a soft warning here; the committed-baseline diff gates the
//     counters).
//   * startup/reload-latency: wall-clock of one whole-generation
//     ReloadGeneration (partition + load + validate + swap) with the
//     executor-parallel CRC sweep — the cold path the reload work moved
//     off the serving threads.
//
// JSON: reload=live records carry the `shard_reloads` (generations
// published) and `invalidated_blocks` fields this bench owns (advisory
// in diffs — the reloader is wall-clock scheduled) plus the deterministic
// `index_pins` counter (queries x shards) every ShardedSearcher record
// reports.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "harness.h"

#include "gat/engine/executor.h"
#include "gat/index/snapshot.h"
#include "gat/shard/sharded_index.h"
#include "gat/shard/sharded_searcher.h"
#include "gat/util/stopwatch.h"

namespace gat::bench {
namespace {

constexpr uint32_t kShards = 4;

void Main(const BenchProtocol& proto, BenchReport& report) {
  PrintRunBanner("Live reload",
                 "query latency under continuous background snapshot "
                 "hot-swap (NY, 4 mmap-served shards)",
                 proto);
  const Dataset city = GenerateCity(CityProfile::NewYork(ScaleFromEnv()));
  QueryGenerator qgen(city, DefaultWorkload(/*seed=*/20130715));
  const auto queries = qgen.Workload();
  constexpr size_t kTopK = 9;
  constexpr QueryKind kKind = QueryKind::kAtsq;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("gat_live_reload_bench." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  Executor executor(proto.threads);
  ShardOptions options;
  options.num_shards = kShards;
  options.executor = &executor;
  options.snapshot_dir = (dir / "shards").string();
  options.mmap_disk_tier = true;
  options.cache_config.block_bytes = 1024;
  options.cache_config.capacity_bytes = 8ull << 20;
  ShardedIndex sharded(city, {}, options);
  if (sharded.shards_mmap_served() != kShards) {
    std::fprintf(stderr, "FATAL: %u/%u shards mmap-served\n",
                 sharded.shards_mmap_served(), kShards);
    std::exit(1);
  }

  // The reload sources: a second directory primed with byte-identical
  // copies of every shard snapshot — equivalent content, distinct
  // files — so answers are provably unchanged and any divergence under
  // swap is a reload bug, not a data change.
  const std::string dir_a = options.snapshot_dir;
  const std::string dir_b = (dir / "incoming").string();
  std::filesystem::create_directories(dir_b);
  for (uint32_t shard = 0; shard < kShards; ++shard) {
    const std::string to = ShardedIndex::SnapshotPath(dir_b, shard, kShards);
    std::error_code ec;
    std::filesystem::copy_file(
        ShardedIndex::SnapshotPath(dir_a, shard, kShards), to, ec);
    if (ec) {
      std::fprintf(stderr, "FATAL: cannot stage %s\n", to.c_str());
      std::exit(1);
    }
  }
  auto reload = [&](const std::string& from) {
    if (!sharded.ReloadGeneration(city, kShards, from, &executor) ||
        sharded.shards_loaded_from_snapshot() != kShards) {
      std::fprintf(stderr, "FATAL: reload from %s rebuilt a shard\n",
                   from.c_str());
      std::exit(1);
    }
  };

  // Unsharded in-memory reference for the bit-identity asserts.
  const GatIndex reference_index(city);
  const GatSearcher reference(city, reference_index);

  const ShardedSearcher searcher(sharded, {},
                                 proto.threads > 1 ? &executor : nullptr);

  // ------------------------------------------------------------ baseline
  const Measurement off = MeasureWorkload(searcher, queries, kTopK, kKind,
                                          proto);
  report.Add("NY/ATSQ/reload=off", off, queries.size(), kShards);

  // ------------------------------------------------- one reload, timed
  {
    Stopwatch timer;
    reload(dir_b);
    const double reload_ms = timer.ElapsedMillis();
    report.AddRaw("startup/reload-latency", reload_ms * 1e6, 0.0, 1, 1);
    std::printf("\none ReloadGeneration (load + validate + swap): %.2f ms\n",
                reload_ms);
  }

  // ----------------------------------------------- live: reload + serve
  const BlockCacheStats cache_before = sharded.block_cache()->Snapshot();
  const uint64_t reloads_before = sharded.generations_published();
  std::atomic<bool> stop{false};
  std::thread reloader([&] {
    // Alternate the two directories (dir_b serves now) — continuous, no
    // pacing: the worst case the 25% latency bar is meant to cover.
    uint64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      reload(n % 2 == 0 ? dir_a : dir_b);
      ++n;
    }
  });

  const Measurement live = MeasureWorkload(searcher, queries, kTopK, kKind,
                                           proto);

  // Mid-stream swap bit-identity: run extra engine batches while the
  // reloader keeps swapping and hold every answer against the
  // unsharded, unmapped reference.
  {
    const QueryEngine engine(searcher, EngineOptions{.executor = &executor});
    for (int round = 0; round < 3; ++round) {
      const BatchResult batch = engine.Run(queries, kTopK, kKind);
      for (size_t i = 0; i < queries.size(); ++i) {
        const ResultList want = reference.Search(queries[i], kTopK, kKind);
        if (batch.results[i] != want) {
          std::fprintf(stderr,
                       "FATAL: results diverged under live reload "
                       "(round %d, query %zu)\n",
                       round, i);
          std::exit(1);
        }
      }
    }
  }

  stop.store(true, std::memory_order_relaxed);
  reloader.join();

  const uint64_t shard_reloads =
      sharded.generations_published() - reloads_before;
  const BlockCacheStats cache_after = sharded.block_cache()->Snapshot();
  const uint64_t invalidated_blocks =
      cache_after.invalidated - cache_before.invalidated;
  Measurement live_tagged = live;
  live_tagged.fields = {{"shard_reloads", shard_reloads},
                        {"invalidated_blocks", invalidated_blocks}};
  report.Add("NY/ATSQ/reload=live", live_tagged, queries.size(), kShards);

  // Equivalent-snapshot swaps must be invisible to the algorithm: the
  // deterministic counters of the live run equal the quiescent run's.
  if (live.totals.candidates_retrieved != off.totals.candidates_retrieved ||
      live.totals.disk_reads != off.totals.disk_reads ||
      live.totals.index_pins != off.totals.index_pins) {
    std::fprintf(stderr, "FATAL: deterministic counters drifted under "
                         "live reload\n");
    std::exit(1);
  }

  std::printf("\nlive reload: %llu generations published behind the "
              "measured batches, %llu cache blocks invalidated, %llu files "
              "retired\n",
              static_cast<unsigned long long>(shard_reloads),
              static_cast<unsigned long long>(invalidated_blocks),
              static_cast<unsigned long long>(cache_after.files_retired -
                                              cache_before.files_retired));
  const double ratio = off.p95_ms > 0.0 ? live.p95_ms / off.p95_ms : 1.0;
  std::printf("p95 per query: %.3f ms quiescent -> %.3f ms under reload "
              "(%.2fx)\n",
              off.p95_ms, live.p95_ms, ratio);
  if (ratio > 1.25) {
    std::printf("note: p95 ratio above the 1.25x serving bar — wall-clock "
                "on a loaded machine; re-run quiet before reading much "
                "into it\n");
  } else {
    std::printf("p95 under continuous reload within the 1.25x serving "
                "bar\n");
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace gat::bench

int main(int argc, char** argv) {
  return gat::bench::BenchMain(argc, argv, "live_reload", gat::bench::Main);
}
