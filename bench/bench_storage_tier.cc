// The storage subsystem (gat/storage) measured end-to-end: mmap-backed
// snapshot serving vs the default heap-resident index.
//
// What is measured and asserted, all over the same NY workload:
//
//   * NY/ATSQ/simulated: the reference — the built index, heap-resident,
//     disk reads only counted. Its deterministic counters gate regressions.
//   * equivalence: the same index loaded with a block cache (mapped)
//     must answer every query bit-identically AND with the *same
//     logical disk_reads* —
//     the mmap tier changes what a read physically does (page-granular
//     block I/O + CRC verify through the block cache), never how many
//     the algorithm performs. Asserted per query, fatal on divergence.
//   * mmap/cache=1-N/...: the cache sweep, thrash -> fully resident.
//     Budgets are fractions of the snapshot file so the sweep scales
//     with GAT_BENCH_SCALE. Block hit rate must rise monotonically with
//     the budget (LRU inclusion; hard-asserted at --threads 1 where the
//     access sequence is deterministic) and avg_ms falls as misses —
//     the real reads — disappear. At every budget, down to the
//     thrash-sized file/64, logical disk_reads must equal the
//     heap-resident reference (fatal otherwise): residency changes what a read
//     costs, never how many the algorithm performs.
//   * mmap/shards=N: ShardedIndex in mmap mode (one shared cache
//     budget) at 1/2/4 shards, asserted bit-identical to the reference.
//   * startup/...: heap load (map the file, copy every section) vs
//     mmap load wall-clock — what not copying the disk tier buys a
//     cold start.
//
// The record names `NY/ATSQ/simulated` and `startup/stream-load` predate
// this wording; they stay because they key the committed baselines.
//
// JSON adds the append-only cache fields (block_size, blocks_read,
// cache_hit_rate; see docs/BENCH_PROTOCOL.md). block_size is read from
// the BlockCache each point built.
// blocks_read is deterministic at --threads 1; scripts/bench_diff.py
// treats it as a counter there and as advisory at higher thread counts.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.h"

#include "gat/engine/executor.h"
#include "gat/index/snapshot.h"
#include "gat/shard/sharded_index.h"
#include "gat/shard/sharded_searcher.h"
#include "gat/storage/block_cache.h"

namespace gat::bench {
namespace {

struct SweepPoint {
  const char* label;   // record-name fragment, machine-independent
  uint64_t divisor;    // budget = file_bytes / divisor
};

void Main(const BenchProtocol& proto, BenchReport& report) {
  PrintRunBanner("Storage tier",
                 "mmap snapshot serving + block cache sweep vs the "
                 "heap-resident index (NY, defaults)",
                 proto);
  const Dataset city = GenerateCity(CityProfile::NewYork(ScaleFromEnv()));
  QueryGenerator qgen(city, DefaultWorkload(/*seed=*/20130715));
  const auto queries = qgen.Workload();
  constexpr size_t kTopK = 9;
  constexpr QueryKind kKind = QueryKind::kAtsq;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("gat_storage_tier_bench." + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string snapshot_path = (dir / "index.gats").string();

  // ------------------------------------------------------------ reference
  const GatIndex index(city);
  const GatSearcher in_memory(city, index);
  const uint32_t fingerprint = DatasetFingerprint(city);
  if (!SaveSnapshot(index, snapshot_path, fingerprint)) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", snapshot_path.c_str());
    std::exit(1);
  }
  const auto file_bytes = std::filesystem::file_size(snapshot_path);

  const Measurement ref = MeasureWorkload(in_memory, queries, kTopK, kKind,
                                          proto);
  report.Add("NY/ATSQ/simulated", ref, queries.size());
  std::printf("\nsnapshot: %llu bytes (APL+HICL disk tier %zu bytes)\n",
              static_cast<unsigned long long>(file_bytes),
              index.memory_breakdown().DiskTotal());

  // ------------------------------------- equivalence: results + disk reads
  // The acceptance bar of the subsystem: same answers, same logical
  // read counts, per query — the mmap tier changes what a read
  // physically does, never how many the algorithm performs.
  {
    const auto snap = LoadSnapshot(snapshot_path, nullptr, 0, nullptr,
                                   std::make_shared<BlockCache>());
    if (!snap) {
      std::fprintf(stderr, "FATAL: cannot mmap-load %s\n",
                   snapshot_path.c_str());
      std::exit(1);
    }
    const GatSearcher mapped(city, *snap);
    for (size_t i = 0; i < queries.size(); ++i) {
      SearchStats ref_stats, map_stats;
      const ResultList want = in_memory.Search(queries[i], kTopK, kKind,
                                               &ref_stats);
      const ResultList got = mapped.Search(queries[i], kTopK, kKind,
                                           &map_stats);
      if (want != got || ref_stats.disk_reads != map_stats.disk_reads) {
        std::fprintf(stderr,
                     "FATAL: mmap tier diverged at query %zu (results %s, "
                     "disk_reads %llu vs %llu)\n",
                     i, want == got ? "equal" : "DIFFER",
                     static_cast<unsigned long long>(ref_stats.disk_reads),
                     static_cast<unsigned long long>(map_stats.disk_reads));
        std::exit(1);
      }
    }
    std::printf("equivalence: %zu queries bit-identical, disk_reads equal "
                "across heap-resident / mmap\n",
                queries.size());
  }

  // --------------------------------------------------------- cache sweep
  // Thrash -> fully resident. LRU inclusion makes the hit rate
  // monotone in the budget for a fixed access sequence, so at
  // --threads 1 (deterministic sequence) any inversion is a bug.
  const SweepPoint sweep[] = {
      {"1-64", 64}, {"1-16", 16}, {"1-4", 4}, {"1-1", 1}};
  std::printf("\n%-14s%14s%14s%14s\n", "cache", "hit rate", "blocks read",
              "avg ms/query");
  double prev_hit_rate = -1.0;
  double prev_avg_ms = -1.0;
  bool avg_ms_monotone = true;
  for (const SweepPoint& point : sweep) {
    const auto cache = std::make_shared<BlockCache>(BlockCacheConfig{
        .block_bytes = 1024,
        .capacity_bytes =
            std::max<uint64_t>(file_bytes / point.divisor, 4 * 1024),
        .shards = 4});
    const auto snap = LoadSnapshot(snapshot_path, nullptr, 0, nullptr, cache);
    if (!snap) {
      std::fprintf(stderr, "FATAL: mmap-load failed in sweep\n");
      std::exit(1);
    }
    const GatSearcher mapped(city, *snap);
    const Measurement m = MeasureWorkload(mapped, queries, kTopK, kKind,
                                          proto, cache.get());
    char name[128];
    std::snprintf(name, sizeof(name), "NY/ATSQ/mmap/cache=%s", point.label);
    report.Add(name, m, queries.size());
    if (m.totals.disk_reads != ref.totals.disk_reads) {
      std::fprintf(stderr,
                   "FATAL: %s changed logical disk_reads (%llu, "
                   "heap-resident reference %llu)\n",
                   name, static_cast<unsigned long long>(m.totals.disk_reads),
                   static_cast<unsigned long long>(ref.totals.disk_reads));
      std::exit(1);
    }

    const double hit_rate = CacheHitRate(
        m.totals.block_hits, m.totals.block_hits + m.totals.blocks_read);
    std::printf("%-14s%13.1f%%%14llu%14.3f\n", point.label, 100.0 * hit_rate,
                static_cast<unsigned long long>(m.totals.blocks_read),
                m.avg_ms);
    if (proto.threads == 1 && hit_rate + 1e-12 < prev_hit_rate) {
      std::fprintf(stderr,
                   "FATAL: hit rate fell as the cache grew (%f -> %f) — "
                   "LRU inclusion violated\n",
                   prev_hit_rate, hit_rate);
      std::exit(1);
    }
    if (prev_avg_ms >= 0.0 && m.avg_ms > prev_avg_ms) {
      avg_ms_monotone = false;
    }
    prev_hit_rate = hit_rate;
    prev_avg_ms = m.avg_ms;
  }
  if (!avg_ms_monotone) {
    std::printf("note: avg_ms not strictly monotone across the sweep "
                "(wall-clock noise; hit rate is the deterministic "
                "signal)\n");
  }

  // ------------------------------------------------- sharded mmap serving
  Executor executor(proto.threads);
  for (const uint32_t num_shards : {1u, 2u, 4u}) {
    ShardOptions options;
    options.num_shards = num_shards;
    options.executor = &executor;
    options.snapshot_dir = (dir / ("shards-" + std::to_string(num_shards)))
                               .string();
    options.mmap_disk_tier = true;
    options.cache_config.block_bytes = 1024;
    options.cache_config.capacity_bytes = file_bytes;  // shared, resident
    const ShardedIndex sharded(city, {}, options);
    if (sharded.shards_mmap_served() != num_shards) {
      std::fprintf(stderr, "FATAL: %u/%u shards mmap-served\n",
                   sharded.shards_mmap_served(), num_shards);
      std::exit(1);
    }
    const ShardedSearcher searcher(sharded, {},
                                   proto.threads > 1 ? &executor : nullptr);
    const Measurement m = MeasureWorkload(searcher, queries, kTopK, kKind,
                                          proto, sharded.block_cache());
    char name[128];
    std::snprintf(name, sizeof(name), "NY/ATSQ/mmap/shards=%u", num_shards);
    report.Add(name, m, queries.size(), num_shards);

    // Merged top-k must stay bit-identical to the unpartitioned,
    // unmapped reference at every shard count.
    for (size_t i = 0; i < queries.size(); ++i) {
      const ResultList want = in_memory.Search(queries[i], kTopK, kKind);
      const ResultList got = searcher.Search(queries[i], kTopK, kKind);
      if (want != got) {
        std::fprintf(stderr,
                     "FATAL: sharded mmap serving diverged (shards=%u, "
                     "query %zu)\n",
                     num_shards, i);
        std::exit(1);
      }
    }
  }
  std::printf("sharded mmap serving: 1/2/4 shards bit-identical to the "
              "reference\n");

  // ------------------------------------------------------------- startup
  // Warm start: a heap load (map the file, copy every section into the
  // index) vs mapping, which does one CRC sweep and copies only the RAM
  // tier.
  {
    Stopwatch heap_timer;
    const auto heap = LoadSnapshot(snapshot_path, nullptr, fingerprint);
    const double heap_load_ms = heap_timer.ElapsedMillis();
    Stopwatch map_timer;
    const auto snap = LoadSnapshot(snapshot_path, nullptr, 0, nullptr,
                                   std::make_shared<BlockCache>());
    const double map_ms = map_timer.ElapsedMillis();
    if (heap == nullptr || !snap) {
      std::fprintf(stderr, "FATAL: startup loads failed\n");
      std::exit(1);
    }
    report.AddRaw("startup/stream-load", heap_load_ms * 1e6, 0.0, 1, 1);
    report.AddRaw("startup/mmap-load", map_ms * 1e6, 0.0, 1, 1);
    std::printf("\nstartup: heap-load %.2f ms, mmap-load %.2f ms\n",
                heap_load_ms, map_ms);
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace gat::bench

int main(int argc, char** argv) {
  return gat::bench::BenchMain(argc, argv, "storage_tier", gat::bench::Main);
}
