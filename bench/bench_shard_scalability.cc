// Shard scalability (beyond the paper): query cost and startup cost of
// the sharded serving layer vs the single monolithic GAT index.
//
// Two things are measured per shard count (1, 2, 4, 8):
//   * query performance of ShardedSearcher under the standard protocol —
//     the deterministic work counters quantify the fan-out overhead
//     (every shard is probed, so candidate/disk counters grow with N
//     while per-shard indexes shrink);
//   * startup: cold build seconds vs warm snapshot-load seconds through
//     the self-priming snapshot cache (`startup/...` records, ns_per_op =
//     nanoseconds for the whole construction).
//
// The merged top-k is bit-identical to the single index by construction
// (tests/shard_test.cc); this bench tracks what that costs.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "harness.h"

#include "gat/shard/sharded_index.h"
#include "gat/shard/sharded_searcher.h"

namespace gat::bench {
namespace {

void Main(const BenchProtocol& proto, BenchReport& report) {
  PrintRunBanner("Shard scalability",
                 "sharded GAT serving vs the single index (NY, defaults)",
                 proto);
  const Dataset city = GenerateCity(CityProfile::NewYork(ScaleFromEnv()));
  QueryGenerator qgen(city, DefaultWorkload(/*seed=*/4242));
  const auto queries = qgen.Workload();

  const GatIndex single_index(city);
  const GatSearcher single(city, single_index);

  // Per-process cache dir: concurrent runs on one machine must not
  // delete each other's snapshots mid-measurement.
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() /
       ("gat_bench_shard_cache." + std::to_string(getpid())))
          .string();
  std::filesystem::remove_all(cache_dir);

  std::printf("\n%-10s%14s%14s%16s%16s\n", "shards", "ATSQ ms/q",
              "OATSQ ms/q", "cold build s", "warm load s");
  for (const uint32_t num_shards : {1u, 2u, 4u, 8u}) {
    ShardOptions options;
    options.num_shards = num_shards;
    options.build_threads = proto.threads;

    ShardOptions cached = options;
    cached.snapshot_dir = cache_dir + "/n" + std::to_string(num_shards);
    // Cold is built WITHOUT a snapshot dir so its timing is pure index
    // construction; priming the cache happens outside the timed ctor.
    const ShardedIndex cold(city, {}, options);
    cold.SaveSnapshots(cached.snapshot_dir);
    const ShardedIndex warm(city, {}, cached);   // restores every shard
    if (warm.shards_loaded_from_snapshot() != num_shards) {
      std::fprintf(stderr, "warm start failed to load %u shards\n",
                   num_shards);
      std::exit(1);
    }
    const ShardedSearcher searcher(warm);

    char point[128];
    std::snprintf(point, sizeof(point), "startup/cold-build/shards=%u",
                  num_shards);
    report.AddRaw(point, cold.build_seconds() * 1e9, 0.0, 1, 1);
    std::snprintf(point, sizeof(point), "startup/warm-load/shards=%u",
                  num_shards);
    report.AddRaw(point, warm.build_seconds() * 1e9, 0.0, 1, 1);

    double row_ms[2] = {0.0, 0.0};
    for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
      const auto m = MeasureWorkload(searcher, queries, /*k=*/9, kind, proto);
      row_ms[kind == QueryKind::kOatsq] = m.avg_ms;
      std::snprintf(point, sizeof(point), "NY/%s/GAT-sharded/shards=%u",
                    ToString(kind).c_str(), num_shards);
      report.Add(point, m, queries.size());
    }
    std::printf("%-10u%14.3f%14.3f%16.3f%16.3f\n", num_shards, row_ms[0],
                row_ms[1], cold.build_seconds(), warm.build_seconds());
  }

  // The monolithic reference under the identical protocol.
  for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
    const auto m = MeasureWorkload(single, queries, /*k=*/9, kind, proto);
    char point[128];
    std::snprintf(point, sizeof(point), "NY/%s/GAT/single",
                  ToString(kind).c_str());
    report.Add(point, m, queries.size());
    std::printf("%-10s%14.3f  (%s, single index reference)\n", "1 (mono)",
                m.avg_ms, ToString(kind).c_str());
  }
  std::filesystem::remove_all(cache_dir);
}

}  // namespace
}  // namespace gat::bench

int main(int argc, char** argv) {
  return gat::bench::BenchMain(argc, argv, "shard_scalability",
                               gat::bench::Main);
}
