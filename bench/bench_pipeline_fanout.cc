// Pipelined batches and per-query shard fan-out (beyond the paper): what
// the shared-executor refactor of src/gat/engine buys at serving time.
//
// Three things are measured, all on ONE executor of --threads workers:
//
//   * latency/...: single-query latency (p50/p95/p99) against a
//     ShardedSearcher that fans each query out across the shards as
//     sibling tasks. Queries run one at a time (an engine with no
//     executor), so the percentiles isolate per-query fan-out from
//     batch throughput. The latency is measured wall-clock only. On a
//     4-core AMD EPYC host (scale 0.04, --threads 4) ATSQ p95 falls
//     only modestly with shards: 0.38-0.48 / 0.31-0.34 / 0.27-0.29 ms
//     at 1 / 2 / 4 shards with 50 queries (three runs), and at the
//     default 15 queries the p95 column is not monotone in 2 of 5 runs.
//   * pipeline/...: total wall-clock of K batches submitted from K
//     concurrent caller threads vs the same batches run back-to-back.
//     Cross-batch pipelining means the concurrent submission drains no
//     slower (and under load, faster) than the serial one, with
//     bit-identical per-batch results — which this bench asserts.
//   * startup/...: cold shard builds as tasks on the same executor the
//     queries run on (pool-shared builds — no second thread set).
//
// The merged top-k stays bit-identical to the single monolithic index
// at every shard count (tests/shard_test.cc); this bench asserts it
// again end-to-end and measures what the fan-out buys.

#include <cstdio>
#include <thread>
#include <vector>

#include "harness.h"

#include "gat/engine/executor.h"
#include "gat/shard/sharded_index.h"
#include "gat/shard/sharded_searcher.h"

namespace gat::bench {
namespace {

void Main(const BenchProtocol& proto, BenchReport& report) {
  PrintRunBanner("Pipeline + fan-out",
                 "shared-executor serving: per-query shard fan-out and "
                 "cross-batch pipelining (NY, defaults)",
                 proto);
  const Dataset city = GenerateCity(CityProfile::NewYork(ScaleFromEnv()));
  QueryGenerator qgen(city, DefaultWorkload(/*seed=*/20130408));
  const auto queries = qgen.Workload();
  constexpr size_t kTopK = 9;

  // The one pool everything below shares: builds, fan-out, batches.
  Executor executor(proto.threads);

  // Reference answers from the monolithic index, single-threaded.
  const GatIndex single_index(city);
  const GatSearcher single(city, single_index);
  const QueryEngine reference(single);
  const BatchResult want = reference.Run(queries, kTopK, QueryKind::kAtsq);

  // ---------------------------------------------------- per-query latency
  std::printf("\n%-10s%12s%12s%12s%14s\n", "shards", "p50 ms", "p95 ms",
              "p99 ms", "build s");
  for (const uint32_t num_shards : {1u, 2u, 4u}) {
    ShardOptions options;
    options.num_shards = num_shards;
    options.executor = &executor;  // pool-shared build
    const ShardedIndex sharded(city, {}, options);
    const ShardedSearcher fanned(sharded, {}, &executor);

    char point[128];
    std::snprintf(point, sizeof(point), "startup/pool-shared-build/shards=%u",
                  num_shards);
    report.AddRaw(point, sharded.build_seconds() * 1e9, 0.0, 1, 1);

    // An inline engine: queries go one at a time, so the percentiles
    // measure one query's latency; parallelism comes only from the
    // shard fan-out on the shared executor.
    BenchProtocol latency_proto = proto;
    latency_proto.threads = 1;
    for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
      const auto m =
          MeasureWorkload(fanned, queries, kTopK, kind, latency_proto);
      std::snprintf(point, sizeof(point), "NY/%s/latency/shards=%u",
                    ToString(kind).c_str(), num_shards);
      report.Add(point, m, queries.size(), num_shards);
      if (kind == QueryKind::kAtsq) {
        std::printf("%-10u%12.3f%12.3f%12.3f%14.3f\n", num_shards, m.p50_ms,
                    m.p95_ms, m.p99_ms, sharded.build_seconds());
      }
    }

    // Fan-out answers must stay bit-identical to the monolithic index.
    const QueryEngine engine(fanned, EngineOptions{.executor = &executor});
    const BatchResult got = engine.Run(queries, kTopK, QueryKind::kAtsq);
    for (size_t i = 0; i < queries.size(); ++i) {
      if (got.results[i] != want.results[i]) {
        std::fprintf(stderr,
                     "FATAL: fan-out result diverged from the single index "
                     "(shards=%u, query %zu)\n",
                     num_shards, i);
        std::exit(1);
      }
    }
  }

  // ------------------------------------------------ cross-batch pipelining
  // K concurrent callers, one engine, one pool. Serial reference first;
  // per-batch results must be bit-identical either way.
  constexpr uint32_t kCallers = 4;
  const ShardedIndex sharded(
      city, {}, ShardOptions{.num_shards = 4, .executor = &executor});
  const ShardedSearcher fanned(sharded, {}, &executor);
  const QueryEngine engine(fanned, EngineOptions{.executor = &executor});

  std::vector<BatchResult> serial(kCallers);
  Stopwatch serial_timer;
  for (uint32_t b = 0; b < kCallers; ++b) {
    serial[b] = engine.Run(queries, kTopK, QueryKind::kAtsq);
  }
  const double serial_ms = serial_timer.ElapsedMillis();

  std::vector<BatchResult> concurrent(kCallers);
  Stopwatch concurrent_timer;
  {
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (uint32_t b = 0; b < kCallers; ++b) {
      callers.emplace_back([&, b] {
        concurrent[b] = engine.Run(queries, kTopK, QueryKind::kAtsq);
      });
    }
    for (auto& t : callers) t.join();
  }
  const double concurrent_ms = concurrent_timer.ElapsedMillis();

  for (uint32_t b = 0; b < kCallers; ++b) {
    for (size_t i = 0; i < queries.size(); ++i) {
      if (concurrent[b].results[i] != serial[b].results[i]) {
        std::fprintf(stderr,
                     "FATAL: concurrent batch %u diverged at query %zu\n", b,
                     i);
        std::exit(1);
      }
    }
  }

  const double total_queries =
      static_cast<double>(kCallers) * static_cast<double>(queries.size());
  report.AddRaw("pipeline/serial-batches=4", serial_ms * 1e6 / total_queries,
                0.0, 1, static_cast<size_t>(total_queries));
  report.AddRaw("pipeline/concurrent-batches=4",
                concurrent_ms * 1e6 / total_queries, 0.0, 1,
                static_cast<size_t>(total_queries));
  std::printf("\n%u batches x %zu queries: serial %.1f ms, concurrent "
              "callers %.1f ms (results bit-identical)\n",
              kCallers, queries.size(), serial_ms, concurrent_ms);
}

}  // namespace
}  // namespace gat::bench

int main(int argc, char** argv) {
  return gat::bench::BenchMain(argc, argv, "pipeline_fanout",
                               gat::bench::Main);
}
