// Live ingestion measured end-to-end: query latency over the merged
// (base + delta) view as the delta grows, across a merge, and under
// sustained concurrent write/merge fire.
//
// The serving setup is the live stack gat_server deploys: a LiveIndex
// (4-shard in-memory base + copy-on-write delta) queried through
// LiveSearcher on a shared executor. Every measured point is held to
// the invariant the delta design rests on — the merged top-k is
// bit-identical to a monolithic GatIndex rebuilt over the same data —
// with a per-query assert (fatal on divergence) at whatever --threads
// the run uses (CI runs 1 and 4).
//
// What is measured and asserted:
//
//   * NY/ATSQ/delta=0: the quiescent baseline — fresh base, empty
//     delta. The delta scan should be free here.
//   * NY/ATSQ/delta=live: the same workload after a fixed batch-ingest
//     schedule filled the delta. Bit-identity vs the monolithic rebuild
//     of base ⊕ delta, both query kinds, per query.
//   * startup/merge-latency: wall-clock of one MergeDelta (extend +
//     per-shard build + swap) — the cold path merging moved off the
//     serving threads.
//   * NY/ATSQ/merged: the workload after that merge sealed the delta
//     into base generation 1. Same counters as a cold build over the
//     extended dataset; bit-identity again.
//   * NY/ATSQ/ingest=drained: timed while writer threads stream batches
//     and a merger swaps generations at ALTERNATING shard cuts (4 -> 3
//     -> 4 -> 3 -> 4) under the measurement — every query must succeed
//     (fatal otherwise: a failed or malformed answer under generation
//     swap is the bug this bench exists to catch). The racing fire owns
//     the record's latency sample; its work counters come from a
//     single-threaded canonical replay of the same batches (fixed
//     interleave, fixed merge points), because the state the race
//     leaves behind — trajectory segmentation and fold order — depends
//     on where the merges landed relative to the writers. Same
//     check-ins, same merge count, same watermark and generation,
//     deterministic counters. `freshness_lag_ms` (one batch's
//     ingest-to-queryable wall clock) is reported, not compared.
//
// JSON: every record carries the ingest fields this bench owns
// (`ingested_checkins`, `delta_trajectories`, `merges_completed`,
// `generation` — exact, quiesced; `freshness_lag_ms` — wall-clock). See
// docs/BENCH_PROTOCOL.md.

#include <array>
#include <cstdio>
#include <thread>
#include <vector>

#include "harness.h"

#include "gat/engine/executor.h"
#include "gat/live/live_index.h"
#include "gat/live/live_searcher.h"
#include "gat/util/rng.h"
#include "gat/util/stopwatch.h"

namespace gat::bench {
namespace {

constexpr uint32_t kShards = 4;
constexpr size_t kTopK = 9;
constexpr QueryKind kKind = QueryKind::kAtsq;

// Fixed ingest schedule: deterministic watermarks at every quiesced
// record, whatever the thread interleaving between them was.
constexpr size_t kBatchSize = 6;
constexpr int kDeltaBatches = 40;          // phase 2: 240 check-ins
constexpr int kFireWriters = 2;            // phase 4
constexpr int kFireBatchesPerWriter = 25;  // phase 4: 300 check-ins
constexpr uint64_t kFreshnessProbe = kBatchSize;  // one more batch

std::vector<CheckIn> SampleCheckIns(const Dataset& dataset, Rng& rng,
                                    size_t count, uint64_t user_base,
                                    uint64_t num_users, uint64_t serial) {
  std::vector<CheckIn> out;
  out.reserve(count);
  while (out.size() < count) {
    const Trajectory& t = dataset.trajectories()[rng.NextU32(
        static_cast<uint32_t>(dataset.size()))];
    if (t.empty()) continue;
    const TrajectoryPoint& p =
        t.points()[rng.NextU32(static_cast<uint32_t>(t.size()))];
    out.push_back({user_base + (serial + out.size()) % num_users, p.location,
                   p.activities});
  }
  return out;
}

void Main(const BenchProtocol& proto, BenchReport& report) {
  PrintRunBanner("Live ingestion",
                 "query latency over base + delta, across merges, and "
                 "under concurrent write/merge fire (NY, 4 shards)",
                 proto);
  Executor executor(proto.threads);
  ShardOptions options;
  options.num_shards = kShards;
  options.executor = &executor;
  LiveIndex live(GenerateCity(CityProfile::NewYork(ScaleFromEnv())), {},
                 options);
  QueryGenerator qgen(live.base(), DefaultWorkload(/*seed=*/20130131));
  const auto queries = qgen.Workload();
  const LiveSearcher searcher(live, {},
                              proto.threads > 1 ? &executor : nullptr);

  // The bench's backbone: every quiesced point re-runs the workload
  // through the engine at the protocol's thread count and holds each
  // answer, both query kinds, against a monolithic GatIndex rebuilt
  // from exactly the data the pinned view serves.
  auto assert_bit_identical = [&](const LiveIndex& index,
                                  const LiveSearcher& via,
                                  const char* where) {
    const auto view = index.Pin();
    if (view->delta->base_generation != view->generation->number()) {
      std::fprintf(stderr, "FATAL: %s: view pairs delta@gen%llu with "
                           "base gen%llu\n",
                   where,
                   static_cast<unsigned long long>(
                       view->delta->base_generation),
                   static_cast<unsigned long long>(
                       view->generation->number()));
      std::exit(1);
    }
    const Dataset state = index.base().ExtendWith(view->delta->trajectories);
    const GatIndex mono(state);
    const GatSearcher reference(state, mono);
    QueryEngine engine(
        via, EngineOptions{.executor = proto.threads > 1 ? &executor : nullptr});
    for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
      const BatchResult batch = engine.Run(queries, kTopK, kind);
      for (size_t i = 0; i < queries.size(); ++i) {
        if (batch.results[i] != reference.Search(queries[i], kTopK, kind)) {
          std::fprintf(stderr,
                       "FATAL: %s: query %zu kind %d diverged from the "
                       "monolithic rebuild\n",
                       where, i, static_cast<int>(kind));
          std::exit(1);
        }
      }
    }
    std::printf("%s: %zu queries x 2 kinds bit-identical to monolithic "
                "rebuild (threads=%u)\n",
                where, queries.size(), proto.threads);
  };

  // Every check-in the bench will ever ingest is sampled here, from the
  // birth base. Sampling later would make the content depend on the
  // ingest/merge interleaving (the base grows at every merge), and
  // racing writers may not touch base() while a merge extends it —
  // base() is only stable for callers that hold no race with MergeDelta.
  std::vector<std::vector<CheckIn>> delta_batches;
  std::array<std::vector<std::vector<CheckIn>>, kFireWriters> fire_batches;
  std::vector<CheckIn> freshness_batch;
  {
    Rng rng(20130131);
    for (int b = 0; b < kDeltaBatches; ++b) {
      delta_batches.push_back(
          SampleCheckIns(live.base(), rng, kBatchSize, 50'000, 12,
                         static_cast<uint64_t>(b) * kBatchSize));
    }
    for (int w = 0; w < kFireWriters; ++w) {
      Rng fire_rng(777 + static_cast<uint64_t>(w));
      const uint64_t user_base = 60'000 + static_cast<uint64_t>(w) * 1'000;
      for (int b = 0; b < kFireBatchesPerWriter; ++b) {
        fire_batches[w].push_back(
            SampleCheckIns(live.base(), fire_rng, kBatchSize, user_base, 9,
                           static_cast<uint64_t>(b) * kBatchSize));
      }
    }
    Rng fresh_rng(31);
    freshness_batch =
        SampleCheckIns(live.base(), fresh_rng, kFreshnessProbe, 70'000, 3, 0);
  }

  auto ingest_state = [&](Measurement m, double freshness_ms = 0.0) {
    m.fields = {{"ingested_checkins", live.watermark()},
                {"delta_trajectories", uint64_t{live.delta_trajectories()}},
                {"merges_completed", live.merges_completed()},
                {"generation", live.sharded().generation_number()},
                {"freshness_lag_ms", freshness_ms}};
    return m;
  };

  // ------------------------------------------------------ empty delta
  assert_bit_identical(live, searcher, "delta=0");
  report.Add("NY/ATSQ/delta=0",
             ingest_state(MeasureWorkload(searcher, queries, kTopK, kKind,
                                          proto)),
             queries.size(), kShards);

  // ------------------------------------------------- a populated delta
  for (int b = 0; b < kDeltaBatches; ++b) {
    if (!live.Ingest(delta_batches[static_cast<size_t>(b)])) {
      std::fprintf(stderr, "FATAL: ingest batch %d rejected\n", b);
      std::exit(1);
    }
  }
  std::printf("\ningested %llu check-ins -> %zu delta trajectories\n",
              static_cast<unsigned long long>(live.watermark()),
              live.delta_trajectories());
  assert_bit_identical(live, searcher, "delta=live");
  report.Add("NY/ATSQ/delta=live",
             ingest_state(MeasureWorkload(searcher, queries, kTopK, kKind,
                                          proto)),
             queries.size(), kShards);

  // ------------------------------------------------- one merge, timed
  {
    Stopwatch timer;
    if (!live.MergeDelta(kShards, "", &executor)) {
      std::fprintf(stderr, "FATAL: MergeDelta refused\n");
      std::exit(1);
    }
    const double merge_ms = timer.ElapsedMillis();
    report.AddRaw("startup/merge-latency", merge_ms * 1e6, 0.0, 1, 1);
    std::printf("\none MergeDelta (extend + %u-shard build + swap): "
                "%.2f ms\n",
                kShards, merge_ms);
  }
  assert_bit_identical(live, searcher, "merged");
  report.Add("NY/ATSQ/merged",
             ingest_state(MeasureWorkload(searcher, queries, kTopK, kKind,
                                          proto)),
             queries.size(), kShards);

  // ------------------------- concurrent fire: writers + cut-changing
  // merger under the measured batches. Queries must all succeed; the
  // shard cut provably changes mid-measurement (3 <-> 4).
  const uint64_t generations_before = live.sharded().generations_published();
  std::vector<std::thread> writers;
  for (int w = 0; w < kFireWriters; ++w) {
    writers.emplace_back([&live, &fire_batches, w] {
      for (const auto& batch : fire_batches[static_cast<size_t>(w)]) {
        if (!live.Ingest(batch)) {
          std::fprintf(stderr, "FATAL: fire ingest rejected\n");
          std::exit(1);
        }
      }
    });
  }
  std::thread merger([&live, &executor] {
    for (const uint32_t cut : {3u, 4u, 3u, 4u}) {
      if (!live.MergeDelta(cut, "", &executor)) {
        std::fprintf(stderr, "FATAL: fire MergeDelta(%u) refused\n", cut);
        std::exit(1);
      }
    }
  });
  const Measurement fire =
      MeasureWorkload(searcher, queries, kTopK, kKind, proto);
  for (auto& w : writers) w.join();
  merger.join();

  // Freshness probe: one more batch, ingest-to-queryable wall clock.
  // Publication is the queryability boundary (the next Pin serves it),
  // so this times the validate + log + copy-on-write publish path.
  double freshness_ms = 0.0;
  {
    const uint64_t target = live.watermark() + kFreshnessProbe;
    Stopwatch timer;
    if (!live.Ingest(freshness_batch)) {
      std::fprintf(stderr, "FATAL: freshness batch rejected\n");
      std::exit(1);
    }
    if (live.Pin()->delta->watermark < target) {
      std::fprintf(stderr, "FATAL: accepted batch not queryable\n");
      std::exit(1);
    }
    freshness_ms = timer.ElapsedMillis();
  }

  // Drain: one final merge back at the canonical cut seals everything,
  // making every counter on the fire record exact and diffable.
  if (!live.MergeDelta(kShards, "", &executor)) {
    std::fprintf(stderr, "FATAL: drain MergeDelta refused\n");
    std::exit(1);
  }
  assert_bit_identical(live, searcher, "ingest=drained");
  const uint64_t fire_generations =
      live.sharded().generations_published() - generations_before;
  if (fire_generations != 5 || live.delta_trajectories() != 0) {
    std::fprintf(stderr, "FATAL: fire published %llu generations "
                         "(want 5), %zu delta trajectories left\n",
                 static_cast<unsigned long long>(fire_generations),
                 live.delta_trajectories());
    std::exit(1);
  }

  // The fire measurement ran against a moving target, and even the
  // drained state it leaves behind is interleaving-dependent: where a
  // merge lands relative to the writers decides how each user's
  // check-ins split into trajectory segments and in what order the
  // folds append them, and the search counters are sensitive to both.
  // So the record's work counters come from a canonical replay: the
  // same batches, single-threaded, fixed round-robin interleave, the
  // same four cut-changing merges at fixed points. Same check-ins,
  // same merge count, same watermark and generation — deterministic
  // counters. The fire keeps what only it can claim: the latency
  // sample under 3 <-> 4 generation swaps with zero failed queries.
  LiveIndex canon(GenerateCity(CityProfile::NewYork(ScaleFromEnv())), {},
                  options);
  for (const auto& batch : delta_batches) {
    if (!canon.Ingest(batch)) {
      std::fprintf(stderr, "FATAL: canon delta ingest rejected\n");
      std::exit(1);
    }
  }
  if (!canon.MergeDelta(kShards, "", &executor)) {
    std::fprintf(stderr, "FATAL: canon startup MergeDelta refused\n");
    std::exit(1);
  }
  {
    constexpr uint32_t kFireCuts[] = {3, 4, 3, 4};
    size_t fired = 0;
    size_t cut = 0;
    for (int b = 0; b < kFireBatchesPerWriter; ++b) {
      for (int w = 0; w < kFireWriters; ++w) {
        if (!canon.Ingest(fire_batches[static_cast<size_t>(w)]
                                      [static_cast<size_t>(b)])) {
          std::fprintf(stderr, "FATAL: canon fire ingest rejected\n");
          std::exit(1);
        }
        ++fired;
        if (cut < 4 && fired % 12 == 0) {
          if (!canon.MergeDelta(kFireCuts[cut++], "", &executor)) {
            std::fprintf(stderr, "FATAL: canon fire MergeDelta refused\n");
            std::exit(1);
          }
        }
      }
    }
  }
  if (!canon.Ingest(freshness_batch) ||
      !canon.MergeDelta(kShards, "", &executor)) {
    std::fprintf(stderr, "FATAL: canon drain refused\n");
    std::exit(1);
  }
  if (canon.watermark() != live.watermark() ||
      canon.merges_completed() != live.merges_completed() ||
      canon.sharded().generation_number() !=
          live.sharded().generation_number() ||
      canon.delta_trajectories() != 0) {
    std::fprintf(stderr, "FATAL: canonical replay diverged from the fire "
                         "(watermark %llu vs %llu, merges %llu vs %llu)\n",
                 static_cast<unsigned long long>(canon.watermark()),
                 static_cast<unsigned long long>(live.watermark()),
                 static_cast<unsigned long long>(canon.merges_completed()),
                 static_cast<unsigned long long>(live.merges_completed()));
    std::exit(1);
  }
  const LiveSearcher canon_searcher(canon, {},
                                    proto.threads > 1 ? &executor : nullptr);
  assert_bit_identical(canon, canon_searcher, "ingest=drained/canonical");
  Measurement drained =
      MeasureWorkload(canon_searcher, queries, kTopK, kKind, proto);
  drained.p50_ms = fire.p50_ms;
  drained.p95_ms = fire.p95_ms;
  drained.p99_ms = fire.p99_ms;
  drained.ns_per_op = fire.ns_per_op;
  drained.rsd_pct = fire.rsd_pct;
  report.Add("NY/ATSQ/ingest=drained", ingest_state(drained, freshness_ms),
             queries.size(), kShards);

  std::printf("\nfire: %llu check-ins streamed behind the measured "
              "batches, 5 generation swaps (shard cut 4->3->4->3->4), "
              "zero failed queries\n",
              static_cast<unsigned long long>(
                  static_cast<uint64_t>(kFireWriters) *
                  kFireBatchesPerWriter * kBatchSize));
  std::printf("freshness: one %llu check-in batch ingest-to-queryable in "
              "%.3f ms\n",
              static_cast<unsigned long long>(kFreshnessProbe), freshness_ms);
  std::printf("final state: watermark %llu, %llu merges, generation %llu\n",
              static_cast<unsigned long long>(live.watermark()),
              static_cast<unsigned long long>(live.merges_completed()),
              static_cast<unsigned long long>(
                  live.sharded().generation_number()));
}

}  // namespace
}  // namespace gat::bench

int main(int argc, char** argv) {
  return gat::bench::BenchMain(argc, argv, "ingest", gat::bench::Main);
}
