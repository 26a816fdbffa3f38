// Live-ingestion soak, meant to run under TSan and ASan (ctest label:
// soak): writer threads stream check-in batches, a merger compacts the
// delta into new generations at alternating shard cuts, and reader
// threads search throughout — through the full wire-equivalent stack
// (LiveSearcher over pinned LiveViews). Between rounds the world
// quiesces and the suite asserts the one property ingestion must never
// bend: the merged (base + delta) top-k is bit-identical to a
// monolithic index rebuilt from the same data, for both query kinds.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/index/gat_index.h"
#include "gat/live/live_index.h"
#include "gat/live/live_searcher.h"
#include "gat/search/gat_search.h"
#include "gat/util/rng.h"

namespace gat {
namespace {

constexpr int kRounds = 4;
constexpr int kWriters = 3;
constexpr int kReaders = 3;
constexpr int kBatchesPerWriterPerRound = 25;
constexpr size_t kBatchSize = 6;
constexpr size_t kTopK = 9;

std::vector<CheckIn> SampleCheckIns(const Dataset& dataset, Rng& rng,
                                    size_t count, uint64_t user_base,
                                    uint64_t num_users) {
  std::vector<CheckIn> out;
  out.reserve(count);
  while (out.size() < count) {
    const Trajectory& t =
        dataset.trajectories()[rng.NextU32(static_cast<uint32_t>(
            dataset.size()))];
    if (t.empty()) continue;
    const TrajectoryPoint& p =
        t.points()[rng.NextU32(static_cast<uint32_t>(t.size()))];
    out.push_back({user_base + out.size() % num_users, p.location,
                   p.activities});
  }
  return out;
}

TEST(LiveSoak, SustainedIngestMergeAndQueryStaysBitIdentical) {
  const CityProfile profile = CityProfile::Testing(260, 91);
  ShardOptions options;
  options.num_shards = 4;
  options.build_threads = 1;
  LiveIndex live(GenerateCity(profile), GatConfig{}, options);
  Executor executor(4);
  const LiveSearcher searcher(live, {}, &executor);

  QueryWorkloadParams wp;
  wp.num_queries = 6;
  wp.seed = 19;
  QueryGenerator qgen(live.base(), wp);
  const std::vector<Query> queries = qgen.Workload();
  // Writers sample check-ins from a copy of the starting city: `base()`
  // is the latest merged dataset, which the merger reassigns under them.
  const Dataset sample_frame = GenerateCity(profile);

  uint64_t expected_watermark = 0;
  for (int round = 0; round < kRounds; ++round) {
    // Concurrency phase: writers, a merger changing the shard cut, and
    // readers all race. Readers only sanity-check shape here — the
    // serving data is a moving target mid-round.
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&live, &sample_frame, round, w] {
        Rng rng(static_cast<uint64_t>(round) * 100 + w);
        const uint64_t user_base =
            10'000 + static_cast<uint64_t>(w) * 1'000;
        for (int b = 0; b < kBatchesPerWriterPerRound; ++b) {
          ASSERT_TRUE(live.Ingest(SampleCheckIns(
              sample_frame, rng, kBatchSize, user_base, 11)));
        }
      });
    }
    threads.emplace_back([&live, &executor, round] {
      ASSERT_TRUE(
          live.MergeDelta(round % 2 == 0 ? 3 : 4, "", &executor));
      ASSERT_TRUE(
          live.MergeDelta(round % 2 == 0 ? 4 : 3, "", &executor));
    });
    std::vector<std::thread> readers;
    std::atomic<uint64_t> searches{0};
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        uint64_t i = static_cast<uint64_t>(r);
        while (!stop.load(std::memory_order_relaxed)) {
          const Query& q = queries[i++ % queries.size()];
          const ResultList results =
              searcher.Search(q, kTopK, QueryKind::kAtsq);
          if (results.size() > kTopK) return;  // impossible
          searches.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : threads) t.join();
    stop.store(true, std::memory_order_relaxed);
    for (auto& r : readers) r.join();
    EXPECT_GT(searches.load(), 0u);

    // Quiesced gate: every accepted check-in accounted for, and the
    // live answer equals the monolithic rebuild of the exact state.
    expected_watermark += static_cast<uint64_t>(kWriters) *
                          kBatchesPerWriterPerRound * kBatchSize;
    ASSERT_EQ(live.watermark(), expected_watermark);
    ASSERT_EQ(live.batches_rejected(), 0u);
    const auto view = live.Pin();
    ASSERT_EQ(view->delta->base_generation, view->generation->number());
    const Dataset state = live.base().ExtendWith(view->delta->trajectories);
    const GatIndex mono(state);
    const GatSearcher reference(state, mono);
    for (const Query& q : queries) {
      for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
        ASSERT_EQ(searcher.Search(q, kTopK, kind),
                  reference.Search(q, kTopK, kind))
            << "round " << round << " kind " << static_cast<int>(kind);
      }
    }
  }
  EXPECT_EQ(live.merges_completed(), 2u * kRounds);
  EXPECT_EQ(live.sharded().generations_published(), 2u * kRounds);
}

}  // namespace
}  // namespace gat
