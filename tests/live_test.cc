// Tests for live ingestion: the LiveIndex delta/base split, its
// generation-aware merge, and the LiveSearcher's merged top-k.
//
// The load-bearing invariants:
//   * Ingest is all-or-nothing against the base frame: one bad check-in
//     refuses the whole batch and nothing becomes visible;
//   * the merged (base + delta) answer is bit-identical to a monolithic
//     GatSearcher over Dataset::ExtendWith(delta) — at every shard
//     count, for both query kinds, before and after any merge schedule;
//   * MergeDelta publishes a new generation (possibly a different shard
//     cut) without a single failed or diverging query under continuous
//     fire, and a reader pinned to the old generation keeps serving it
//     bit-identically until the pin drops;
//   * ingests, merges and queries may race freely — the LiveView pairs
//     a delta only ever with the base generation it complements;
//   * a read whose deadline passes before its delta scan is refused
//     (deadline-exceeded), never answered with an empty list.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "gat/common/clock.h"
#include "gat/common/query_context.h"
#include "gat/datagen/checkin_generator.h"
#include "gat/engine/query_engine.h"
#include "gat/datagen/query_generator.h"
#include "gat/index/gat_index.h"
#include "gat/live/live_index.h"
#include "gat/live/live_searcher.h"
#include "gat/search/gat_search.h"
#include "gat/shard/sharded_searcher.h"
#include "gat/util/rng.h"

namespace gat {
namespace {

std::vector<Query> TestQueries(const Dataset& dataset, uint64_t seed,
                               uint32_t count = 6) {
  QueryWorkloadParams wp;
  wp.num_queries = count;
  wp.seed = seed;
  QueryGenerator qgen(dataset, wp);
  return qgen.Workload();
}

/// Check-ins the base frame must accept: locations and activity sets
/// sampled from the dataset's own points, spread over `num_users`
/// users so trajectories grow multi-point.
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

// ---------------------------------------------------------------------------
// Ingest validation
// ---------------------------------------------------------------------------

TEST(LiveIngest, ValidatesBatchesAtomically) {
  LiveIndex live(GenerateCity(CityProfile::Testing(120, 17)));
  Rng rng(3);
  std::vector<CheckIn> batch = SampleCheckIns(live.base(), rng, 4, 100, 2);

  // One bad check-in anywhere poisons the whole batch: an activity at
  // the frame limit, a point outside the bounding box, a non-finite
  // coordinate. Nothing of the healthy prefix is applied.
  const uint32_t limit = live.base().activity_frame_limit();
  std::vector<CheckIn> bad = batch;
  bad[3].activities = {limit};
  EXPECT_FALSE(live.Ingest(bad));
  bad = batch;
  bad[0].location = {1.0e9, 1.0e9};
  EXPECT_FALSE(live.Ingest(bad));
  bad = batch;
  bad[2].location.x = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(live.Ingest(bad));
  EXPECT_EQ(live.batches_rejected(), 3u);
  EXPECT_EQ(live.watermark(), 0u);
  EXPECT_EQ(live.delta_trajectories(), 0u);

  // An empty batch is an accepted no-op.
  uint64_t watermark = 99;
  EXPECT_TRUE(live.Ingest({}, &watermark));
  EXPECT_EQ(watermark, 0u);

  // The valid batch lands whole: 4 check-ins over 2 users = 2 delta
  // trajectories of 2 points each, in arrival order.
  ASSERT_TRUE(live.Ingest(batch, &watermark));
  EXPECT_EQ(watermark, 4u);
  const auto view = live.Pin();
  ASSERT_EQ(view->delta->trajectories.size(), 2u);
  EXPECT_EQ(view->delta->trajectories[0].size(), 2u);
  EXPECT_EQ(view->delta->trajectories[1].size(), 2u);
  EXPECT_EQ(view->delta->user_index.at(100), 0u);
  EXPECT_EQ(view->delta->user_index.at(101), 1u);
  EXPECT_EQ(view->delta->base_trajectories, live.base().size());
  EXPECT_EQ(view->delta->base_generation, live.base().generation());
}

// ---------------------------------------------------------------------------
// Merged top-k bit-identity
// ---------------------------------------------------------------------------

/// The tentpole invariant, swept over shard counts and query kinds:
/// LiveSearcher over (sharded base + delta) answers bit-identically to
/// one monolithic GatSearcher over the same data rebuilt as one
/// dataset — before a merge, after a merge, and after post-merge
/// check-ins reopened trajectories for already-sealed users.
class LiveBitIdentity : public ::testing::TestWithParam<uint32_t> {};

TEST_P(LiveBitIdentity, MatchesMonolithicRebuildAcrossMerges) {
  const uint32_t num_shards = GetParam();
  const CityProfile profile = CityProfile::Testing(150, 23);
  ShardOptions options;
  options.num_shards = num_shards;
  options.build_threads = 1;
  LiveIndex live(GenerateCity(profile), GatConfig{}, options);
  const LiveSearcher searcher(live);
  const auto queries = TestQueries(live.base(), 51, 5);
  Rng rng(7);

  const auto expect_monolithic = [&](const std::string& stage) {
    const auto view = live.Pin();
    const Dataset extended =
        live.base().ExtendWith(view->delta->trajectories);
    const GatIndex mono(extended);
    const GatSearcher reference(extended, mono);
    for (const Query& q : queries) {
      for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
        SearchStats stats;
        ASSERT_EQ(searcher.Search(q, 9, kind, &stats),
                  reference.Search(q, 9, kind))
            << stage << " shards=" << num_shards
            << " kind=" << static_cast<int>(kind);
        // The delta side must not leak into the gated pin counter.
        EXPECT_EQ(stats.index_pins, num_shards);
      }
    }
  };

  ASSERT_TRUE(live.Ingest(SampleCheckIns(live.base(), rng, 12, 500, 5)));
  expect_monolithic("pre-merge");

  ASSERT_TRUE(live.MergeDelta(num_shards));
  EXPECT_EQ(live.delta_trajectories(), 0u);
  EXPECT_EQ(live.base().generation(), 1u);
  EXPECT_EQ(live.sharded().generation_number(), 1u);
  expect_monolithic("post-merge");

  // The same users check in again: the merge sealed their previous
  // trajectories, so these open new ones at fresh global IDs.
  ASSERT_TRUE(live.Ingest(SampleCheckIns(live.base(), rng, 8, 500, 5)));
  EXPECT_EQ(live.delta_trajectories(), 5u);
  expect_monolithic("post-merge ingest");

  // A merge to a different shard cut is the same operation.
  const uint32_t other_shards = num_shards == 1 ? 2 : num_shards - 1;
  ASSERT_TRUE(live.MergeDelta(other_shards));
  EXPECT_EQ(live.sharded().num_shards(), other_shards);
  const auto view = live.Pin();
  EXPECT_EQ(view->generation->num_shards(), other_shards);
  const GatIndex mono(live.base());
  const GatSearcher reference(live.base(), mono);
  for (const Query& q : queries) {
    SearchStats stats;
    ASSERT_EQ(searcher.Search(q, 9, QueryKind::kAtsq, &stats),
              reference.Search(q, 9, QueryKind::kAtsq));
    EXPECT_EQ(stats.index_pins, other_shards);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, LiveBitIdentity,
                         ::testing::Values(1u, 2u, 4u));

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

/// Advances one microsecond per read, so which boundary expires a
/// request is fixed by how many boundaries checked the clock before it.
class TickingClock final : public Clock {
 public:
  uint64_t NowMicros() const override {
    return reads_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<uint64_t> reads_{0};
};

TEST(LiveDeadline, ExpiryBeforeTheDeltaScanRefusesTheRead) {
  constexpr uint32_t kShards = 2;
  ShardOptions options;
  options.num_shards = kShards;
  options.build_threads = 1;
  LiveIndex live(GenerateCity(CityProfile::Testing(150, 23)), GatConfig{},
                 options);
  Rng rng(7);
  ASSERT_TRUE(live.Ingest(SampleCheckIns(live.base(), rng, 12, 500, 5)));
  // No executor: the shard sweeps run inline, so the clock reads come
  // in a fixed order.
  const LiveSearcher searcher(live);
  const QueryEngine engine(searcher);
  const std::vector<Query> queries = TestQueries(live.base(), 51, 1);
  ASSERT_EQ(queries.size(), 1u);

  // Reads 0..3 are the engine's query boundary, the base sweep's entry
  // and one per shard; read 4 is the delta scan's boundary. A deadline
  // of 4 lets the whole base sweep run and expires the read right
  // before its delta scan.
  TickingClock clock;
  const QueryContext context{.clock = &clock, .deadline_micros = 2 + kShards};
  const BatchResult batch =
      engine.Run(queries, /*k=*/9, QueryKind::kAtsq, &context);
  EXPECT_EQ(batch.totals.index_pins, kShards);  // the base sweep ran
  EXPECT_EQ(batch.statuses[0], QueryStatus::kDeadlineExceeded);
  EXPECT_TRUE(batch.results[0].empty());
  EXPECT_EQ(batch.deadline_exceeded, 1u);
  EXPECT_EQ(batch.totals.deadline_skips, 1u);

  // Dead on arrival: the base sweep marks the refusal and the delta
  // scan's boundary does not count it a second time.
  const ManualClock late(/*start_micros=*/10);
  const QueryContext expired{.clock = &late, .deadline_micros = 5};
  SearchStats stats;
  EXPECT_TRUE(
      searcher.Search(queries[0], 9, QueryKind::kAtsq, &stats, &expired)
          .empty());
  EXPECT_EQ(stats.deadline_skips, 1u);
  EXPECT_EQ(stats.index_pins, 0u);
}

// ---------------------------------------------------------------------------
// Generation change under fire
// ---------------------------------------------------------------------------

TEST(LiveMerge, GenerationChangeUnderQueryFireLosesNothing) {
  // The acceptance gate: ReloadGeneration moves the serving cut
  // 4→3→4→… shards while reader threads hammer the live searcher.
  // Zero failed queries, zero divergence — every answer bit-identical
  // to the (unchanging) monolithic reference; a view pinned before the
  // first merge keeps serving its retired generation bit-identically
  // until released.
  const CityProfile profile = CityProfile::Testing(240, 61);
  ShardOptions options;
  options.num_shards = 4;
  options.build_threads = 1;
  LiveIndex live(GenerateCity(profile), GatConfig{}, options);
  Executor executor(4);
  const LiveSearcher searcher(live, {}, &executor);
  const auto queries = TestQueries(live.base(), 71, 4);
  const GatIndex mono(live.base());
  const GatSearcher reference(live.base(), mono);
  std::vector<ResultList> expected;
  for (const Query& q : queries) {
    expected.push_back(reference.Search(q, 9, QueryKind::kAtsq));
  }

  // Pinned before any generation change: the drain witness.
  const auto old_view = live.Pin();
  ASSERT_EQ(old_view->generation->number(), 0u);

  constexpr int kRounds = 8;
  std::atomic<bool> stop{false};
  std::atomic<bool> diverged{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      uint64_t i = static_cast<uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t qi = i++ % queries.size();
        SearchStats stats;
        if (searcher.Search(queries[qi], 9, QueryKind::kAtsq, &stats) !=
                expected[qi] ||
            (stats.index_pins != 3 && stats.index_pins != 4)) {
          diverged.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(live.MergeDelta(round % 2 == 0 ? 3 : 4, "", &executor));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  EXPECT_FALSE(diverged.load());
  EXPECT_EQ(live.sharded().generations_published(), kRounds);
  EXPECT_EQ(live.sharded().generation_number(), kRounds);
  EXPECT_EQ(live.merges_completed(), kRounds);

  // The pinned generation survived every swap: its 4-shard cut still
  // answers bit-identically through the explicit-generation API.
  const ShardedSearcher base_searcher(live.sharded());
  ASSERT_EQ(old_view->generation->num_shards(), 4u);
  for (size_t i = 0; i < queries.size(); ++i) {
    SearchStats stats;
    EXPECT_EQ(base_searcher.SearchGeneration(*old_view->generation,
                                             queries[i], 9, QueryKind::kAtsq,
                                             &stats),
              expected[i]);
    EXPECT_EQ(stats.index_pins, 4u);
  }
}

// ---------------------------------------------------------------------------
// Snapshot-backed generations
// ---------------------------------------------------------------------------

TEST(LiveMerge, MmapGenerationsGetFreshDirectoriesPerMerge) {
  const std::string dir = ::testing::TempDir() + "/live_gen_snapshots";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ShardOptions options;
  options.num_shards = 2;
  options.build_threads = 1;
  options.snapshot_dir = dir;
  options.mmap_disk_tier = true;
  options.cache_config.block_bytes = 1024;
  options.cache_config.capacity_bytes = 1 << 20;
  {
    LiveIndex live(GenerateCity(CityProfile::Testing(140, 37)), GatConfig{},
                   options);
    ASSERT_EQ(live.sharded().shards_mmap_served(), 2u);
    Rng rng(11);
    ASSERT_TRUE(live.Ingest(SampleCheckIns(live.base(), rng, 10, 700, 4)));

    // mmap generations need somewhere to live: a merge without a
    // snapshot dir is refused with serving untouched.
    EXPECT_FALSE(live.MergeDelta(2));
    EXPECT_EQ(live.sharded().generation_number(), 0u);
    EXPECT_EQ(live.delta_trajectories(), 4u);

    // Each merged generation persists under its own gen-<n> directory —
    // never over the mapped predecessor's files.
    ASSERT_TRUE(live.MergeDelta(2, dir));
    EXPECT_TRUE(std::filesystem::exists(
        ShardedIndex::SnapshotPath(dir + "/gen-1", 0, 2)));
    ASSERT_TRUE(live.Ingest(SampleCheckIns(live.base(), rng, 6, 800, 3)));
    ASSERT_TRUE(live.MergeDelta(3, dir));
    EXPECT_TRUE(std::filesystem::exists(
        ShardedIndex::SnapshotPath(dir + "/gen-2", 2, 3)));
    EXPECT_EQ(live.sharded().shards_mmap_served(), 3u);

    const LiveSearcher searcher(live);
    const GatIndex mono(live.base());
    const GatSearcher reference(live.base(), mono);
    for (const Query& q : TestQueries(live.base(), 13, 4)) {
      EXPECT_EQ(searcher.Search(q, 9, QueryKind::kOatsq),
                reference.Search(q, 9, QueryKind::kOatsq));
    }
  }
  std::filesystem::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Ingest / merge / query races
// ---------------------------------------------------------------------------

TEST(LiveRace, ConcurrentIngestsMergesAndQueriesConverge) {
  // The TSan centerpiece: writers stream batches, a merger compacts at
  // alternating shard cuts, readers search throughout. Nothing may
  // tear; when the dust settles every accepted check-in is accounted
  // for and the final answer is bit-identical to the monolithic
  // rebuild of the final state.
  const CityProfile profile = CityProfile::Testing(160, 43);
  ShardOptions options;
  options.num_shards = 2;
  options.build_threads = 1;
  LiveIndex live(GenerateCity(profile), GatConfig{}, options);
  Executor executor(4);
  const LiveSearcher searcher(live, {}, &executor);
  const auto queries = TestQueries(live.base(), 29, 4);
  // Writers sample check-ins from a copy of the starting base: `base()`
  // is the latest merged dataset, which the merger reassigns under them.
  const Dataset sample_frame = GenerateCity(profile);

  constexpr int kWriters = 2;
  constexpr int kBatchesPerWriter = 40;
  constexpr size_t kBatchSize = 5;
  constexpr int kMerges = 5;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&live, &sample_frame, w] {
      Rng rng(100 + static_cast<uint64_t>(w));
      for (int b = 0; b < kBatchesPerWriter; ++b) {
        const auto batch = SampleCheckIns(
            sample_frame, rng, kBatchSize,
            1000 + static_cast<uint64_t>(w) * 100, 7);
        ASSERT_TRUE(live.Ingest(batch));
      }
    });
  }
  threads.emplace_back([&live, &executor] {
    for (int m = 0; m < kMerges; ++m) {
      ASSERT_TRUE(live.MergeDelta(m % 2 == 0 ? 3 : 2, "", &executor));
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      uint64_t i = static_cast<uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t qi = i++ % queries.size();
        const ResultList results =
            searcher.Search(queries[qi], 9, QueryKind::kAtsq);
        if (results.size() > 9) return;  // impossible; keeps the loop honest
      }
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  EXPECT_EQ(live.watermark(), kWriters * kBatchesPerWriter * kBatchSize);
  EXPECT_EQ(live.batches_rejected(), 0u);
  EXPECT_EQ(live.merges_completed(), kMerges);

  // Final consistency: the pinned view pairs the delta with exactly the
  // base generation it complements, and the merged answer equals the
  // monolithic rebuild of base ⊕ delta.
  const auto view = live.Pin();
  EXPECT_EQ(view->delta->base_generation, view->generation->number());
  EXPECT_EQ(view->delta->base_trajectories,
            view->generation->total_trajectories());
  const Dataset final_state =
      live.base().ExtendWith(view->delta->trajectories);
  const GatIndex mono(final_state);
  const GatSearcher reference(final_state, mono);
  for (const Query& q : queries) {
    for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
      EXPECT_EQ(searcher.Search(q, 9, kind), reference.Search(q, 9, kind));
    }
  }
}

}  // namespace
}  // namespace gat
