// Cold-cache thrash soak for the mmap storage tier, meant to run under
// TSan and ASan (ctest label: soak): concurrent batches hammer a
// MappedDiskTier through a cache far smaller than the working set —
// every query's demand misses race publishes and evictions the whole
// time. Alongside, mappings of the same file register and unregister
// against the same shared cache (the hot-swap pattern), so reads race
// file retirement and id reuse.
//
// The properties thrash must not bend:
//  1. every concurrent batch answers bit-identically to a quiescent
//     single-threaded run (and so do all its logical disk_reads
//     totals);
//  2. nothing crashes, deadlocks, or trips the tier's CRC verification
//     under eviction/readmission churn;
//  3. the churned cache's bookkeeping stays exact: residency never
//     exceeds capacity and retired files leave nothing behind.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/executor.h"
#include "gat/engine/query_engine.h"
#include "gat/index/apl.h"
#include "gat/index/snapshot.h"
#include "gat/search/gat_search.h"
#include "gat/storage/loaded_snapshot.h"
#include "gat/storage/mapped_snapshot.h"

namespace gat {
namespace {

constexpr uint32_t kBatchThreads = 4;
constexpr uint32_t kRounds = 6;
constexpr size_t kTopK = 7;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

class ColdCacheSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = GenerateCity(CityProfile::Testing(/*trajectories=*/300,
                                                 /*seed=*/41));
    const GatConfig config{.depth = 6, .memory_levels = 4,
                           .tas_intervals = 2};
    index_ = std::make_unique<GatIndex>(dataset_, config);
    path_ = TempPath("cold_cache_soak.gats");
    ASSERT_TRUE(SaveSnapshot(*index_, path_));

    QueryWorkloadParams wp;
    wp.num_queries = 24;
    wp.seed = 9;
    QueryGenerator qgen(dataset_, wp);
    queries_ = qgen.Workload();

    // Quiescent reference over the built index (simulated tier).
    const GatSearcher fresh(dataset_, *index_);
    const QueryEngine reference(fresh, EngineOptions{.threads = 1});
    want_ = reference.Run(queries_, kTopK, QueryKind::kAtsq);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  LoadedSnapshot LoadThrashing(BlockCache* shared) const {
    MappedSnapshotOptions options;
    options.cache = shared;
    return LoadedSnapshot::LoadMapped(path_, options);
  }

  Dataset dataset_;
  std::unique_ptr<GatIndex> index_;
  std::string path_;
  std::vector<Query> queries_;
  BatchResult want_;
};

TEST_F(ColdCacheSoakTest, ConcurrentThrashingBatchesStayBitIdentical) {
  // One deliberately thrash-sized shared cache: far fewer blocks than
  // the per-batch working set, so demand misses, publishes and
  // evictions all fire constantly.
  BlockCacheConfig cache_config;
  cache_config.block_bytes = 512;
  cache_config.capacity_bytes = 32 * 512;
  cache_config.shards = 2;
  BlockCache cache(cache_config);
  Executor executor(kBatchThreads);
  std::atomic<uint32_t> mismatches{0};
  std::atomic<uint32_t> churn_failures{0};
  {
    const auto snap = LoadThrashing(&cache);
    ASSERT_TRUE(snap);
    const GatSearcher searcher(dataset_, *snap);
    EngineOptions options;
    options.executor = &executor;
    const QueryEngine engine(searcher, options);

    // Background churn: mappings of the same file register against the
    // shared cache, serve a few fetches, and retire — concurrent reads
    // must survive Unregister and id reuse.
    std::atomic<bool> stop{false};
    std::thread churn([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto transient = LoadThrashing(&cache);
        if (!transient) {  // gtest asserts stay on the main thread
          churn_failures.fetch_add(1);
          break;
        }
        DiskAccessCounter counter;
        const Apl& apl = transient->apl();
        for (TrajectoryId t = 0; t < 16 && t < apl.num_trajectories(); ++t) {
          (void)apl.ActivitiesOf(t, &counter);  // a demand fetch of row t
        }
        // transient destructs here: unregister, purge, id reuse.
      }
    });

    std::vector<std::thread> drivers;
    for (uint32_t d = 0; d < 3; ++d) {
      drivers.emplace_back([&] {
        for (uint32_t round = 0; round < kRounds; ++round) {
          const BatchResult got =
              engine.Run(queries_, kTopK, QueryKind::kAtsq);
          if (got.totals.disk_reads != want_.totals.disk_reads) {
            mismatches.fetch_add(1);
          }
          for (size_t i = 0; i < queries_.size(); ++i) {
            if (got.results[i] != want_.results[i]) mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : drivers) t.join();
    stop.store(true, std::memory_order_release);
    churn.join();
    EXPECT_LE(cache.ResidentBlocks(), cache.capacity_blocks());
  }  // the serving mapping retires here, last of all

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(churn_failures.load(), 0u);
  // Every mapping has unregistered, so nothing may stay resident.
  EXPECT_EQ(cache.ResidentBlocks(), 0u);
  const BlockCacheStats stats = cache.Snapshot();
  EXPECT_GT(stats.evictions, 0u);      // it thrashed
  EXPECT_GT(stats.files_retired, 1u);  // it churned
  EXPECT_GT(stats.misses, 0u);         // demand reads ran cold
}

}  // namespace
}  // namespace gat
