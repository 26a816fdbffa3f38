// Tests for the storage subsystem (gat/storage): mmap-backed snapshot
// serving and the block-cached disk tier.
//
// The load-bearing invariants:
//   * a MappedSnapshot answers bit-identically to the built / stream-
//     loaded index, with equal logical disk_reads (same access pattern,
//     real I/O underneath);
//   * malformed files (truncation, bit rot, bad magic/version,
//     config/fingerprint mismatch) fail as nullptr — swept over both
//     loaders in snapshot_test.cc, since they share one parser;
//   * mmap edge cases: empty-shard snapshots, mappings whose last block
//     is partial, read-only file permissions;
//   * the BlockCache is a correct sharded LRU with exact stats, and the
//     DiskAccessCounter tolerates concurrent accumulation.

#include <sys/stat.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/query_engine.h"
#include "gat/index/snapshot.h"
#include "gat/search/gat_search.h"
#include "gat/shard/sharded_index.h"
#include "gat/shard/sharded_searcher.h"
#include "gat/storage/block_cache.h"
#include "gat/storage/mapped_file.h"
#include "gat/storage/loaded_snapshot.h"
#include "gat/storage/mapped_snapshot.h"

namespace gat {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<Query> TestQueries(const Dataset& dataset, uint64_t seed,
                               uint32_t count = 10) {
  QueryWorkloadParams wp;
  wp.num_queries = count;
  wp.seed = seed;
  QueryGenerator qgen(dataset, wp);
  return qgen.Workload();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// MappedFile
// ---------------------------------------------------------------------------

TEST(MappedFile, MissingFileAndDirectoryFailCleanly) {
  MappedFile f;
  EXPECT_FALSE(f.Open(TempPath("no_such_file.bin")));
  EXPECT_FALSE(f.valid());
  EXPECT_FALSE(f.Open(::testing::TempDir()));  // a directory, not a file
  EXPECT_FALSE(f.valid());
}

TEST(MappedFile, EmptyFileMapsAsValidEmpty) {
  const std::string path = TempPath("empty.bin");
  WriteFileBytes(path, "");
  MappedFile f;
  ASSERT_TRUE(f.Open(path));
  EXPECT_TRUE(f.valid());
  EXPECT_EQ(f.size(), 0u);
  EXPECT_EQ(f.data(), nullptr);
  std::remove(path.c_str());
}

TEST(MappedFile, ReadOnlyPermissionsSuffice) {
  const std::string path = TempPath("readonly.bin");
  WriteFileBytes(path, "serving never writes");
  ASSERT_EQ(::chmod(path.c_str(), 0444), 0);
  MappedFile f;
  ASSERT_TRUE(f.Open(path));
  EXPECT_EQ(f.size(), 20u);
  EXPECT_EQ(std::string(f.data(), f.size()), "serving never writes");
  ::chmod(path.c_str(), 0644);
  std::remove(path.c_str());
}

TEST(MappedFile, MoveTransfersTheMapping) {
  const std::string path = TempPath("move.bin");
  WriteFileBytes(path, "abcd");
  MappedFile a;
  ASSERT_TRUE(a.Open(path));
  MappedFile b(std::move(a));
  EXPECT_FALSE(a.valid());
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(std::string(b.data(), b.size()), "abcd");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// BlockCache
// ---------------------------------------------------------------------------

/// The tier's demand protocol: a missed block is published only after
/// the (test-elided) read-and-verify step.
bool TouchAndPublish(BlockCache& cache, const BlockFileToken& file,
                     uint64_t block) {
  const bool hit = cache.Touch(file, block);
  if (!hit) cache.Publish(file, block);
  return hit;
}

TEST(BlockCache, LruEvictionAndExactStats) {
  BlockCacheConfig config;
  config.block_bytes = 512;
  config.capacity_bytes = 2 * 512;  // two blocks
  config.shards = 1;                // one LRU list: order fully observable
  BlockCache cache(config);
  ASSERT_EQ(cache.capacity_blocks(), 2u);
  const BlockFileToken file = cache.RegisterFile();

  EXPECT_FALSE(TouchAndPublish(cache, file, 0));  // miss, resident {0}
  EXPECT_FALSE(TouchAndPublish(cache, file, 1));  // miss, resident {0,1}
  EXPECT_TRUE(TouchAndPublish(cache, file, 0));   // hit, 0 now MRU
  EXPECT_FALSE(TouchAndPublish(cache, file, 2));  // miss, evicts LRU = 1
  EXPECT_TRUE(TouchAndPublish(cache, file, 0));   // still resident
  EXPECT_FALSE(TouchAndPublish(cache, file, 1));  // was evicted: miss again

  const BlockCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(cache.ResidentBlocks(), 2u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 2.0 / 6.0);
}

TEST(BlockCache, MissIsNotResidentUntilPublished) {
  // The verify-before-publish contract: a concurrent lookup between a
  // miss and its Publish must also miss, never consume an unverified
  // block.
  BlockCache cache(BlockCacheConfig{.block_bytes = 512,
                                    .capacity_bytes = 8 * 512,
                                    .shards = 1});
  const BlockFileToken file = cache.RegisterFile();
  EXPECT_FALSE(cache.Touch(file, 5));  // miss — not yet published
  EXPECT_FALSE(cache.Touch(file, 5));  // still a miss
  EXPECT_EQ(cache.ResidentBlocks(), 0u);
  cache.Publish(file, 5);
  cache.Publish(file, 5);  // racing duplicate publish is idempotent
  EXPECT_TRUE(cache.Touch(file, 5));
  EXPECT_EQ(cache.ResidentBlocks(), 1u);
}

TEST(BlockCache, FilesDoNotAliasEachOthersBlocks) {
  BlockCache cache(BlockCacheConfig{.block_bytes = 512,
                                    .capacity_bytes = 64 * 512});
  const BlockFileToken a = cache.RegisterFile();
  const BlockFileToken b = cache.RegisterFile();
  ASSERT_NE(a.id, b.id);
  EXPECT_FALSE(TouchAndPublish(cache, a, 7));
  EXPECT_FALSE(TouchAndPublish(cache, b, 7));  // same index, other file
  EXPECT_TRUE(TouchAndPublish(cache, a, 7));
  EXPECT_TRUE(TouchAndPublish(cache, b, 7));
}

TEST(BlockCache, ConcurrentTouchesKeepExactTotals) {
  BlockCache cache(BlockCacheConfig{.block_bytes = 512,
                                    .capacity_bytes = 4096 * 512,
                                    .shards = 8});
  const BlockFileToken file = cache.RegisterFile();
  constexpr int kThreads = 4;
  constexpr uint64_t kTouches = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, file, t] {
      for (uint64_t i = 0; i < kTouches; ++i) {
        TouchAndPublish(cache, file, (static_cast<uint64_t>(t) << 32) | i);
      }
    });
  }
  for (auto& t : threads) t.join();
  const BlockCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kTouches);
  EXPECT_EQ(stats.misses, kThreads * kTouches);  // all keys distinct
}

TEST(DiskAccessCounter, ConcurrentAccumulationIsExact) {
  DiskAccessCounter counter;
  constexpr int kThreads = 4;
  constexpr uint64_t kIncrements = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kIncrements; ++i) {
        counter.RecordRead();
        counter.RecordBlockHit();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Reads(), kThreads * kIncrements);
  EXPECT_EQ(counter.BlockHits(), kThreads * kIncrements);
}

// ---------------------------------------------------------------------------
// MappedSnapshot — equivalence
// ---------------------------------------------------------------------------

TEST(MappedSnapshot, BitIdenticalAnswersAndEqualDiskReads) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(200, 31));
  const GatConfig config{.depth = 6, .memory_levels = 4, .tas_intervals = 2};
  const GatIndex built(dataset, config);
  const std::string path = TempPath("mapped_roundtrip.gats");
  ASSERT_TRUE(SaveSnapshot(built, path));

  const LoadedSnapshot snap = LoadedSnapshot::LoadMapped(path);
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->config(), built.config());

  // Identical tier accounting (Figure 8's memory-cost series).
  const auto mb = built.memory_breakdown();
  const auto ml = snap->memory_breakdown();
  EXPECT_EQ(ml.MainMemoryTotal(), mb.MainMemoryTotal());
  EXPECT_EQ(ml.DiskTotal(), mb.DiskTotal());

  const GatSearcher fresh(dataset, built);
  const GatSearcher mapped(dataset, *snap);
  uint64_t total_block_traffic = 0;
  for (const Query& q : TestQueries(dataset, 77)) {
    for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
      SearchStats fresh_stats, mapped_stats;
      const ResultList a = fresh.Search(q, 9, kind, &fresh_stats);
      const ResultList b = mapped.Search(q, 9, kind, &mapped_stats);
      ASSERT_EQ(a, b) << ToString(kind);
      EXPECT_EQ(mapped_stats.candidates_retrieved,
                fresh_stats.candidates_retrieved);
      EXPECT_EQ(mapped_stats.tas_pruned, fresh_stats.tas_pruned);
      EXPECT_EQ(mapped_stats.distance_computations,
                fresh_stats.distance_computations);
      // The subsystem's core contract: identical logical reads, only
      // the physics underneath changed.
      EXPECT_EQ(mapped_stats.disk_reads, fresh_stats.disk_reads);
      // The simulated side never sees blocks; the mapped side must.
      EXPECT_EQ(fresh_stats.block_hits + fresh_stats.blocks_read, 0u);
      total_block_traffic +=
          mapped_stats.block_hits + mapped_stats.blocks_read;
    }
  }
  EXPECT_GT(total_block_traffic, 0u);
  EXPECT_GT(snap.mapped()->cache().Snapshot().DemandLookups(), 0u);
  std::remove(path.c_str());
}

TEST(MappedSnapshot, ResaveOfMappedIndexIsByteIdentical) {
  // SaveSnapshot writes through the component views, so an index served
  // from a mapping must snapshot to exactly the bytes it was served
  // from — the serving form does not degrade persistence.
  const Dataset dataset = GenerateCity(CityProfile::Testing(120, 5));
  const GatIndex built(dataset, GatConfig{.depth = 5, .memory_levels = 3});
  const std::string p1 = TempPath("resave1.gats");
  const std::string p2 = TempPath("resave2.gats");
  ASSERT_TRUE(SaveSnapshot(built, p1));
  const LoadedSnapshot snap = LoadedSnapshot::LoadMapped(p1);
  ASSERT_TRUE(snap);
  ASSERT_TRUE(SaveSnapshot(*snap, p2));
  EXPECT_EQ(ReadFileBytes(p1), ReadFileBytes(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(MappedSnapshot, ExecutorValidationIsBitIdentical) {
  // 300 trajectories puts the APL past the parallel-validation row
  // threshold, so the executor path actually fans out.
  const Dataset dataset = GenerateCity(CityProfile::Testing(300, 47));
  const GatIndex built(dataset, GatConfig{.depth = 5, .memory_levels = 3});
  const std::string path = TempPath("mapped_executor.gats");
  ASSERT_TRUE(SaveSnapshot(built, path));

  Executor executor(4);
  MappedSnapshotOptions options;
  options.executor = &executor;
  const LoadedSnapshot parallel = LoadedSnapshot::LoadMapped(path, options);
  const LoadedSnapshot sequential = LoadedSnapshot::LoadMapped(path);
  ASSERT_TRUE(parallel);
  ASSERT_TRUE(sequential);

  const GatSearcher a(dataset, *sequential);
  const GatSearcher b(dataset, *parallel);
  for (const Query& q : TestQueries(dataset, 99, 5)) {
    SearchStats sa, sb;
    ASSERT_EQ(a.Search(q, 9, QueryKind::kAtsq, &sa),
              b.Search(q, 9, QueryKind::kAtsq, &sb));
    EXPECT_EQ(sb.disk_reads, sa.disk_reads);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// MappedSnapshot — mmap edge cases
// ---------------------------------------------------------------------------

TEST(MappedSnapshot, MappingEndingMidBlockServesCorrectly) {
  // Snapshot sizes are never block-aligned, so the last cache block is
  // partial; with a block size larger than the whole file, *every* read
  // lands in one partial block. Both must serve and verify correctly.
  const Dataset dataset = GenerateCity(CityProfile::Testing(150, 23));
  const GatIndex built(dataset, GatConfig{.depth = 5, .memory_levels = 3});
  const std::string path = TempPath("mapped_midblock.gats");
  ASSERT_TRUE(SaveSnapshot(built, path));
  const auto file_bytes = std::filesystem::file_size(path);

  const GatSearcher fresh(dataset, built);
  for (const uint32_t block_bytes : {512u, 4096u, 1u << 20}) {
    SCOPED_TRACE(block_bytes);
    ASSERT_NE(file_bytes % block_bytes, 0u);  // the premise of the test
    MappedSnapshotOptions options;
    options.cache_config.block_bytes = block_bytes;
    const LoadedSnapshot snap = LoadedSnapshot::LoadMapped(path, options);
    ASSERT_TRUE(snap);
    const GatSearcher mapped(dataset, *snap);
    for (const Query& q : TestQueries(dataset, 41, 5)) {
      SearchStats fresh_stats, mapped_stats;
      ASSERT_EQ(fresh.Search(q, 9, QueryKind::kAtsq, &fresh_stats),
                mapped.Search(q, 9, QueryKind::kAtsq, &mapped_stats));
      EXPECT_EQ(mapped_stats.disk_reads, fresh_stats.disk_reads);
    }
  }
  std::remove(path.c_str());
}

TEST(MappedSnapshot, ReadOnlySnapshotFileServes) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(80, 29));
  const GatIndex built(dataset, GatConfig{.depth = 4, .memory_levels = 2});
  const std::string path = TempPath("mapped_readonly.gats");
  ASSERT_TRUE(SaveSnapshot(built, path));
  ASSERT_EQ(::chmod(path.c_str(), 0444), 0);

  const LoadedSnapshot snap = LoadedSnapshot::LoadMapped(path);
  ASSERT_TRUE(snap);
  const GatSearcher fresh(dataset, built);
  const GatSearcher mapped(dataset, *snap);
  for (const Query& q : TestQueries(dataset, 43, 5)) {
    EXPECT_EQ(fresh.Search(q, 9, QueryKind::kAtsq),
              mapped.Search(q, 9, QueryKind::kAtsq));
  }
  ::chmod(path.c_str(), 0644);
  std::remove(path.c_str());
}

TEST(MappedSnapshot, EmptyShardSnapshotServes) {
  // An empty dataset builds a valid index over the fallback grid space;
  // its snapshot must mmap-serve like any other (the empty-shard
  // cold-start path).
  Dataset empty;
  empty.Finalize();
  const GatIndex built(empty);
  const std::string path = TempPath("mapped_empty.gats");
  ASSERT_TRUE(SaveSnapshot(built, path, DatasetFingerprint(empty)));

  MappedSnapshotOptions options;
  options.expected_fingerprint = DatasetFingerprint(empty);
  const LoadedSnapshot snap = LoadedSnapshot::LoadMapped(path, options);
  ASSERT_TRUE(snap);
  EXPECT_EQ(snap->config(), built.config());

  const GatSearcher searcher(empty, *snap);
  const Dataset query_frame = GenerateCity(CityProfile::Testing(20, 3));
  for (const Query& q : TestQueries(query_frame, 17, 3)) {
    EXPECT_TRUE(searcher.Search(q, 5, QueryKind::kAtsq).empty());
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Sharded and engine-driven mmap serving
// ---------------------------------------------------------------------------

TEST(ShardedMmap, BitIdenticalAtOneTwoFourShards) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(240, 61));
  const GatIndex single_index(dataset);
  const GatSearcher single(dataset, single_index);
  const auto queries = TestQueries(dataset, 71, 6);

  for (const uint32_t num_shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(num_shards);
    const std::string dir =
        TempPath("sharded_mmap_" + std::to_string(num_shards));
    ShardOptions options;
    options.num_shards = num_shards;
    options.build_threads = 1;
    options.snapshot_dir = dir;
    options.mmap_disk_tier = true;
    options.cache_config.block_bytes = 1024;
    options.cache_config.capacity_bytes = 1 << 20;

    // Cold: built + snapshotted + immediately mmap-served.
    const ShardedIndex cold(dataset, {}, options);
    EXPECT_EQ(cold.shards_loaded_from_snapshot(), 0u);
    EXPECT_EQ(cold.shards_mmap_served(), num_shards);
    ASSERT_NE(cold.block_cache(), nullptr);

    // Warm: every shard restored straight from its mapping.
    const ShardedIndex warm(dataset, {}, options);
    EXPECT_EQ(warm.shards_loaded_from_snapshot(), num_shards);
    EXPECT_EQ(warm.shards_mmap_served(), num_shards);

    // In-memory reference over the same partition.
    ShardOptions plain;
    plain.num_shards = num_shards;
    plain.build_threads = 1;
    const ShardedIndex memory(dataset, {}, plain);

    const ShardedSearcher mapped(warm);
    const ShardedSearcher reference(memory);
    for (const Query& q : queries) {
      SearchStats mapped_stats, reference_stats;
      const ResultList got = mapped.Search(q, 9, QueryKind::kAtsq,
                                           &mapped_stats);
      const ResultList want = reference.Search(q, 9, QueryKind::kAtsq,
                                               &reference_stats);
      ASSERT_EQ(got, want);
      ASSERT_EQ(got, single.Search(q, 9, QueryKind::kAtsq));
      EXPECT_EQ(mapped_stats.disk_reads, reference_stats.disk_reads);
    }
    // The shards really did read through the shared cache.
    EXPECT_GT(warm.block_cache()->Snapshot().DemandLookups(), 0u);
    std::filesystem::remove_all(dir);
  }
}

TEST(MappedSnapshot, EngineBatchesMatchHeapAtOneAndFourThreads) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(240, 67));
  const GatIndex built(dataset);
  const std::string path = TempPath("engine_mapped.gats");
  ASSERT_TRUE(SaveSnapshot(built, path));
  const auto queries = TestQueries(dataset, 73, 8);

  MappedSnapshotOptions options;
  options.cache_config.block_bytes = 1024;
  options.cache_config.capacity_bytes = 8 << 20;  // everything fits
  const LoadedSnapshot snap = LoadedSnapshot::LoadMapped(path, options);
  ASSERT_TRUE(snap);
  const GatSearcher mapped(dataset, *snap);

  // Concurrent engine batches over one mapping answer exactly like the
  // heap-resident index, with equal logical disk_reads.
  const GatSearcher heap(dataset, built);
  const QueryEngine reference(heap, EngineOptions{.threads = 1});
  const BatchResult want = reference.Run(queries, 9, QueryKind::kAtsq);
  for (const uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const QueryEngine engine(mapped, EngineOptions{.threads = threads});
    const BatchResult got = engine.Run(queries, 9, QueryKind::kAtsq);
    ASSERT_EQ(got.results.size(), want.results.size());
    for (size_t i = 0; i < want.results.size(); ++i) {
      EXPECT_EQ(got.results[i], want.results[i]);
    }
    EXPECT_EQ(got.totals.disk_reads, want.totals.disk_reads);
  }
  EXPECT_GT(snap.mapped()->cache().Snapshot().DemandLookups(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gat
