// Tests for live snapshot reload: the BlockCache file-generation /
// Unregister protocol, the parallel CRC sweep of MappedSnapshot::Load,
// and whole-generation publication (ShardedIndex::ReloadGeneration +
// PinGeneration) end to end.
//
// The load-bearing invariants:
//   * Crc32Combine folds chunk CRCs to exactly the sequential checksum,
//     so the parallel load sweep accepts/rejects identically;
//   * Unregister purges every resident block of the retired mapping and
//     the generation check makes a recycled file id airtight: a token
//     kept past its Unregister can neither hit the successor's blocks
//     nor resurrect its own — even racing the retirement;
//   * ReloadGeneration swaps atomically under fire: queries hammering
//     the index through any number of mid-flight equivalent-generation
//     swaps stay bit-identical to the unsharded reference, a pinned
//     generation drains before its blocks are purged, and a corrupted
//     snapshot in the reload directory is rebuilt, never served.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/query_engine.h"
#include "gat/index/snapshot.h"
#include "gat/index/snapshot_format.h"
#include "gat/search/gat_search.h"
#include "gat/shard/sharded_index.h"
#include "gat/shard/sharded_searcher.h"
#include "gat/storage/block_cache.h"
#include "gat/storage/loaded_snapshot.h"
#include "gat/storage/mapped_snapshot.h"
#include "gat/util/rng.h"

namespace gat {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<Query> TestQueries(const Dataset& dataset, uint64_t seed,
                               uint32_t count = 6) {
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
// Crc32Combine
// ---------------------------------------------------------------------------

TEST(Crc32Combine, FoldsChunksToTheSequentialChecksum) {
  using snapshot_format::Crc32;
  using snapshot_format::Crc32Combine;
  Rng rng(20130715);
  std::string data(10000, '\0');
  for (char& c : data) c = static_cast<char>(rng.NextU32(256));

  const uint32_t whole = Crc32(data.data(), data.size());
  // Every split point of a two-chunk fold, strided; plus degenerate
  // empty chunks on either side.
  for (size_t cut : {size_t{0}, size_t{1}, size_t{511}, size_t{512},
                     size_t{4096}, data.size() - 1, data.size()}) {
    const uint32_t a = Crc32(data.data(), cut);
    const uint32_t b = Crc32(data.data() + cut, data.size() - cut);
    EXPECT_EQ(Crc32Combine(a, b, data.size() - cut), whole) << cut;
  }
  // Many-chunk fold at an awkward stride, like the load sweep's.
  const size_t stride = 739;
  uint32_t folded = Crc32(data.data(), std::min(stride, data.size()));
  for (size_t pos = stride; pos < data.size(); pos += stride) {
    const size_t len = std::min(stride, data.size() - pos);
    folded = Crc32Combine(folded, Crc32(data.data() + pos, len), len);
  }
  EXPECT_EQ(folded, whole);
}

// ---------------------------------------------------------------------------
// BlockCache: Unregister + file generations
// ---------------------------------------------------------------------------

TEST(BlockCacheReload, UnregisterPurgesEveryResidentBlock) {
  BlockCache cache(BlockCacheConfig{.block_bytes = 512,
                                    .capacity_bytes = 64 * 512,
                                    .shards = 4});
  const BlockFileToken keep = cache.RegisterFile();
  const BlockFileToken retire = cache.RegisterFile();
  for (uint64_t b = 0; b < 8; ++b) {
    cache.Publish(keep, b);
    cache.Publish(retire, b);
  }
  ASSERT_EQ(cache.ResidentBlocks(), 16u);

  cache.Unregister(retire);
  const BlockCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.invalidated, 8u);
  EXPECT_EQ(stats.files_retired, 1u);
  EXPECT_EQ(cache.ResidentBlocks(), 8u);  // the other file is untouched
  for (uint64_t b = 0; b < 8; ++b) {
    EXPECT_TRUE(cache.Touch(keep, b));
  }
  // Idempotent: re-retiring the same token is a counted no-op.
  cache.Unregister(retire);
  EXPECT_EQ(cache.Snapshot().files_retired, 1u);
}

TEST(BlockCacheReload, FileIdReuseAcrossGenerationsCannotAlias) {
  BlockCache cache(BlockCacheConfig{.block_bytes = 512,
                                    .capacity_bytes = 64 * 512,
                                    .shards = 1});
  const BlockFileToken old_gen = cache.RegisterFile();
  for (uint64_t b = 0; b < 4; ++b) cache.Publish(old_gen, b);
  cache.Unregister(old_gen);

  // The slot recycles: same id, newer generation.
  const BlockFileToken new_gen = cache.RegisterFile();
  ASSERT_EQ(new_gen.id, old_gen.id);
  ASSERT_NE(new_gen.generation, old_gen.generation);

  // The successor namespace starts empty — nothing of the old
  // generation survived the purge.
  for (uint64_t b = 0; b < 4; ++b) {
    EXPECT_FALSE(cache.Touch(new_gen, b));
  }
  // A straggler still holding the retired token: lookups always miss
  // (they may be aliased by the successor's blocks) and publishes are
  // dropped (they would resurrect purged blocks into the recycled id).
  cache.Publish(new_gen, 0);
  EXPECT_FALSE(cache.Touch(old_gen, 0));   // resident for new_gen only
  cache.Publish(old_gen, 1);               // dropped
  EXPECT_FALSE(cache.Touch(new_gen, 1));
  EXPECT_GT(cache.Snapshot().stale_drops, 0u);
  // The successor's own view is exact.
  EXPECT_TRUE(cache.Touch(new_gen, 0));
}

TEST(BlockCacheReload, ConcurrentStaleOpsNeverLeakIntoTheSuccessor) {
  // TSan exercise of the retire/lookup race: workers hammer a token
  // while the main thread unregisters it and recycles the id. The
  // generation re-check under the shard mutex must drop every straggler
  // operation — after the dust settles, nothing of the old generation
  // is resident.
  BlockCache cache(BlockCacheConfig{.block_bytes = 512,
                                    .capacity_bytes = 4096 * 512,
                                    .shards = 8});
  const BlockFileToken old_gen = cache.RegisterFile();
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&cache, old_gen, &stop, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t block = (static_cast<uint64_t>(t) << 8) | (i % 64);
        if (!cache.Touch(old_gen, block)) cache.Publish(old_gen, block);
        ++i;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  cache.Unregister(old_gen);  // racing the workers, by design
  const BlockFileToken new_gen = cache.RegisterFile();
  ASSERT_EQ(new_gen.id, old_gen.id);
  // Successor registered while stragglers still fire: its namespace
  // must be (and stay) empty until it publishes something itself.
  for (uint64_t b = 0; b < 64; ++b) {
    EXPECT_FALSE(cache.Touch(new_gen, b));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  // Deterministic stale ops on top of whatever the workers raced in
  // (on a loaded machine they may all have parked across the retire
  // window): a retired token neither hits nor inserts.
  cache.Publish(old_gen, 0);
  EXPECT_FALSE(cache.Touch(old_gen, 0));
  EXPECT_EQ(cache.ResidentBlocks(), 0u);
  EXPECT_GT(cache.Snapshot().stale_drops, 0u);
}

// ---------------------------------------------------------------------------
// MappedSnapshot: parallel CRC sweep
// ---------------------------------------------------------------------------

TEST(ParallelCrcSweep, AcceptsAndServesBitIdentically) {
  // 512-byte blocks over a ~200 KiB snapshot = ~400 blocks, past the
  // parallel-sweep threshold, so the executor path actually fans out.
  const Dataset dataset = GenerateCity(CityProfile::Testing(400, 7));
  const GatIndex built(dataset, GatConfig{.depth = 5, .memory_levels = 3});
  const std::string path = TempPath("parallel_crc.gats");
  ASSERT_TRUE(SaveSnapshot(built, path));
  ASSERT_GE(std::filesystem::file_size(path), 512u * 256u);

  Executor executor(4);
  MappedSnapshotOptions parallel_options;
  parallel_options.executor = &executor;
  parallel_options.cache_config.block_bytes = 512;
  const LoadedSnapshot parallel =
      LoadedSnapshot::LoadMapped(path, parallel_options);
  MappedSnapshotOptions sequential_options;
  sequential_options.cache_config.block_bytes = 512;
  const LoadedSnapshot sequential =
      LoadedSnapshot::LoadMapped(path, sequential_options);
  ASSERT_TRUE(parallel);
  ASSERT_TRUE(sequential);

  const GatSearcher a(dataset, *sequential);
  const GatSearcher b(dataset, *parallel);
  for (const Query& q : TestQueries(dataset, 99, 5)) {
    SearchStats sa, sb;
    ASSERT_EQ(a.Search(q, 9, QueryKind::kAtsq, &sa),
              b.Search(q, 9, QueryKind::kAtsq, &sb));
    // Identical per-block checksums too: the demand path verifies each
    // filled block against them, so serving through the parallel-swept
    // snapshot is the proof they match.
    EXPECT_EQ(sb.disk_reads, sa.disk_reads);
    EXPECT_EQ(sb.blocks_read, sa.blocks_read);
  }
  std::remove(path.c_str());
}

TEST(ParallelCrcSweep, RejectsCorruptionIdenticallyToSequential) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(400, 11));
  const GatIndex built(dataset, GatConfig{.depth = 5, .memory_levels = 3});
  const std::string path = TempPath("parallel_crc_bad.gats");
  ASSERT_TRUE(SaveSnapshot(built, path));
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), 512u * 256u);

  Executor executor(4);
  const std::string mutated = TempPath("parallel_crc_mutated.gats");
  for (size_t pos = 16; pos < bytes.size(); pos += bytes.size() / 7) {
    std::string copy = bytes;
    copy[pos] = static_cast<char>(copy[pos] ^ 0x5C);
    WriteFileBytes(mutated, copy);
    MappedSnapshotOptions options;
    options.executor = &executor;
    options.cache_config.block_bytes = 512;
    EXPECT_EQ(MappedSnapshot::Load(mutated, options), nullptr)
        << "byte " << pos << " flipped";
  }
  std::remove(mutated.c_str());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ShardedIndex::ReloadGeneration
// ---------------------------------------------------------------------------

struct ReloadFixture {
  explicit ReloadFixture(const std::string& name, uint32_t num_shards,
                         bool mmap)
      : dataset(GenerateCity(CityProfile::Testing(240, 61))),
        num_shards(num_shards),
        dir_a(TempPath(name + "_a")),
        dir_b(TempPath(name + "_b")) {
    std::error_code ec;  // a crashed previous run may have left the dirs
    std::filesystem::remove_all(dir_a, ec);
    std::filesystem::remove_all(dir_b, ec);
    ShardOptions options;
    options.num_shards = num_shards;
    options.build_threads = 1;
    options.snapshot_dir = dir_a;
    options.mmap_disk_tier = mmap;
    options.cache_config.block_bytes = 1024;
    options.cache_config.capacity_bytes = 1 << 20;
    sharded = std::make_unique<ShardedIndex>(dataset, GatConfig{}, options);
    // A second primed directory holding byte-identical copies of every
    // shard snapshot: the "incoming" generation a reload publishes next.
    std::filesystem::create_directories(dir_b);
    for (uint32_t shard = 0; shard < num_shards; ++shard) {
      std::filesystem::copy_file(
          ShardedIndex::SnapshotPath(dir_a, shard, num_shards),
          ShardedIndex::SnapshotPath(dir_b, shard, num_shards));
    }
  }
  ~ReloadFixture() {
    std::error_code ec;
    sharded.reset();
    std::filesystem::remove_all(dir_a, ec);
    std::filesystem::remove_all(dir_b, ec);
  }

  bool Reload(const std::string& dir, Executor* executor = nullptr) {
    return sharded->ReloadGeneration(dataset, num_shards, dir, executor);
  }

  Dataset dataset;
  uint32_t num_shards;
  std::string dir_a, dir_b;
  std::unique_ptr<ShardedIndex> sharded;
};

TEST(ReloadGeneration, EquivalentSwapKeepsAnswersAndPurgesTheOldMapping) {
  ReloadFixture fx("reload_equivalent", 2, /*mmap=*/true);
  const GatIndex single(fx.dataset);
  const GatSearcher reference(fx.dataset, single);
  const ShardedSearcher searcher(*fx.sharded);
  const auto queries = TestQueries(fx.dataset, 71);

  ASSERT_EQ(fx.sharded->generation_number(), 0u);
  const uint64_t retired_before =
      fx.sharded->block_cache()->Snapshot().files_retired;

  // Warm the cache through the current generation, then publish the
  // equivalent one and verify: every shard loaded from the primed
  // directory, old mappings retired (their blocks purged), answers
  // unchanged.
  for (const Query& q : queries) {
    SearchStats stats;
    ASSERT_EQ(searcher.Search(q, 9, QueryKind::kAtsq, &stats),
              reference.Search(q, 9, QueryKind::kAtsq));
    EXPECT_EQ(stats.index_pins, 2u);  // one per shard visit
  }
  ASSERT_TRUE(fx.Reload(fx.dir_b));
  EXPECT_EQ(fx.sharded->generation_number(), 1u);
  EXPECT_EQ(fx.sharded->generations_published(), 1u);
  EXPECT_EQ(fx.sharded->shards_loaded_from_snapshot(), 2u);
  EXPECT_EQ(fx.sharded->shards_mmap_served(), 2u);

  const BlockCacheStats stats = fx.sharded->block_cache()->Snapshot();
  EXPECT_EQ(stats.files_retired, retired_before + 2);
  EXPECT_GT(stats.invalidated, 0u);  // the warmed blocks were purged

  for (const Query& q : queries) {
    ASSERT_EQ(searcher.Search(q, 9, QueryKind::kAtsq),
              reference.Search(q, 9, QueryKind::kAtsq));
  }
}

TEST(ReloadGeneration, PinnedGenerationSurvivesTheSwapAndDrainsOnRelease) {
  ReloadFixture fx("reload_pin", 1, /*mmap=*/true);
  const auto queries = TestQueries(fx.dataset, 31, 3);
  const GatIndex single(fx.dataset);
  const GatSearcher reference(fx.dataset, single);
  const ShardedSearcher searcher(*fx.sharded);

  auto pinned = fx.sharded->PinGeneration();
  // Warm some of the pinned generation's blocks, so its retirement has
  // something to purge.
  for (const Query& q : queries) {
    ASSERT_EQ(searcher.SearchGeneration(*pinned, q, 9, QueryKind::kAtsq),
              reference.Search(q, 9, QueryKind::kAtsq));
  }
  const BlockCacheStats before = fx.sharded->block_cache()->Snapshot();

  ASSERT_TRUE(fx.Reload(fx.dir_b));
  EXPECT_EQ(fx.sharded->generation_number(), 1u);
  EXPECT_EQ(pinned->number(), 0u);

  // The pinned (retired) generation still serves, bit-identically — its
  // mapping and tier cannot be torn down under the reader.
  const GatSearcher old_reader(pinned->shard_dataset(0),
                               *pinned->PinShard(0)->index);
  for (const Query& q : queries) {
    const ResultList want = reference.Search(q, 9, QueryKind::kAtsq);
    EXPECT_EQ(old_reader.Search(q, 9, QueryKind::kAtsq), want);
    EXPECT_EQ(searcher.SearchGeneration(*pinned, q, 9, QueryKind::kAtsq),
              want);
  }
  // Not until the last pin drops is the old mapping unregistered.
  const BlockCacheStats swapped = fx.sharded->block_cache()->Snapshot();
  EXPECT_EQ(swapped.files_retired, before.files_retired);
  EXPECT_EQ(swapped.invalidated, before.invalidated);
  pinned.reset();
  const BlockCacheStats drained = fx.sharded->block_cache()->Snapshot();
  EXPECT_EQ(drained.files_retired, before.files_retired + 1);
  EXPECT_GT(drained.invalidated, before.invalidated);
}

TEST(ReloadGeneration, CorruptSnapshotIsRebuiltAndNeverServed) {
  ReloadFixture fx("reload_corrupt", 2, /*mmap=*/true);
  const auto queries = TestQueries(fx.dataset, 43, 3);
  const GatIndex single(fx.dataset);
  const GatSearcher reference(fx.dataset, single);
  const ShardedSearcher searcher(*fx.sharded);

  // Flip one payload byte of shard 0's snapshot in the reload directory.
  const std::string good_path = ShardedIndex::SnapshotPath(fx.dir_a, 0, 2);
  const std::string corrupt_path = ShardedIndex::SnapshotPath(fx.dir_b, 0, 2);
  const std::string good = ReadFileBytes(good_path);
  std::string corrupt = good;
  corrupt[good.size() / 2] ^= 0x5C;
  WriteFileBytes(corrupt_path, corrupt);
  const uint64_t retired_before =
      fx.sharded->block_cache()->Snapshot().files_retired;

  ASSERT_TRUE(fx.Reload(fx.dir_b));
  // Shard 0 failed the CRC gate and was rebuilt from the dataset; only
  // shard 1 came from the file.
  EXPECT_EQ(fx.sharded->shards_loaded_from_snapshot(), 1u);
  EXPECT_EQ(fx.sharded->shards_mmap_served(), 2u);
  // The rebuild replaced the corrupt file before mapping it for
  // serving: what shard 0 now maps is the good bytes.
  EXPECT_EQ(ReadFileBytes(corrupt_path), good);
  // Retired: the old generation's two mappings plus the rejected load's
  // tentative tier, which unregistered before any block was served.
  EXPECT_EQ(fx.sharded->block_cache()->Snapshot().files_retired,
            retired_before + 3);
  for (const Query& q : queries) {
    EXPECT_EQ(searcher.Search(q, 9, QueryKind::kAtsq),
              reference.Search(q, 9, QueryKind::kAtsq));
  }
}

TEST(ReloadGeneration, RamModeLoadsEveryShardFromThePrimedDirectory) {
  // snapshot_dir without mmap_disk_tier: revisions are heap-owned
  // indexes copied out by LoadSnapshot — publication is tier-independent.
  ReloadFixture fx("reload_ram", 2, /*mmap=*/false);
  ASSERT_EQ(fx.sharded->block_cache(), nullptr);
  const GatIndex single(fx.dataset);
  const GatSearcher reference(fx.dataset, single);
  const ShardedSearcher searcher(*fx.sharded);
  const auto queries = TestQueries(fx.dataset, 83, 4);

  ASSERT_TRUE(fx.Reload(fx.dir_b));
  EXPECT_EQ(fx.sharded->shards_loaded_from_snapshot(), 2u);
  EXPECT_EQ(fx.sharded->shards_mmap_served(), 0u);
  for (const Query& q : queries) {
    EXPECT_EQ(searcher.Search(q, 9, QueryKind::kAtsq),
              reference.Search(q, 9, QueryKind::kAtsq));
  }
}

TEST(ReloadGeneration, QueriesStayBitIdenticalUnderContinuousSwaps) {
  // The TSan centerpiece: searchers (with executor fan-out) hammer the
  // index from several threads while a reloader alternates generations
  // between the two primed directories. Every answer must equal the
  // precomputed reference; afterwards, every retired generation must
  // have been unregistered from the cache.
  ReloadFixture fx("reload_race", 2, /*mmap=*/true);
  const GatIndex single(fx.dataset);
  const GatSearcher reference(fx.dataset, single);
  const auto queries = TestQueries(fx.dataset, 71, 4);
  std::vector<ResultList> expected;
  for (const Query& q : queries) {
    expected.push_back(reference.Search(q, 9, QueryKind::kAtsq));
  }

  Executor executor(4);
  const ShardedSearcher searcher(*fx.sharded, {}, &executor);

  constexpr int kReloads = 12;
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
            stats.index_pins != 2) {
          diverged.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (int round = 0; round < kReloads; ++round) {
    ASSERT_TRUE(fx.Reload(round % 2 == 0 ? fx.dir_b : fx.dir_a, &executor));
    ASSERT_EQ(fx.sharded->shards_loaded_from_snapshot(), 2u);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();
  EXPECT_FALSE(diverged.load());
  EXPECT_EQ(fx.sharded->generations_published(),
            static_cast<uint64_t>(kReloads));

  // Every retired generation drained and unregistered: only the two
  // currently-serving mappings remain live in the cache.
  const BlockCacheStats stats = fx.sharded->block_cache()->Snapshot();
  EXPECT_EQ(stats.files_retired, 2u * kReloads);

  // And the engine view: a batch run across a final swap is
  // bit-identical, and its demand reads went through the shared cache.
  const QueryEngine engine(searcher, EngineOptions{.executor = &executor});
  const BlockCacheStats before = fx.sharded->block_cache()->Snapshot();
  std::thread swapper([&] { ASSERT_TRUE(fx.Reload(fx.dir_b)); });
  const BatchResult batch = engine.Run(queries, 9, QueryKind::kAtsq);
  swapper.join();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch.results[i], expected[i]);
  }
  const BlockCacheStats after = fx.sharded->block_cache()->Snapshot();
  EXPECT_GT(after.DemandLookups(), before.DemandLookups());
  EXPECT_GE(after.invalidated, before.invalidated);
}

}  // namespace
}  // namespace gat
