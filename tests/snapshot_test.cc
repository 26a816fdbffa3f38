// Tests for GAT index snapshots: save -> load must preserve search
// behavior bit-identically, and every malformed-file path must fail
// cleanly (nullptr, no crash, no exception).
//
// Both modes of the one loader — `LoadSnapshot` without a cache (heap
// copy) and with one (mapped disk tier) — run every rejection and parity
// sweep from one loader list, and a forged-checksum sweep pins that they
// decide alike.

#include "gat/index/snapshot.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/executor.h"
#include "gat/search/gat_search.h"
#include "gat/storage/block_cache.h"

namespace gat {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Stand-alone CRC-32 (IEEE), matching snapshot.cc's, so tests can forge
// a valid checksum over corrupted payload bytes and prove the structural
// validators reject what the CRC no longer can.
uint32_t TestCrc32(const char* data, size_t size) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t byte = 0; byte < 256; ++byte) {
      uint32_t crc = byte;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
      }
      t[byte] = crc;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<unsigned char>(data[i])) & 0xFF];
  }
  return crc ^ 0xFFFFFFFFu;
}

constexpr size_t kHeaderBytes = 12;

/// Re-stamps the header CRC over the (possibly corrupted) payload.
void ForgeChecksum(std::string* bytes) {
  const uint32_t crc =
      TestCrc32(bytes->data() + kHeaderBytes, bytes->size() - kHeaderBytes);
  bytes->replace(8, 4, reinterpret_cast<const char*>(&crc), 4);
}

std::vector<Query> TestQueries(const Dataset& dataset, uint64_t seed) {
  QueryWorkloadParams wp;
  wp.num_queries = 10;
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

/// One mode of the loader, so every sweep runs over both.
struct Loader {
  const char* name;
  bool mapped;

  std::unique_ptr<GatIndex> operator()(const std::string& path,
                                       const GatConfig* expected = nullptr,
                                       uint32_t fingerprint = 0,
                                       Executor* executor = nullptr) const {
    return LoadSnapshot(path, expected, fingerprint, executor,
                        mapped ? std::make_shared<BlockCache>() : nullptr);
  }
};

constexpr Loader kHeapLoad{"no cache", false};
constexpr Loader kMappedLoad{"cache", true};
constexpr Loader kLoaders[] = {kHeapLoad, kMappedLoad};

TEST(Snapshot, RoundTripSearchesBitIdentically) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(200, 31));
  const GatConfig config{.depth = 6, .memory_levels = 4, .tas_width = 2};
  const GatIndex built(dataset, config);
  const std::string path = TempPath("roundtrip.gats");
  ASSERT_TRUE(SaveSnapshot(built, path));

  const auto loaded = LoadSnapshot(path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->config(), built.config());

  // Same footprint accounting...
  const auto mb = built.memory_breakdown();
  const auto ml = loaded->memory_breakdown();
  EXPECT_EQ(ml.MainMemoryTotal(), mb.MainMemoryTotal());
  EXPECT_EQ(ml.DiskTotal(), mb.DiskTotal());

  // ...and bit-identical answers: not just equal distances, the exact
  // same (trajectory, distance) pairs, including deterministic work
  // counters, for both query kinds.
  const GatSearcher fresh(dataset, built);
  const GatSearcher restored(dataset, *loaded);
  for (const Query& q : TestQueries(dataset, 77)) {
    for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
      SearchStats fresh_stats, restored_stats;
      const ResultList a = fresh.Search(q, 9, kind, &fresh_stats);
      const ResultList b = restored.Search(q, 9, kind, &restored_stats);
      ASSERT_EQ(a, b) << ToString(kind);
      EXPECT_EQ(restored_stats.candidates_retrieved,
                fresh_stats.candidates_retrieved);
      EXPECT_EQ(restored_stats.tas_pruned, fresh_stats.tas_pruned);
      EXPECT_EQ(restored_stats.distance_computations,
                fresh_stats.distance_computations);
      EXPECT_EQ(restored_stats.disk_reads, fresh_stats.disk_reads);
    }
  }
  std::remove(path.c_str());
}

TEST(Snapshot, SavedBytesAreDeterministic) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(120, 5));
  const GatIndex index(dataset, GatConfig{.depth = 5, .memory_levels = 3});
  const std::string p1 = TempPath("det1.gats");
  const std::string p2 = TempPath("det2.gats");
  ASSERT_TRUE(SaveSnapshot(index, p1));
  ASSERT_TRUE(SaveSnapshot(index, p2));
  std::ifstream a(p1, std::ios::binary), b(p2, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(Snapshot, SavedBytesMatchGoldenDigest) {
  // The saved bytes of a fixed seeded city and of an empty shard, pinned
  // as CRC32 and length. The digests were recorded from the reference
  // implementation; a storage rewrite that moves one byte of the format
  // fails here. A built index and its heap-loaded and mapped
  // `LoadSnapshot`s must all re-save to exactly these bytes and report
  // the same `memory_breakdown()`.
  struct Golden {
    const char* name;
    uint32_t trajectories;  // 0 = the empty shard
    uint32_t crc;
    size_t bytes;
  };
  constexpr Golden kGolden[] = {
      {"city", 150, 1176788338u, 60200u},
      {"empty shard", 0, 788955998u, 148u},
  };
  const GatConfig config{.depth = 5, .memory_levels = 3, .tas_width = 2};
  const std::string path = TempPath("golden.gats");
  const std::string resave = TempPath("golden_resave.gats");
  for (const Golden& golden : kGolden) {
    SCOPED_TRACE(golden.name);
    Dataset dataset;
    if (golden.trajectories > 0) {
      dataset = GenerateCity(CityProfile::Testing(golden.trajectories, 83));
    } else {
      dataset.Finalize();
    }
    const uint32_t fingerprint = DatasetFingerprint(dataset);
    const GatIndex built(dataset, config);
    ASSERT_TRUE(SaveSnapshot(built, path, fingerprint));
    const std::string bytes = ReadFileBytes(path);
    const uint32_t crc = TestCrc32(bytes.data(), bytes.size());
    EXPECT_EQ(crc, golden.crc) << "actual: {\"" << golden.name << "\", "
                               << golden.trajectories << ", " << crc << "u, "
                               << bytes.size() << "u},";
    EXPECT_EQ(bytes.size(), golden.bytes);

    for (const Loader& load : kLoaders) {
      SCOPED_TRACE(load.name);
      const auto loaded = load(path, &config, fingerprint);
      ASSERT_TRUE(loaded);
      EXPECT_EQ(loaded->mapped(), load.mapped);
      EXPECT_EQ(loaded->memory_breakdown().ToString(),
                built.memory_breakdown().ToString());
      ASSERT_TRUE(SaveSnapshot(*loaded, resave, fingerprint));
      EXPECT_EQ(ReadFileBytes(resave), bytes);
    }
  }
  std::remove(path.c_str());
  std::remove(resave.c_str());
}

TEST(Snapshot, MissingFileFailsCleanly) {
  for (const Loader& load : kLoaders) {
    SCOPED_TRACE(load.name);
    EXPECT_FALSE(load(TempPath("no_such_snapshot.gats")));
    EXPECT_FALSE(load(::testing::TempDir()));  // a directory
  }
}

TEST(Snapshot, BadMagicIsRejected) {
  const std::string path = TempPath("bad_magic.gats");
  WriteFileBytes(path, "GATD this is a dataset header, not an index snapshot");
  for (const Loader& load : kLoaders) {
    SCOPED_TRACE(load.name);
    EXPECT_FALSE(load(path));
  }
  std::remove(path.c_str());
}

TEST(Snapshot, VersionMismatchIsRejected) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(60, 9));
  const GatIndex index(dataset, GatConfig{.depth = 4, .memory_levels = 2});
  const std::string path = TempPath("version.gats");
  ASSERT_TRUE(SaveSnapshot(index, path));
  for (const Loader& load : kLoaders) {
    ASSERT_TRUE(load(path)) << load.name;
  }

  // The version field sits right after the 4-byte magic. Version 1
  // stored the interval sketch in TAS_; it is refused like a future one.
  for (const uint32_t version : {1u, 999u}) {
    SCOPED_TRACE(version);
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(4);
      f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    }
    for (const Loader& load : kLoaders) {
      SCOPED_TRACE(load.name);
      EXPECT_FALSE(load(path));
    }
  }
  std::remove(path.c_str());
}

TEST(Snapshot, TasWordsNotWholeRowsAreRejected) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(60, 10));
  const GatIndex index(dataset, GatConfig{.depth = 4, .memory_levels = 2});
  const std::string path = TempPath("tas_words.gats");
  ASSERT_TRUE(SaveSnapshot(index, path));
  std::string bytes = ReadFileBytes(path);

  // TAS_ is a u64 word count and the words, rows x 2*tas_width of them.
  // One extra word keeps the floor of count / row width equal to the row
  // count, so only the whole-rows check can refuse it.
  const size_t tag = bytes.find("TAS_");
  ASSERT_NE(tag, std::string::npos);
  uint64_t words = 0;
  std::memcpy(&words, bytes.data() + tag + 4, sizeof(words));
  ASSERT_EQ(words, dataset.size() * 2 * index.config().tas_width);
  const uint64_t forged = words + 1;
  bytes.replace(tag + 4, sizeof(forged), reinterpret_cast<const char*>(&forged),
                sizeof(forged));
  bytes.insert(tag + 4 + sizeof(forged) + words * 4, 4, '\0');
  ForgeChecksum(&bytes);
  WriteFileBytes(path, bytes);
  for (const Loader& load : kLoaders) {
    SCOPED_TRACE(load.name);
    EXPECT_FALSE(load(path));
  }
  std::remove(path.c_str());
}

TEST(Snapshot, HeaderByteTotalsMustMatchTheLists) {
  // HICL, ITL and APL headers carry the byte totals that
  // `memory_breakdown()` reports (Figure 8's cost). The parser recomputes
  // each from the parsed lists, so a forged checksum over a wrong total
  // cannot load an index that reports a false cost.
  const Dataset dataset = GenerateCity(CityProfile::Testing(120, 73));
  const GatIndex index(dataset, GatConfig{.depth = 4, .memory_levels = 2});
  const std::string path = TempPath("totals.gats");
  ASSERT_TRUE(SaveSnapshot(index, path));
  const std::string bytes = ReadFileBytes(path);
  const auto b = index.memory_breakdown();
  // The u64 totals sit right after each section's tag, in this order.
  struct Total {
    const char* tag;
    size_t offset;  // past the tag
    uint64_t value;
  };
  const Total totals[] = {{"HICL", 0, b.hicl_memory},
                          {"HICL", 8, b.hicl_disk},
                          {"ITL_", 0, b.itl_memory},
                          {"APL_", 0, b.apl_disk}};
  const std::string forged = TempPath("totals_forged.gats");
  for (const Total& total : totals) {
    SCOPED_TRACE(::testing::Message() << total.tag << "+" << total.offset);
    const size_t at = bytes.find(total.tag, kHeaderBytes) + 4 + total.offset;
    uint64_t stored = 0;
    std::memcpy(&stored, bytes.data() + at, sizeof(stored));
    ASSERT_EQ(stored, total.value);
    const uint64_t bumped = stored + 4;
    std::string copy = bytes;
    copy.replace(at, sizeof(bumped), reinterpret_cast<const char*>(&bumped),
                 sizeof(bumped));
    ForgeChecksum(&copy);
    WriteFileBytes(forged, copy);
    for (const Loader& load : kLoaders) {
      SCOPED_TRACE(load.name);
      EXPECT_TRUE(load(path));
      EXPECT_FALSE(load(forged));
    }
  }
  std::remove(path.c_str());
  std::remove(forged.c_str());
}

TEST(Snapshot, ConfigMismatchOnLoadIsRejected) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(60, 11));
  const GatConfig saved{.depth = 5, .memory_levels = 3, .tas_width = 2};
  const GatIndex index(dataset, saved);
  const std::string path = TempPath("config.gats");
  ASSERT_TRUE(SaveSnapshot(index, path));

  for (const Loader& load : kLoaders) {
    SCOPED_TRACE(load.name);
    // Unchecked and matching-config loads succeed.
    EXPECT_TRUE(load(path));
    EXPECT_TRUE(load(path, &saved));

    // Any differing field refuses the snapshot.
    GatConfig other = saved;
    other.depth = 6;
    EXPECT_FALSE(load(path, &other));
    other = saved;
    other.memory_levels = 2;
    EXPECT_FALSE(load(path, &other));
    other = saved;
    other.tas_width = 3;
    EXPECT_FALSE(load(path, &other));
  }
  std::remove(path.c_str());
}

TEST(Snapshot, DatasetFingerprintBindsSnapshotToItsDataset) {
  const Dataset a = GenerateCity(CityProfile::Testing(60, 15));
  const Dataset b = GenerateCity(CityProfile::Testing(60, 16));
  const uint32_t fp_a = DatasetFingerprint(a);
  const uint32_t fp_b = DatasetFingerprint(b);
  ASSERT_NE(fp_a, 0u);
  ASSERT_NE(fp_a, fp_b);
  EXPECT_EQ(fp_a, DatasetFingerprint(a));  // deterministic

  const GatIndex index(a, GatConfig{.depth = 4, .memory_levels = 2});
  const std::string paired = TempPath("paired.gats");
  const std::string unstamped = TempPath("unstamped.gats");
  ASSERT_TRUE(SaveSnapshot(index, paired, fp_a));
  ASSERT_TRUE(SaveSnapshot(index, unstamped));

  for (const Loader& load : kLoaders) {
    SCOPED_TRACE(load.name);
    EXPECT_TRUE(load(paired, nullptr, fp_a));   // right dataset
    EXPECT_TRUE(load(paired));                  // check waived
    EXPECT_FALSE(load(paired, nullptr, fp_b));  // wrong dataset
    // Both sides must opt in: an unstamped file binds to nothing.
    EXPECT_TRUE(load(unstamped, nullptr, fp_b));
  }
  std::remove(paired.c_str());
  std::remove(unstamped.c_str());
}

TEST(Snapshot, BitCorruptionAnywhereIsRejected) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(60, 19));
  const GatIndex index(dataset, GatConfig{.depth = 4, .memory_levels = 2});
  const std::string path = TempPath("corrupt.gats");
  ASSERT_TRUE(SaveSnapshot(index, path));
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);

  // Flipping a single byte anywhere — header fields included — must be
  // caught (payload damage by the CRC32, header damage by the
  // magic/version/checksum checks). Sweep a spread of positions.
  const std::string mutated = TempPath("mutated.gats");
  for (size_t pos = 0; pos < bytes.size();
       pos += (pos < 16 ? 1 : 131)) {  // every header byte, then strided
    std::string copy = bytes;
    copy[pos] = static_cast<char>(copy[pos] ^ 0x5C);
    WriteFileBytes(mutated, copy);
    for (const Loader& load : kLoaders) {
      EXPECT_FALSE(load(mutated)) << load.name << ": byte " << pos;
    }
  }
  std::remove(mutated.c_str());
  std::remove(path.c_str());
}

TEST(Snapshot, ExecutorLoadIsBitIdenticalToSequentialLoad) {
  // 300 trajectories puts the APL past the parallel-validation row
  // threshold, so the executor path actually fans out.
  const Dataset dataset = GenerateCity(CityProfile::Testing(300, 47));
  const GatIndex built(dataset, GatConfig{.depth = 5, .memory_levels = 3});
  const std::string path = TempPath("executor_load.gats");
  ASSERT_TRUE(SaveSnapshot(built, path));

  Executor executor(4);
  for (const Loader& load : kLoaders) {
    SCOPED_TRACE(load.name);
    const auto sequential = load(path);
    const auto parallel = load(path, nullptr, 0, &executor);
    ASSERT_TRUE(sequential);
    ASSERT_TRUE(parallel);
    EXPECT_EQ(parallel->memory_breakdown().MainMemoryTotal(),
              sequential->memory_breakdown().MainMemoryTotal());

    const GatSearcher a(dataset, *sequential);
    const GatSearcher b(dataset, *parallel);
    for (const Query& q : TestQueries(dataset, 99)) {
      for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
        SearchStats sa, sb;
        ASSERT_EQ(a.Search(q, 9, kind, &sa), b.Search(q, 9, kind, &sb));
        EXPECT_EQ(sb.candidates_retrieved, sa.candidates_retrieved);
        EXPECT_EQ(sb.disk_reads, sa.disk_reads);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Snapshot, CorruptionRejectedThroughExecutorPathToo) {
  // Bit flips and truncations must load as nullptr no matter which
  // validation path runs — a parallel load may never out-race a reject.
  const Dataset dataset = GenerateCity(CityProfile::Testing(300, 53));
  const GatIndex index(dataset, GatConfig{.depth = 4, .memory_levels = 2});
  const std::string path = TempPath("executor_corrupt.gats");
  ASSERT_TRUE(SaveSnapshot(index, path));
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);

  Executor executor(4);
  const std::string mutated = TempPath("executor_mutated.gats");
  for (size_t pos = 0; pos < bytes.size(); pos += 257) {
    std::string copy = bytes;
    copy[pos] = static_cast<char>(copy[pos] ^ 0x5C);
    WriteFileBytes(mutated, copy);
    for (const Loader& load : kLoaders) {
      EXPECT_FALSE(load(mutated, nullptr, 0, &executor))
          << load.name << ": byte " << pos;
    }
  }
  for (const size_t cut : {size_t{20}, bytes.size() / 2, bytes.size() - 3}) {
    WriteFileBytes(mutated, bytes.substr(0, cut));
    for (const Loader& load : kLoaders) {
      EXPECT_FALSE(load(mutated, nullptr, 0, &executor))
          << load.name << ": prefix of " << cut << " bytes";
    }
  }
  std::remove(mutated.c_str());
  std::remove(path.c_str());
}

TEST(Snapshot, ForgedChecksumNeverChangesTheDecisionParity) {
  // An attacker (or a very unlucky disk) can corrupt a payload byte AND
  // re-stamp a matching CRC. Structural validation is then the only
  // line of defense; some flips are benign (e.g. APL point indices), but
  // whatever the sequential load decides, the executor-parallel load
  // must decide identically — and neither may crash.
  const Dataset dataset = GenerateCity(CityProfile::Testing(300, 59));
  const GatIndex index(dataset, GatConfig{.depth = 4, .memory_levels = 2});
  const std::string path = TempPath("forged.gats");
  ASSERT_TRUE(SaveSnapshot(index, path));
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), kHeaderBytes + 64);

  Executor executor(4);
  const std::string forged = TempPath("forged_mutated.gats");
  for (const Loader& load : kLoaders) {
    SCOPED_TRACE(load.name);
    size_t rejected = 0;
    for (size_t pos = kHeaderBytes; pos < bytes.size(); pos += 211) {
      std::string copy = bytes;
      copy[pos] = static_cast<char>(copy[pos] ^ 0x5C);
      ForgeChecksum(&copy);
      WriteFileBytes(forged, copy);
      const bool sequential = static_cast<bool>(load(forged));
      const bool parallel =
          static_cast<bool>(load(forged, nullptr, 0, &executor));
      ASSERT_EQ(sequential, parallel) << "decision diverged at byte " << pos;
      rejected += sequential ? 0 : 1;
    }
    // The sweep must have hit real structural damage, not only benign
    // counter bytes — otherwise this test proves nothing.
    EXPECT_GT(rejected, 0u);
  }
  std::remove(forged.c_str());
  std::remove(path.c_str());
}

TEST(Snapshot, ForgedChecksumLoadersDecideAlike) {
  // The heap and mapped loaders share one parser, so a forged file —
  // payload byte flipped, CRC re-stamped — must get the same verdict
  // from both, and when both accept they must hold the same index:
  // re-saving each writes the same bytes. Forged indexes are never
  // searched: a flipped APL point index breaks the dataset pairing by
  // design (snapshot.h).
  const std::string path = TempPath("forged_pair.gats");
  const std::string forged = TempPath("forged_pair_mutated.gats");
  const std::string resave_heap = TempPath("forged_pair_heap.gats");
  const std::string resave_mapped = TempPath("forged_pair_mapped.gats");
  size_t rejected = 0, accepted = 0;
  for (const uint64_t seed : {61u, 67u}) {
    const Dataset dataset = GenerateCity(CityProfile::Testing(120, seed));
    const GatIndex index(dataset, GatConfig{.depth = 4, .memory_levels = 2});
    ASSERT_TRUE(SaveSnapshot(index, path));
    const std::string bytes = ReadFileBytes(path);
    ASSERT_GT(bytes.size(), kHeaderBytes + 64);

    for (const int mask : {0x01, 0x5C, 0xFF}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " mask " << mask);
      // An odd stride lands on every byte lane of the 4-byte fields.
      for (size_t pos = kHeaderBytes; pos < bytes.size(); pos += 199) {
        std::string copy = bytes;
        copy[pos] = static_cast<char>(copy[pos] ^ mask);
        ForgeChecksum(&copy);
        WriteFileBytes(forged, copy);
        const auto heap = kHeapLoad(forged);
        const auto mapped = kMappedLoad(forged);
        ASSERT_EQ(static_cast<bool>(heap), static_cast<bool>(mapped)) << pos;
        if (!heap) {
          ++rejected;
          continue;
        }
        ++accepted;
        ASSERT_TRUE(SaveSnapshot(*heap, resave_heap));
        ASSERT_TRUE(SaveSnapshot(*mapped, resave_mapped));
        ASSERT_EQ(ReadFileBytes(resave_heap), ReadFileBytes(resave_mapped))
            << pos;
      }
    }
  }
  // Both verdicts must actually occur, or the sweep compares nothing.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
  for (const std::string& p : {path, forged, resave_heap, resave_mapped}) {
    std::remove(p.c_str());
  }
}

TEST(Snapshot, ItlCellsOutOfCodeOrderAreRejected) {
  // The ITL lookup binary-searches the cell codes, so a file whose cells
  // are not in strictly ascending code order must not load — even with a
  // valid checksum over the reordered bytes. The saver never writes one.
  const Dataset dataset = GenerateCity(CityProfile::Testing(120, 71));
  const GatIndex index(dataset, GatConfig{.depth = 4, .memory_levels = 2});
  ASSERT_GE(index.itl().num_cells(), 2u);
  const std::string path = TempPath("itl_order.gats");
  ASSERT_TRUE(SaveSnapshot(index, path));
  const std::string bytes = ReadFileBytes(path);

  // The ITL section: tag, u64 memory bytes, u64 cell count, then per cell
  // a u32 code and three u64-counted arrays of 4-byte elements.
  const size_t tag = bytes.find("ITL_", kHeaderBytes);
  ASSERT_NE(tag, std::string::npos);
  uint64_t num_cells = 0;
  std::memcpy(&num_cells, bytes.data() + tag + 12, sizeof(num_cells));
  ASSERT_EQ(num_cells, index.itl().num_cells());
  const auto cell_end = [&bytes](size_t pos) {
    pos += sizeof(uint32_t);
    for (int array = 0; array < 3; ++array) {
      uint64_t count = 0;
      std::memcpy(&count, bytes.data() + pos, sizeof(count));
      pos += sizeof(count) + count * 4;
    }
    return pos;
  };
  const size_t first = tag + 20;
  const size_t second = cell_end(first);
  const size_t third = cell_end(second);
  ASSERT_LE(third, bytes.size());

  std::string swapped = bytes.substr(0, first) +
                        bytes.substr(second, third - second) +
                        bytes.substr(first, second - first) +
                        bytes.substr(third);
  ASSERT_EQ(swapped.size(), bytes.size());
  ForgeChecksum(&swapped);
  const std::string forged = TempPath("itl_order_swapped.gats");
  WriteFileBytes(forged, swapped);
  for (const Loader& load : kLoaders) {
    SCOPED_TRACE(load.name);
    EXPECT_TRUE(load(path));  // the untouched file loads
    EXPECT_FALSE(load(forged));
  }
  std::remove(path.c_str());
  std::remove(forged.c_str());
}

TEST(Snapshot, EmptyIndexRoundTrips) {
  // An empty dataset builds a valid index over the fallback grid space;
  // its snapshot must round-trip (the empty-shard warm-start path).
  Dataset empty;
  empty.Finalize();
  const GatIndex built(empty);
  const std::string path = TempPath("empty.gats");
  ASSERT_TRUE(SaveSnapshot(built, path, DatasetFingerprint(empty)));
  for (const Loader& load : kLoaders) {
    SCOPED_TRACE(load.name);
    const auto loaded =
        load(path, nullptr, DatasetFingerprint(empty));
    ASSERT_TRUE(loaded);
    EXPECT_EQ(loaded->config(), built.config());
  }
  std::remove(path.c_str());
}

TEST(Snapshot, TruncationAnywhereIsRejected) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(80, 13));
  const GatIndex index(dataset, GatConfig{.depth = 4, .memory_levels = 2});
  const std::string path = TempPath("full.gats");
  ASSERT_TRUE(SaveSnapshot(index, path));
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);

  const std::string cut = TempPath("cut.gats");
  // Every prefix shorter than the full file must fail — sweep a spread of
  // cut points (every 97 bytes covers all sections at this index size)
  // plus the last few bytes, which land inside the end tag.
  std::vector<size_t> cuts;
  for (size_t n = 0; n < bytes.size(); n += 97) cuts.push_back(n);
  for (size_t n = bytes.size() - 4; n < bytes.size(); ++n) cuts.push_back(n);
  for (const size_t n : cuts) {
    WriteFileBytes(cut, bytes.substr(0, n));
    for (const Loader& load : kLoaders) {
      EXPECT_FALSE(load(cut)) << load.name << ": prefix of " << n << " bytes";
    }
  }
  std::remove(cut.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gat
