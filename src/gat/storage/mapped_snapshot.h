#ifndef GAT_STORAGE_MAPPED_SNAPSHOT_H_
#define GAT_STORAGE_MAPPED_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gat/engine/executor.h"
#include "gat/index/gat_index.h"
#include "gat/storage/block_cache.h"
#include "gat/storage/disk_tier.h"
#include "gat/storage/mapped_file.h"

namespace gat {

/// Block-cached real-I/O tier over one mapped snapshot file.
///
/// A fetch charges the same single logical read the simulated tier
/// charges, then runs the object's covering cache blocks through the
/// shared `BlockCache`: hits are bookkeeping only; misses do the real
/// page-granular read — walking the block's bytes in the mapping (the
/// kernel faults the pages in) and verifying its CRC32 against the
/// per-block checksums computed when the file was mapped, so bit rot
/// under a served mapping is caught at read time, not at answer time.
class MappedDiskTier final : public DiskTier {
 public:
  /// `file` and `cache` are non-owning and must outlive the tier (the
  /// owning `MappedSnapshot` guarantees both). Registers one file
  /// namespace in the cache; the destructor unregisters it, purging
  /// every block this mapping made resident — the invalidation that
  /// makes hot-swapping a snapshot against a *shared* cache safe. The
  /// caller owns the drain contract: no `Fetch` may be in
  /// flight when the tier is destroyed (gat/shard's pinned
  /// `ShardGeneration` enforces this on the serving path;
  /// a straggler that slips through is dropped by the cache's
  /// generation check rather than served stale).
  MappedDiskTier(const MappedFile* file, BlockCache* cache,
                 std::vector<uint32_t> block_crcs);
  ~MappedDiskTier() override;

  void Fetch(uint64_t offset, uint64_t bytes,
             DiskAccessCounter* counter) const override;

  const BlockFileToken& token() const { return token_; }
  const BlockCache& cache() const { return *cache_; }

 private:
  /// The real read of one cache block: touch every byte (pagefault) and
  /// verify its checksum. Aborts on CRC mismatch — bytes rotting under
  /// an actively served mapping cannot be answered around.
  void ReadBlock(uint64_t block) const;

  const MappedFile* file_;
  BlockCache* cache_;
  BlockFileToken token_;
  std::vector<uint32_t> block_crcs_;
};

/// MappedSnapshot::Load knobs: `LoadSnapshot`'s three optional parameters
/// plus the cache wiring.
struct MappedSnapshotOptions {
  /// When non-null, the stored GatConfig must equal *expected.
  const GatConfig* expected = nullptr;
  /// Non-zero = require a matching stored dataset fingerprint (both
  /// sides must opt in, like LoadSnapshot).
  uint32_t expected_fingerprint = 0;
  /// Fans the load's full-file CRC sweep (whole-payload gate + the
  /// per-block checksums) *and* the structural validation of the big
  /// sections out as executor tasks — the per-file load goes
  /// multi-core, which is what keeps reload latency off the hot-swap
  /// critical path. The accept/reject decision and every checksum are
  /// bit-identical to the sequential sweep (chunk CRCs are folded with
  /// Crc32Combine).
  Executor* executor = nullptr;
  /// Block cache to serve the disk tier through (non-owning — the way a
  /// sharded process shares one budget across every shard's mapping).
  /// nullptr = the snapshot owns a private cache built from
  /// `cache_config`.
  BlockCache* cache = nullptr;
  BlockCacheConfig cache_config;
};

/// A `GatIndex` served from an mmap-ed `GATS` snapshot.
///
/// `Load` maps the file, runs the checksum sweep and hands the mapping to
/// `ParseSnapshot` (gat/index/snapshot.h) — the parser `LoadSnapshot`
/// uses — with this snapshot's `MappedDiskTier`. So the RAM-resident
/// components (ITL, TAS, HICL levels 1..h) are copied exactly as
/// `LoadSnapshot` copies them, while the disk-resident ones (APL rows,
/// HICL levels h+1..d) stay in the file and are served as zero-copy
/// spans into the mapping, read through the tier — so a sharded process
/// cold-starts without materializing its disk tier, and every disk
/// access is page-granular real I/O through the block cache.
///
/// One parser means the accept/reject decision is `LoadSnapshot`'s for
/// every file: nullptr on any error. A loaded index answers
/// bit-identically to the heap-loaded or freshly built one, with equal
/// logical `disk_reads` counts.
///
/// Lifetime: the `MappedSnapshot` owns the mapping, the tier and the
/// index; `index()` views die with it.
class MappedSnapshot {
 public:
  static std::unique_ptr<MappedSnapshot> Load(
      const std::string& path, const MappedSnapshotOptions& options = {});

  const GatIndex& index() const { return *index_; }
  const DiskTier& tier() const { return *tier_; }
  /// The cache the tier reads through (shared or privately owned).
  const BlockCache& cache() const { return *cache_; }
  size_t file_bytes() const { return file_.size(); }
  /// Wall-clock seconds of `Load` (also in `index().build_seconds()`).
  double load_seconds() const { return load_seconds_; }

 private:
  MappedSnapshot() = default;

  MappedFile file_;
  std::unique_ptr<BlockCache> owned_cache_;  // null when sharing
  BlockCache* cache_ = nullptr;
  std::unique_ptr<DiskTier> tier_;
  std::unique_ptr<GatIndex> index_;
  double load_seconds_ = 0.0;
};

}  // namespace gat

#endif  // GAT_STORAGE_MAPPED_SNAPSHOT_H_
