#ifndef GAT_STORAGE_MAPPED_DISK_TIER_H_
#define GAT_STORAGE_MAPPED_DISK_TIER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "gat/common/storage_tier.h"
#include "gat/storage/block_cache.h"
#include "gat/storage/mapped_file.h"

namespace gat {

/// Block-cached reads of the disk sections of one mapped snapshot file.
///
/// A `GatIndex` loaded with a cache (`LoadSnapshot`, gat/index/snapshot.h)
/// owns one: the mapping its APL rows and deep HICL levels are spans
/// into, a shared reference to the cache, the file's namespace in it and
/// the per-block checksums of the load's sweep. `Apl` and `Hicl` charge
/// each logical fetch themselves and pass the fetched bytes here, which
/// runs their covering cache blocks through the cache: hits are
/// bookkeeping only; misses do the real page-granular read — walking the
/// block's bytes in the mapping (the kernel faults the pages in) and
/// verifying its CRC32 against the recorded checksum, so bit rot under a
/// served mapping is caught at read time, not at answer time.
class MappedDiskTier {
 public:
  /// Registers one file namespace in `cache`; the destructor unregisters
  /// it, purging every block this mapping made resident — the
  /// invalidation that makes swapping a snapshot against a *shared*
  /// cache safe. The owner holds the drain contract: no `ReadBlocks` may
  /// be in flight when the tier is destroyed (gat/shard's pinned
  /// `ShardGeneration` enforces this on the serving path; a straggler
  /// that slips through is dropped by the cache's generation check
  /// rather than served stale).
  MappedDiskTier(MappedFile file, std::shared_ptr<BlockCache> cache,
                 std::vector<uint32_t> block_crcs);
  ~MappedDiskTier();

  MappedDiskTier(const MappedDiskTier&) = delete;
  MappedDiskTier& operator=(const MappedDiskTier&) = delete;

  /// Runs the cache blocks covering `extent` (bytes of the mapped file) through
  /// the cache, recording each hit or verified miss in `counter`. The
  /// logical read is the caller's to charge.
  void ReadBlocks(std::span<const char> extent,
                  DiskAccessCounter* counter) const;

 private:
  /// The real read of one cache block: touch every byte (pagefault) and
  /// verify its checksum. Aborts on CRC mismatch — bytes rotting under
  /// an actively served mapping cannot be answered around.
  void ReadBlock(uint64_t block) const;

  MappedFile file_;
  std::shared_ptr<BlockCache> cache_;
  BlockFileToken token_;
  std::vector<uint32_t> block_crcs_;
};

}  // namespace gat

#endif  // GAT_STORAGE_MAPPED_DISK_TIER_H_
