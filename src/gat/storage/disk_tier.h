#ifndef GAT_STORAGE_DISK_TIER_H_
#define GAT_STORAGE_DISK_TIER_H_

#include <cstdint>

#include "gat/common/storage_tier.h"

namespace gat {

/// How the disk-resident index components (APL rows, HICL levels below
/// `h`) are physically read. The index structures (`Apl`, `Hicl`) route
/// every disk-tier access through one of these instead of bumping a bare
/// counter, so the *accounting* (one logical read per fetched object) is
/// fixed while the *mechanics* are swappable:
///
///  * `SimulatedDiskTier` (the default, and the seed behavior bit for
///    bit): everything is in RAM; a fetch only records the logical read.
///  * `MappedDiskTier` (gat/storage/mapped_snapshot.h): the object's
///    byte range lives in an mmap-ed snapshot; a fetch records the same
///    logical read, then runs the covering cache blocks through a
///    sharded LRU `BlockCache`, doing real page-granular I/O (pagefault
///    + integrity verify) on each miss.
///
/// Implementations must be thread-safe: one tier instance backs every
/// concurrent search task of its index.
class DiskTier {
 public:
  virtual ~DiskTier() = default;

  /// One logical fetch of `bytes` bytes at `offset` of the tier's
  /// backing store. `counter == nullptr` means "this query already
  /// fetched the object" (the searcher's reuse contract) — no logical
  /// read is charged and no block I/O is performed.
  virtual void Fetch(uint64_t offset, uint64_t bytes,
                     DiskAccessCounter* counter) const = 0;
};

/// The seed's accounting-only tier: every byte is heap-resident, a fetch
/// is one counter bump. Stateless — all indexes without an attached real
/// tier share the process-wide instance.
class SimulatedDiskTier final : public DiskTier {
 public:
  void Fetch(uint64_t offset, uint64_t bytes,
             DiskAccessCounter* counter) const override;

  static const SimulatedDiskTier* Instance();
};

}  // namespace gat

#endif  // GAT_STORAGE_DISK_TIER_H_
