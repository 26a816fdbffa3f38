#ifndef GAT_COMMON_STORAGE_TIER_H_
#define GAT_COMMON_STORAGE_TIER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

/// Two-tier storage accounting.
///
/// The paper (Section IV, VII) splits the GAT index between main memory and
/// hard disk: HICL levels above `h` and all APL postings live on disk, while
/// the high HICL levels, the ITL and the TAS are memory resident. Every
/// component is tagged with the tier the paper assigns it to, so that (a)
/// the memory-cost experiment of Figure 8 counts exactly what the paper
/// counts and (b) search statistics can report how many disk accesses each
/// algorithm performs. What a "disk access" physically is depends on the
/// `DiskTier` the index reads through (gat/storage/disk_tier.h): the
/// default simulated tier only counts, the mmap tier does page-granular
/// block I/O through a cache — with identical logical-read counts.
namespace gat {

enum class StorageTier : uint8_t {
  kMainMemory = 0,
  kDisk = 1,
};

/// hits / lookups with the shared zero-lookups convention (0.0) — the
/// one hit-rate formula every cache statistic in the tree reports.
inline double CacheHitRate(uint64_t hits, uint64_t lookups) {
  return lookups == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(lookups);
}

/// Byte/access counters for one component on one tier.
struct TierUsage {
  StorageTier tier = StorageTier::kMainMemory;
  size_t bytes = 0;

  TierUsage() = default;
  TierUsage(StorageTier t, size_t b) : tier(t), bytes(b) {}
};

/// Mutable counter of disk reads, threaded through searches.
///
/// `reads` counts *logical* fetches (one per APL row / disk-tier HICL
/// list), the paper-comparable unit that is identical under the
/// simulated and the mmap-backed tier. The block counters are populated
/// only by a block-cached tier: `block_hits + blocks_read` is the number
/// of cache-block lookups the logical fetches decomposed into, and
/// `blocks_read` the misses that did real page-granular I/O.
///
/// Counters are relaxed atomics so one counter may be shared across
/// concurrent search branches (shard fan-out) without torn updates; the
/// usual pattern is still one counter per task merged at the join barrier
/// (`SearchStats::operator+=`), where relaxed increments cost nothing.
struct DiskAccessCounter {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> block_hits{0};
  std::atomic<uint64_t> blocks_read{0};

  void RecordRead() { reads.fetch_add(1, std::memory_order_relaxed); }
  void RecordBlockHit() {
    block_hits.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordBlockRead() {
    blocks_read.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t Reads() const { return reads.load(std::memory_order_relaxed); }
  uint64_t BlockHits() const {
    return block_hits.load(std::memory_order_relaxed);
  }
  uint64_t BlocksRead() const {
    return blocks_read.load(std::memory_order_relaxed);
  }

  void Reset() {
    reads.store(0, std::memory_order_relaxed);
    block_hits.store(0, std::memory_order_relaxed);
    blocks_read.store(0, std::memory_order_relaxed);
  }
};

}  // namespace gat

#endif  // GAT_COMMON_STORAGE_TIER_H_
