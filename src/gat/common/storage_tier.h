#ifndef GAT_COMMON_STORAGE_TIER_H_
#define GAT_COMMON_STORAGE_TIER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

/// Two-tier storage accounting.
///
/// The paper (Section IV, VII) splits the GAT index between main memory and
/// hard disk: HICL levels above `h` and all APL postings live on disk, while
/// the high HICL levels, the ITL and the TAS are memory resident. Each
/// component reports its bytes per tier (`GatIndex::memory_breakdown()`,
/// the memory cost of Figure 8), and searches count their disk accesses.
/// What a "disk access" physically is depends on where the index's disk
/// sections live: a heap image only counts it, and a mapped snapshot
/// (`LoadSnapshot` with a block cache) also does page-granular block I/O
/// through the cache (gat/storage/mapped_disk_tier.h) — with identical
/// logical-read counts.
namespace gat {

/// hits / lookups with the shared zero-lookups convention (0.0) — the
/// one hit-rate formula every cache statistic in the tree reports.
inline double CacheHitRate(uint64_t hits, uint64_t lookups) {
  return lookups == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(lookups);
}

/// Mutable counter of disk reads, threaded through searches.
///
/// `reads` counts *logical* fetches (one per APL row / disk-tier HICL
/// list), the paper-comparable unit that is identical for a heap-resident
/// and a mapped index. The block counters are populated only by a
/// mapped index: `block_hits + blocks_read` is the number
/// of cache-block lookups the logical fetches decomposed into, and
/// `blocks_read` the misses that did real page-granular I/O.
///
/// Every search owns its own counter (`GatSearcher`'s per-query state),
/// so a shard fan-out never shares one: each shard sweep counts into its
/// own and `SearchStats::operator+=` merges them after the barrier. The
/// counters are relaxed atomics anyway, which costs nothing uncontended,
/// so a caller that does share one across threads gets exact totals
/// (`tests/storage_test.cc` checks this).
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
