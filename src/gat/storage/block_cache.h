#ifndef GAT_STORAGE_BLOCK_CACHE_H_
#define GAT_STORAGE_BLOCK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gat/common/storage_tier.h"

namespace gat {

/// BlockCache knobs. Both sizes are rounded to powers of two; the
/// capacity is a *shared budget* — one cache typically fronts every
/// shard's mapped snapshot in a serving process.
struct BlockCacheConfig {
  /// Cache-block granularity in bytes (power of two; clamped to
  /// [512, 1 MiB]). 4 KiB = one page, the mmap fault granularity.
  uint32_t block_bytes = 4096;

  /// Total budget in bytes across all files and shards. Blocks =
  /// capacity_bytes / block_bytes, floored at one block per LRU shard.
  uint64_t capacity_bytes = 64ull << 20;

  /// LRU shard count (power of two; clamped to [1, 64]). Shards cut
  /// mutex contention when many search tasks fetch concurrently.
  uint32_t shards = 8;
};

/// Point-in-time counters. `hits`/`misses` count demand lookups
/// (`Touch`); `prefetch_hits`/`prefetched` count warm-path lookups
/// (`Warm`) so prefetch effectiveness is visible separately and never
/// distorts the demand hit rate. The reload counters: `invalidated` is
/// resident blocks purged by `Unregister`, `files_retired` the
/// unregistered file namespaces, and `stale_drops` the operations
/// rejected because their token's generation was already retired (a
/// drained-too-late reader — never an error, never served).
struct BlockCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetched = 0;
  uint64_t invalidated = 0;
  uint64_t files_retired = 0;
  uint64_t stale_drops = 0;

  uint64_t DemandLookups() const { return hits + misses; }
  double HitRate() const { return CacheHitRate(hits, DemandLookups()); }
};

/// One registered file namespace of the cache: a recyclable slot id plus
/// the generation stamped at registration. Tokens are value types — a
/// reader may copy one freely — and every cache operation validates the
/// generation, so a token kept past its `Unregister` can neither hit a
/// successor's blocks nor publish its own into a recycled id.
struct BlockFileToken {
  uint32_t id = 0;
  uint32_t generation = 0;  // odd while registered, even once retired
};

/// A sharded LRU cache of (file, block) residency over mmap-backed
/// snapshots — the main-memory buffer pool in front of the disk tier.
///
/// The cache tracks *which* blocks are resident, not the bytes
/// themselves: the bytes live in the file mapping, and the caller does
/// the real read (pagefault + verify) on a miss. This is exactly the
/// split a buffer pool over mmap has — the cache is the replacement
/// policy and the accounting, the kernel owns the pages.
///
/// ## File generations and live reload
///
/// `RegisterFile` hands out a `BlockFileToken`: a slot id (recycled
/// through a free list, so a serving process that hot-swaps snapshots
/// forever never exhausts the 24-bit key namespace) plus a per-slot
/// generation. `Unregister` retires the token — it bumps the slot's
/// generation *first*, then purges every resident block of the id, and
/// only then recycles the id — so once it returns, no block of the
/// retired mapping is resident and none can become resident: a stale
/// `Publish` re-checks the generation under the same shard mutex the
/// purge held and is dropped, and a stale `Touch` can never hit a
/// successor's block. This is what makes snapshot hot-swap safe against
/// file-id reuse across generations.
///
/// Thread-safety: fully internally synchronized, including `Unregister`
/// racing with lookups/publishes on the retired token. Each key hashes
/// to one LRU shard guarded by its own mutex; stats are relaxed atomics.
/// Two tasks missing the same block concurrently both report a miss,
/// both read-and-verify, and both publish — benign duplicate work for
/// immutable read-only mappings, and no task can ever observe a block
/// as resident before some reader finished verifying it (misses only
/// become resident through `Publish`).
class BlockCache {
 public:
  /// Registered-but-not-yet-retired files per cache. Slots recycle on
  /// `Unregister`; `RegisterFile` aborts past this many *live* files.
  static constexpr uint32_t kMaxLiveFiles = 4096;

  explicit BlockCache(const BlockCacheConfig& config = {});

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Hands out a unique file namespace for one mapped snapshot, so
  /// shards sharing the cache never alias each other's blocks. Slot ids
  /// recycle across `Unregister`; the generation makes each
  /// registration distinct.
  BlockFileToken RegisterFile();

  /// Retires `token`: purges every resident block of the file and
  /// recycles its id for future registrations. After this returns, no
  /// operation through `token` (or any earlier generation of the id)
  /// can hit, and none can insert. Idempotent: a second call with the
  /// same token is a counted no-op.
  void Unregister(const BlockFileToken& token);

  /// Demand lookup of block `block` of file `token`: marks it
  /// most-recently-used and returns true when it was resident. On a
  /// miss (false) the caller must do the real read and verification,
  /// then `Publish` the block — a missed block is deliberately NOT
  /// inserted here, so a concurrent lookup can never see a block as
  /// resident before its reader finished verifying it. A retired token
  /// always misses (counted under `stale_drops`, not the demand stats).
  bool Touch(const BlockFileToken& token, uint64_t block);

  /// Prefetch lookup: same residency semantics as `Touch`, but counted
  /// under `prefetched`/`prefetch_hits` instead of the demand hit/miss
  /// stats. Returns true when the block was already resident; a miss
  /// must be read, verified and `Publish`ed like a demand miss.
  bool Warm(const BlockFileToken& token, uint64_t block);

  /// Inserts a read-and-verified block as most-recently-used, evicting
  /// the shard's LRU tail if full. Idempotent under races: if another
  /// reader published the block first, this just bumps its recency. A
  /// publish through a retired token is dropped — a reader that raced
  /// past its file's `Unregister` cannot resurrect purged blocks into a
  /// recycled id.
  void Publish(const BlockFileToken& token, uint64_t block);

  BlockCacheStats Snapshot() const;

  uint32_t block_bytes() const { return block_bytes_; }
  uint64_t capacity_blocks() const { return capacity_blocks_; }

  /// Resident blocks right now (sums the shard maps; for tests/benches).
  uint64_t ResidentBlocks() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    // Front = most recently used. The map holds iterators into the
    // list; both only ever hold keys (no data bytes).
    std::list<uint64_t> lru;
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> index;
    // Resident keys bucketed by file id, maintained on insert/evict, so
    // Unregister purges in time proportional to the retired file's
    // resident blocks instead of walking the whole LRU per reload.
    std::unordered_map<uint32_t, std::unordered_set<uint64_t>> by_file;
    uint64_t capacity = 1;
  };

  Shard& ShardFor(uint64_t key);
  bool LookupInternal(const BlockFileToken& token, uint64_t block,
                      bool prefetch);
  /// The current generation of `token`'s slot still matches the token.
  /// Reading it inside a shard's critical section is what closes the
  /// retire/lookup race: the purge runs under the same shard mutexes
  /// after the generation bump, so any operation that still sees the
  /// old generation is ordered before the purge of its shard.
  bool Live(const BlockFileToken& token) const {
    return generations_[token.id].load(std::memory_order_relaxed) ==
           token.generation;
  }

  uint32_t block_bytes_;
  uint64_t capacity_blocks_;
  std::vector<Shard> shards_;

  // File-slot registry: generations have stable addresses (fixed array)
  // so the hot path reads them lock-free; allocation/retirement of the
  // slots themselves serializes on files_mu_.
  std::unique_ptr<std::atomic<uint32_t>[]> generations_;
  std::mutex files_mu_;
  std::vector<uint32_t> free_ids_;
  uint32_t next_unused_id_ = 0;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> prefetch_hits_{0};
  std::atomic<uint64_t> prefetched_{0};
  std::atomic<uint64_t> invalidated_{0};
  std::atomic<uint64_t> files_retired_{0};
  std::atomic<uint64_t> stale_drops_{0};
};

}  // namespace gat

#endif  // GAT_STORAGE_BLOCK_CACHE_H_
