#include "gat/storage/block_cache.h"

#include <algorithm>
#include <bit>

#include "gat/common/check.h"

namespace gat {
namespace {

/// (file, block) packed into the one word the LRU list/map store. 40
/// bits of block index cover 512 TiB at the smallest block size; 24
/// bits of file id cover any realistic shard count (slot ids recycle
/// below kMaxLiveFiles, far under the bound).
uint64_t PackKey(uint32_t file, uint64_t block) {
  GAT_DCHECK(block < (uint64_t{1} << 40));
  GAT_DCHECK(file < (uint32_t{1} << 24));  // ids above this would alias
  return (static_cast<uint64_t>(file) << 40) | block;
}

uint32_t FileOfKey(uint64_t key) { return static_cast<uint32_t>(key >> 40); }

}  // namespace

BlockCache::BlockCache(const BlockCacheConfig& config) {
  block_bytes_ = static_cast<uint32_t>(std::bit_floor(
      std::clamp<uint64_t>(config.block_bytes, 512, 1ull << 20)));
  const uint32_t num_shards = static_cast<uint32_t>(
      std::bit_floor(std::clamp<uint64_t>(config.shards, 1, 64)));
  // At least one block per shard: a cache that cannot hold a block at
  // all would turn every lookup into a miss-and-evict of itself, which
  // is indistinguishable from (but slower than) no cache.
  capacity_blocks_ =
      std::max<uint64_t>(config.capacity_bytes / block_bytes_, num_shards);
  shards_ = std::vector<Shard>(num_shards);
  const uint64_t per_shard =
      std::max<uint64_t>(capacity_blocks_ / num_shards, 1);
  for (auto& shard : shards_) shard.capacity = per_shard;
  generations_ = std::make_unique<std::atomic<uint32_t>[]>(kMaxLiveFiles);
  for (uint32_t i = 0; i < kMaxLiveFiles; ++i) {
    generations_[i].store(0, std::memory_order_relaxed);
  }
}

BlockFileToken BlockCache::RegisterFile() {
  std::lock_guard<std::mutex> lock(files_mu_);
  uint32_t id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    // More *live* mappings than slots means tokens are leaking (a
    // retired snapshot that never unregistered) — fail loudly instead
    // of aliasing block keys.
    GAT_CHECK(next_unused_id_ < kMaxLiveFiles);
    id = next_unused_id_++;
  }
  // Even -> odd: the slot is live again, under a generation no earlier
  // token of this id ever carried.
  const uint32_t generation =
      generations_[id].load(std::memory_order_relaxed) + 1;
  generations_[id].store(generation, std::memory_order_release);
  return {id, generation};
}

void BlockCache::Unregister(const BlockFileToken& token) {
  {
    std::lock_guard<std::mutex> lock(files_mu_);
    // Idempotent: only the registration that still owns the slot
    // retires it (a double-unregister or a stale token is a no-op).
    if (generations_[token.id].load(std::memory_order_relaxed) !=
        token.generation) {
      stale_drops_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Odd -> even, *before* the purge: from here on no operation
    // through this token can insert (Publish re-checks the generation
    // under the shard mutex), so the purge below leaves nothing behind.
    generations_[token.id].store(token.generation + 1,
                                 std::memory_order_release);
  }
  uint64_t purged = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto bucket = shard.by_file.find(token.id);
    if (bucket != shard.by_file.end()) {
      for (const uint64_t key : bucket->second) {
        const auto it = shard.index.find(key);
        shard.lru.erase(it->second);
        shard.index.erase(it);
        ++purged;
      }
      shard.by_file.erase(bucket);
    }
  }
  // Only now is the id reusable: a successor registered after this
  // point can never see (or be aliased by) a block of this generation.
  {
    std::lock_guard<std::mutex> lock(files_mu_);
    free_ids_.push_back(token.id);
  }
  invalidated_.fetch_add(purged, std::memory_order_relaxed);
  files_retired_.fetch_add(1, std::memory_order_relaxed);
}

BlockCache::Shard& BlockCache::ShardFor(uint64_t key) {
  // Multiplicative hash over the packed key: consecutive blocks of one
  // file spread across shards instead of hammering one mutex.
  return shards_[(key * 0x9E3779B97F4A7C15ull) >> 32 & (shards_.size() - 1)];
}

bool BlockCache::Touch(const BlockFileToken& token, uint64_t block) {
  const uint64_t key = PackKey(token.id, block);
  Shard& shard = ShardFor(key);
  bool hit;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!Live(token)) {
      // A reader that raced past its Unregister: never a hit (the id
      // may already be serving a successor's blocks), never counted as
      // cache traffic.
      stale_drops_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    auto it = shard.index.find(key);
    hit = it != shard.index.end();
    if (hit) shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  }
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return hit;
}

void BlockCache::Publish(const BlockFileToken& token, uint64_t block) {
  const uint64_t key = PackKey(token.id, block);
  Shard& shard = ShardFor(key);
  bool evicted = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!Live(token)) {
      // Racing with (or after) Unregister: dropping the insert is what
      // guarantees the purge leaves nothing behind — see Unregister.
      stale_drops_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // A concurrent reader of the same block published first; their
      // copy of the verification covered these bytes.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.lru.size() >= shard.capacity) {
      const uint64_t victim = shard.lru.back();
      shard.index.erase(victim);
      const auto bucket = shard.by_file.find(FileOfKey(victim));
      bucket->second.erase(victim);
      if (bucket->second.empty()) shard.by_file.erase(bucket);
      shard.lru.pop_back();
      evicted = true;
    }
    shard.lru.push_front(key);
    shard.index.emplace(key, shard.lru.begin());
    shard.by_file[token.id].insert(key);
  }
  if (evicted) evictions_.fetch_add(1, std::memory_order_relaxed);
}

BlockCacheStats BlockCache::Snapshot() const {
  BlockCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.invalidated = invalidated_.load(std::memory_order_relaxed);
  s.files_retired = files_retired_.load(std::memory_order_relaxed);
  s.stale_drops = stale_drops_.load(std::memory_order_relaxed);
  return s;
}

uint64_t BlockCache::ResidentBlocks() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.index.size();
  }
  return total;
}

}  // namespace gat
