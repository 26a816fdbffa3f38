#include "gat/shard/sharded_index.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <utility>

#include "gat/common/check.h"
#include "gat/engine/executor.h"
#include "gat/index/snapshot.h"
#include "gat/util/stopwatch.h"

namespace gat {

const Dataset& ShardGeneration::shard_dataset(uint32_t shard) const {
  GAT_CHECK(shard < num_shards_);
  return shard_datasets_[shard];
}

const ShardRevision* ShardGeneration::PinShard(uint32_t shard) const {
  GAT_CHECK(shard < num_shards_);
  return &revisions_[shard];
}

std::shared_ptr<ShardGeneration> ShardedIndex::BuildGeneration(
    const Dataset& dataset, uint32_t num_shards,
    const std::string& snapshot_dir, Executor* executor,
    uint32_t build_threads) const {
  GAT_CHECK(num_shards >= 1);
  auto gen = std::make_shared<ShardGeneration>();
  gen->num_shards_ = num_shards;
  gen->total_trajectories_ = dataset.size();
  gen->shard_datasets_ = dataset.PartitionRoundRobin(num_shards);
  gen->revisions_.resize(num_shards);

  const bool use_snapshots = !snapshot_dir.empty();
  // The mmap tier *is* the snapshot file; there is nothing to map
  // without a directory to persist into.
  GAT_CHECK(cache_ == nullptr || use_snapshots);
  if (use_snapshots) {
    std::error_code ec;  // best effort; a failed mkdir surfaces as a build
    std::filesystem::create_directories(snapshot_dir, ec);
  }

  // Builds and snapshot loads are tasks on the shared executor when the
  // caller provides one (a serving process rebuilds on the same pool
  // its queries run on); otherwise a construction-scoped executor fans
  // the shards out. ParallelFor builds shard 0 on this thread, so that
  // executor needs one worker fewer than the build parallelism; with
  // none to spare (build_threads == 1, one shard, a 1-core host) the
  // loop stays inline rather than asking for Executor(0), which would
  // mean hardware concurrency.
  std::unique_ptr<Executor> scoped;
  if (executor == nullptr) {
    const uint32_t workers =
        std::min(ResolveThreadCount(build_threads), num_shards) - 1;
    if (workers > 0) {
      scoped = std::make_unique<Executor>(workers);
      executor = scoped.get();
    }
  }

  std::atomic<uint32_t> loaded{0};
  // Each task writes only its own slot; the group barrier publishes the
  // slots to whoever pins the finished generation. A snapshot loads in
  // this index's serving form: mapped through the shared cache in mmap
  // mode, else copied onto the heap.
  auto build_shard = [&](size_t shard) {
    const Dataset& shard_dataset = gen->shard_datasets_[shard];
    std::unique_ptr<const GatIndex>& index = gen->revisions_[shard].index;
    // Binds each snapshot to this exact dataset cut: a stale file — even
    // of a same-sized dataset — fails the load and triggers a rebuild.
    // Only worth the dataset pass when a cache is in play.
    const uint32_t fingerprint =
        use_snapshots ? DatasetFingerprint(shard_dataset) : 0;
    const std::string path =
        use_snapshots ? SnapshotPath(snapshot_dir, shard, num_shards)
                      : std::string();
    if (use_snapshots) {
      index = LoadSnapshot(path, &config_, fingerprint, executor, cache_);
      if (index != nullptr) {
        loaded.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    index = std::make_unique<GatIndex>(shard_dataset, config_);
    // Cache priming. Cold mmap start: swap the just-built heap index for
    // the mapped serving form immediately, so even the first process
    // generation serves its disk tier from the file. Keeps the built
    // index if the fresh file cannot be mapped.
    if (use_snapshots && SaveSnapshot(*index, path, fingerprint) &&
        cache_ != nullptr) {
      if (auto mapped =
              LoadSnapshot(path, &config_, fingerprint, executor, cache_)) {
        index = std::move(mapped);
      }
    }
  };

  ParallelFor(executor, num_shards, TaskPriority::kHigh, build_shard);

  gen->loaded_from_snapshot_ = loaded.load();
  return gen;
}

ShardedIndex::ShardedIndex(const Dataset& dataset, const GatConfig& config,
                           const ShardOptions& options)
    : config_(config) {
  GAT_CHECK(options.num_shards >= 1);
  GAT_CHECK(!options.mmap_disk_tier || !options.snapshot_dir.empty());
  if (options.mmap_disk_tier) {
    cache_ = std::make_shared<BlockCache>(options.cache_config);
  }
  Stopwatch timer;
  auto gen =
      BuildGeneration(dataset, options.num_shards, options.snapshot_dir,
                      options.executor, options.build_threads);
  // No publish race: nothing can pin before the constructor returns.
  current_ = std::move(gen);
  build_seconds_ = timer.ElapsedMillis() / 1000.0;
}

std::shared_ptr<const ShardGeneration> ShardedIndex::PinGeneration() const {
  std::lock_guard<std::mutex> lock(gen_mu_);
  return current_;
}

bool ShardedIndex::ReloadGeneration(const Dataset& dataset,
                                    uint32_t num_shards,
                                    const std::string& snapshot_dir,
                                    Executor* executor) {
  if (num_shards < 1) return false;
  // mmap mode needs a directory to persist into, same as construction.
  if (cache_ != nullptr && snapshot_dir.empty()) return false;
  // Built entirely off the serving path; queries keep answering on the
  // published generation throughout.
  auto gen = BuildGeneration(dataset, num_shards, snapshot_dir, executor,
                             /*build_threads=*/0);
  std::shared_ptr<const ShardGeneration> retired;
  {
    std::lock_guard<std::mutex> lock(gen_mu_);
    gen->number_ = current_->number() + 1;
    retired = std::move(current_);
    current_ = std::move(gen);
  }
  // `retired` drops here; readers that pinned the old generation keep
  // it (datasets, revisions) alive until they drain, at which point its
  // mapped revisions unregister from the shared cache.
  generations_published_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

uint32_t ShardedIndex::shards_mmap_served() const {
  const auto gen = PinGeneration();
  uint32_t count = 0;
  for (uint32_t shard = 0; shard < gen->num_shards(); ++shard) {
    if (gen->PinShard(shard)->index->mapped()) ++count;
  }
  return count;
}

bool ShardedIndex::SaveSnapshots(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const auto gen = PinGeneration();
  bool ok = true;
  for (uint32_t shard = 0; shard < gen->num_shards(); ++shard) {
    ok = SaveSnapshot(*gen->PinShard(shard)->index,
                      SnapshotPath(dir, shard, gen->num_shards()),
                      DatasetFingerprint(gen->shard_dataset(shard))) &&
         ok;
  }
  return ok;
}

std::string ShardedIndex::SnapshotPath(const std::string& dir, uint32_t shard,
                                       uint32_t num_shards) {
  return dir + "/shard-" + std::to_string(shard) + "-of-" +
         std::to_string(num_shards) + ".gats";
}

GatIndex::MemoryBreakdown ShardedIndex::memory_breakdown() const {
  const auto gen = PinGeneration();
  GatIndex::MemoryBreakdown total;
  for (uint32_t shard = 0; shard < gen->num_shards(); ++shard) {
    const auto b = gen->PinShard(shard)->index->memory_breakdown();
    total.hicl_memory += b.hicl_memory;
    total.hicl_disk += b.hicl_disk;
    total.itl_memory += b.itl_memory;
    total.tas_memory += b.tas_memory;
    total.apl_disk += b.apl_disk;
  }
  return total;
}

}  // namespace gat
