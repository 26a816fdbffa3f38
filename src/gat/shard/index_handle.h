#ifndef GAT_SHARD_INDEX_HANDLE_H_
#define GAT_SHARD_INDEX_HANDLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "gat/index/gat_index.h"
#include "gat/storage/loaded_snapshot.h"

namespace gat {

/// One immutable serving revision of a shard: a `LoadedSnapshot` — the
/// index plus whatever owns its storage (a mapping + block-cached tier,
/// or a heap-built `GatIndex`) — stamped with an epoch. A revision is
/// reference-counted through `IndexHandle`: in-flight searches pin it,
/// a reload swaps the handle to a successor, and the retired revision
/// is destroyed by whoever drops the last reference — which is what
/// runs the `MappedDiskTier` destructor and purges the mapping's blocks
/// from the shared `BlockCache` only after its last reader drained.
struct ShardRevision {
  /// Owns the index and its storage together (the lifetime rule is the
  /// wrapper's whole point — see storage/loaded_snapshot.h).
  LoadedSnapshot snapshot;
  /// The serving index (`snapshot.index()`); never null.
  const GatIndex* index = nullptr;
  /// Monotonic per shard: 0 for the constructed generation, +1 per
  /// installed successor — stamped by `IndexHandle::Install` under the
  /// handle mutex, so it is strictly increasing even when reloads of
  /// one shard race. Lets tests and operators observe swaps.
  uint64_t epoch = 0;

  /// The mapped storage side when this revision serves out of a
  /// mapping; nullptr in heap-owned mode.
  const MappedSnapshot* mapped() const { return snapshot.mapped(); }

  /// Wraps a loaded snapshot; the handle must be non-empty.
  static std::shared_ptr<ShardRevision> Of(LoadedSnapshot snapshot) {
    auto rev = std::make_shared<ShardRevision>();
    rev->index = snapshot.index();
    rev->snapshot = std::move(snapshot);
    return rev;
  }

  static std::shared_ptr<ShardRevision> Of(
      std::unique_ptr<MappedSnapshot> snapshot) {
    return Of(LoadedSnapshot::FromMapped(std::move(snapshot)));
  }

  static std::shared_ptr<ShardRevision> Of(std::unique_ptr<GatIndex> index) {
    return Of(LoadedSnapshot::FromOwned(std::move(index)));
  }
};

/// A pinned, read-only view of one shard's serving index. RAII face of
/// the revision refcount: while a PinnedShard is alive, the revision it
/// names — index, mapping, disk tier — cannot be destroyed, no matter
/// how many `ReloadShard`s retire it underneath. Copyable (a copy is
/// another pin) and cheap to move; drop it to release the pin.
///
/// This is the only way `ShardedIndex` hands out per-shard indexes:
/// the old unpinned `shard_index()`-returns-a-bare-reference shape was
/// a use-after-free trap under concurrent reload and is gone.
class PinnedShard {
 public:
  PinnedShard() = default;
  explicit PinnedShard(std::shared_ptr<const ShardRevision> revision)
      : revision_(std::move(revision)) {}

  /// The pinned index. Valid while this (or any copy) is alive.
  const GatIndex& index() const { return *revision_->index; }
  const GatIndex& operator*() const { return *revision_->index; }
  const GatIndex* operator->() const { return revision_->index; }

  /// The revision's install epoch (0 = constructed generation).
  uint64_t epoch() const { return revision_->epoch; }

  /// The underlying revision, for callers that need the storage side
  /// (e.g. the prefetcher reading the mapped tier).
  const std::shared_ptr<const ShardRevision>& revision() const {
    return revision_;
  }

  explicit operator bool() const { return revision_ != nullptr; }

 private:
  std::shared_ptr<const ShardRevision> revision_;
};

/// The epoch-guarded swap point of one shard: a shared_ptr published
/// under a mutex. `Pin` is the read side (a search acquires the current
/// revision and holds it for the duration of its shard visit — two
/// uncontended mutex ops plus a refcount, nanoseconds against a
/// millisecond search); `Swap` atomically installs a successor and
/// returns the predecessor, whose destruction the last pinning reader
/// triggers. There is no reader registry and no quiescence wait: the
/// shared_ptr count *is* the epoch drain.
///
/// Thread-safety: all methods are safe against each other from any
/// number of threads.
class IndexHandle {
 public:
  IndexHandle() = default;
  IndexHandle(const IndexHandle&) = delete;
  IndexHandle& operator=(const IndexHandle&) = delete;

  /// The current revision, pinned: the revision (index, mapping, tier)
  /// stays alive at least until the returned pointer is dropped, even
  /// across any number of concurrent `Swap`s.
  std::shared_ptr<const ShardRevision> Pin() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  /// Installs `next` as the serving revision — stamping its epoch to
  /// predecessor + 1 (0 when there is no predecessor) inside the same
  /// critical section, so epochs stay strictly monotonic under racing
  /// installs — and returns the retired revision (which the caller
  /// usually just drops; in-flight pins keep it alive until they
  /// drain). `next` must not be shared yet: it becomes immutable here.
  std::shared_ptr<const ShardRevision> Install(
      std::shared_ptr<ShardRevision> next) {
    std::lock_guard<std::mutex> lock(mu_);
    next->epoch = current_ != nullptr ? current_->epoch + 1 : 0;
    std::shared_ptr<const ShardRevision> prev = std::move(current_);
    current_ = std::move(next);
    return prev;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ShardRevision> current_;
};

}  // namespace gat

#endif  // GAT_SHARD_INDEX_HANDLE_H_
