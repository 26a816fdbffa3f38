#ifndef GAT_STORAGE_LOADED_SNAPSHOT_H_
#define GAT_STORAGE_LOADED_SNAPSHOT_H_

#include <memory>
#include <string>
#include <utility>

#include "gat/storage/mapped_snapshot.h"

namespace gat {

/// An owning handle to one loaded serving index, whichever way it was
/// materialized: a `MappedSnapshot` (mapping + block-cached disk tier +
/// index, all of whose views die together) or a heap-built/`LoadSnapshot`
/// `GatIndex`. The wrapper makes the lifetime rule mechanical — "the
/// index pointer is valid exactly as long as the LoadedSnapshot" — so
/// callers never hand-assemble a bare `GatIndex*` next to the
/// `MappedSnapshot` that owns it and carry the pairing obligation
/// themselves (the KNOWN_ISSUES caveat this type retires).
///
/// Movable, not copyable: exactly one owner. An empty handle (default
/// constructed, or a failed `LoadMapped`) is falsy and has no index.
class LoadedSnapshot {
 public:
  LoadedSnapshot() = default;

  LoadedSnapshot(LoadedSnapshot&&) = default;
  LoadedSnapshot& operator=(LoadedSnapshot&&) = default;
  LoadedSnapshot(const LoadedSnapshot&) = delete;
  LoadedSnapshot& operator=(const LoadedSnapshot&) = delete;

  /// Wraps a mapped snapshot (nullptr yields an empty handle, so the
  /// result of `MappedSnapshot::Load` can be passed through directly).
  static LoadedSnapshot FromMapped(std::unique_ptr<MappedSnapshot> snapshot) {
    LoadedSnapshot out;
    if (snapshot != nullptr) {
      out.index_ = &snapshot->index();
      out.mapped_ = std::move(snapshot);
    }
    return out;
  }

  /// Wraps a heap-owned index (built, or loaded by `LoadSnapshot`).
  /// nullptr yields an empty handle.
  static LoadedSnapshot FromOwned(std::unique_ptr<GatIndex> index) {
    LoadedSnapshot out;
    out.index_ = index.get();
    out.owned_ = std::move(index);
    return out;
  }

  /// `MappedSnapshot::Load` + `FromMapped` in one step: the one-liner
  /// for serving an index out of a snapshot file with the lifetime
  /// already tied up. Empty handle on any load failure.
  static LoadedSnapshot LoadMapped(const std::string& path,
                                   const MappedSnapshotOptions& options = {}) {
    return FromMapped(MappedSnapshot::Load(path, options));
  }

  /// The serving index; nullptr only for an empty handle.
  const GatIndex* index() const { return index_; }
  const GatIndex& operator*() const { return *index_; }
  const GatIndex* operator->() const { return index_; }

  /// The mapped storage side, when this snapshot serves out of a
  /// mapping (its block cache holds the block-level counters); nullptr
  /// for heap-owned indexes.
  const MappedSnapshot* mapped() const { return mapped_.get(); }

  explicit operator bool() const { return index_ != nullptr; }

 private:
  std::unique_ptr<MappedSnapshot> mapped_;
  std::unique_ptr<GatIndex> owned_;
  const GatIndex* index_ = nullptr;
};

}  // namespace gat

#endif  // GAT_STORAGE_LOADED_SNAPSHOT_H_
