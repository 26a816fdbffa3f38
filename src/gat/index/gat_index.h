#ifndef GAT_INDEX_GAT_INDEX_H_
#define GAT_INDEX_GAT_INDEX_H_

#include <memory>
#include <string>

#include "gat/index/apl.h"
#include "gat/index/grid.h"
#include "gat/index/hicl.h"
#include "gat/index/itl.h"
#include "gat/index/tas.h"
#include "gat/model/dataset.h"
#include "gat/storage/mapped_disk_tier.h"

namespace gat {

struct SnapshotIo;

/// Construction parameters of the GAT index (defaults per Section VII-A).
struct GatConfig {
  /// Grid depth d: the space is split into 2^d x 2^d leaf cells
  /// (default 8 => 256 x 256, the paper's default).
  int depth = 8;

  /// HICL levels 1..memory_levels stay in main memory; deeper levels are
  /// disk-tier (the paper keeps levels 1-6 in RAM, 7-8 on disk).
  int memory_levels = 6;

  /// TAS width M: the activity sketch keeps 64·M bits per trajectory
  /// (the bytes of the paper's M intervals).
  int tas_width = 2;

  bool operator==(const GatConfig&) const = default;
};

/// The Grid index for Activity Trajectories (Section IV): the hierarchical
/// quad grid plus its four components — HICL, ITL, TAS, APL — built in one
/// pass over a finalized dataset.
///
/// An index owns everything its components point into: a built or
/// heap-loaded one holds its lists in the components' own images, and one
/// loaded with a block cache also owns the mapping, with the cache
/// reference and block reader, that its disk sections are spans into.
///
/// Thread-safety: immutable after the constructor returns. Every accessor
/// (including the component getters and `memory_breakdown()`) is const and
/// touches only construction-time state, so one index may back any number
/// of concurrent searcher threads without synchronization.
class GatIndex {
 public:
  GatIndex(const Dataset& dataset, const GatConfig& config = {});

  const GatConfig& config() const { return config_; }
  const GridGeometry& grid() const { return grid_; }
  const Hicl& hicl() const { return *hicl_; }
  const Itl& itl() const { return *itl_; }
  const Tas& tas() const { return *tas_; }
  const Apl& apl() const { return *apl_; }

  /// Main-memory vs disk-tier footprint, per component. Figure 8's "memory
  /// cost" series is `MainMemoryTotal()`.
  struct MemoryBreakdown {
    size_t hicl_memory = 0;
    size_t hicl_disk = 0;
    size_t itl_memory = 0;
    size_t tas_memory = 0;
    size_t apl_disk = 0;

    size_t MainMemoryTotal() const {
      return hicl_memory + itl_memory + tas_memory;
    }
    size_t DiskTotal() const { return hicl_disk + apl_disk; }
    std::string ToString() const;
  };
  MemoryBreakdown memory_breakdown() const;

  /// Wall-clock seconds spent building the index (or, for an index
  /// restored by `LoadSnapshot`, loading it).
  double build_seconds() const { return build_seconds_; }

  /// Whether the disk sections are served from a mapped snapshot through
  /// a block cache (`LoadSnapshot` with a cache), not from the heap.
  bool mapped() const { return disk_ != nullptr; }

 private:
  friend struct SnapshotIo;  // snapshot.cc restores indexes w/o a build

  /// Restore shell for snapshot loading: components are filled in by
  /// `SnapshotIo` afterwards.
  GatIndex(const GatConfig& config, const GridGeometry& grid)
      : config_(config), grid_(grid) {}

  GatConfig config_;
  GridGeometry grid_;
  /// The mapped storage; declared before the components, which hold
  /// spans into it, so that they are destroyed first.
  std::unique_ptr<const MappedDiskTier> disk_;
  std::unique_ptr<Hicl> hicl_;
  std::unique_ptr<Itl> itl_;
  std::unique_ptr<Tas> tas_;
  std::unique_ptr<Apl> apl_;
  double build_seconds_ = 0.0;
};

}  // namespace gat

#endif  // GAT_INDEX_GAT_INDEX_H_
