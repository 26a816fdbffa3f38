#ifndef GAT_INDEX_HICL_H_
#define GAT_INDEX_HICL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "gat/common/storage_tier.h"
#include "gat/common/types.h"

namespace gat {

class MappedDiskTier;
struct SnapshotIo;

/// Hierarchical Inverted Cell List (Section IV, component i).
///
/// For every activity alpha and every grid level l, HICL stores the sorted
/// Morton codes of the level-l cells that contain alpha somewhere inside
/// them. The leaf level is built from the data; coarser levels aggregate
/// children (a parent cell contains alpha iff any child does).
///
/// Storage tiers follow the paper: levels 1..memory_levels are main-memory
/// resident; deeper levels are disk-resident (`h = log4(3B/4C + 1)` for
/// budget B and vocabulary size C — we expose `MemoryLevelsForBudget` for
/// that formula and let callers pick). A query against a disk level charges
/// one logical read to the supplied DiskAccessCounter, and an index served
/// from a mapping also reads the list's cache blocks through its
/// `MappedDiskTier`.
///
/// Like `Apl`, every list is a span into an image of u32 words laid out
/// like the snapshot's `HICL` lists (a u64 count, then the codes). A build
/// writes every list into one heap buffer and `LoadSnapshot` without a
/// cache copies them into one. With a cache it copies only the memory
/// levels into the buffer, so they stay RAM-resident; the disk levels are
/// served from the file mapping. A disk-level fetch reads the list's
/// count word and codes.
class Hicl {
 public:
  /// `leaf_cells_per_activity[a]` = sorted unique leaf Morton codes where
  /// activity `a` occurs. `depth` = d; `memory_levels` = h in [0, depth].
  Hicl(int depth, int memory_levels,
       const std::vector<std::vector<uint32_t>>& leaf_cells_per_activity);

  int depth() const { return depth_; }
  int memory_levels() const { return memory_levels_; }
  uint32_t num_activities() const {
    return static_cast<uint32_t>(lists_.size() / depth_);
  }

  /// Does cell (level, code) contain activity `a` anywhere inside it?
  bool Contains(ActivityId a, int level, uint32_t code,
                DiskAccessCounter* disk = nullptr) const;

  /// Sorted level-`level` cell codes containing activity `a`.
  std::span<const uint32_t> CellsAt(ActivityId a, int level,
                                    DiskAccessCounter* disk = nullptr) const;

  /// Sorted unique union of level-`level` cells containing any activity in
  /// `activities` — the seeding set of the candidate-retrieval search.
  /// Reads the lists directly: no disk read is charged (the searcher
  /// charges disk-level list fetches itself, once per query).
  std::vector<uint32_t> CellsWithAny(const std::vector<ActivityId>& activities,
                                     int level) const;

  /// Appends to `out`, in ascending code order, the child codes (level+1)
  /// of cell (level, code) that contain at least one activity in
  /// `activities`. The four children are consecutive Morton codes, so this
  /// is one `lower_bound` per activity; like `CellsWithAny` it charges no
  /// disk read.
  void ChildrenWithAny(const std::vector<ActivityId>& activities, int level,
                       uint32_t code, std::vector<uint32_t>* out) const;

  /// Bytes held on each tier (4 bytes per stored cell code).
  size_t MemoryBytes() const { return memory_bytes_; }
  size_t DiskBytes() const { return disk_bytes_; }

  /// The paper's memory-budget formula: largest h with sum_{i=1..h} 4^i * C
  /// <= budget_bytes / 4 (each cell-id costs 4 bytes), i.e. the number of
  /// grid levels whose *worst-case* inverted cell lists fit in the budget.
  static int MemoryLevelsForBudget(size_t budget_bytes, uint32_t vocabulary,
                                   int depth);

  Hicl(const Hicl&) = delete;  // lists are spans into the image
  Hicl& operator=(const Hicl&) = delete;

 private:
  friend struct SnapshotIo;  // snapshot save/parse
  Hicl() = default;          // only for snapshot loading

  int depth_ = 0;
  int memory_levels_ = 0;
  /// The heap image: every list, or only the memory levels when the disk
  /// levels are served from a mapping.
  std::vector<uint32_t> image_;
  std::vector<std::span<const uint32_t>> lists_;  // a * depth + (level - 1)
  /// The mapping's block reader; nullptr for a heap image.
  const MappedDiskTier* tier_ = nullptr;
  size_t memory_bytes_ = 0;
  size_t disk_bytes_ = 0;
};

}  // namespace gat

#endif  // GAT_INDEX_HICL_H_
