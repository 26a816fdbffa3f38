#ifndef GAT_INDEX_TAS_H_
#define GAT_INDEX_TAS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gat/common/types.h"

namespace gat {

struct SnapshotIo;

/// Trajectory Activity Sketch (Section IV, component iii).
///
/// A per-trajectory summary of the activities it contains, used to reject
/// candidates before their disk-tier APL rows are fetched. The paper's
/// sketch is M ID intervals per trajectory; this one is a Bloom filter
/// (Bloom, CACM 1970) of the same size: 64·M bits (2·M 32-bit words) per
/// trajectory, with k = 2 bits set per activity ID by one fixed 64-bit
/// multiplicative hash. A query activity "might" be contained iff both of
/// its bits are set; false positives are possible, false dismissals are
/// not. Cost: 8·M·N bytes for N trajectories, the paper's memory
/// accounting for M intervals.
class Tas {
 public:
  /// Builds sketches for trajectories whose activity ID sets are given in
  /// `activity_sets`; `width` = M, in [1, kMaxWidth].
  Tas(const std::vector<std::vector<ActivityId>>& activity_sets, int width);

  /// Largest accepted width (8 KiB per trajectory): bounds the per-query
  /// mask a forged snapshot header could ask for.
  static constexpr int kMaxWidth = 1 << 10;

  /// May trajectory `t` contain activity `a`? (No false negatives.)
  bool MightContain(TrajectoryId t, ActivityId a) const;

  /// May trajectory `t` contain every activity in `activities`?
  bool MightContainAll(TrajectoryId t,
                       const std::vector<ActivityId>& activities) const;

  /// The union of the bits of `activities`: one row of `row_words()`
  /// words. Build it once per query; `MightContainMask` then tests a
  /// candidate without hashing.
  std::vector<uint32_t> Mask(std::span<const ActivityId> activities) const;

  /// Are all bits of `mask` set in trajectory `t`'s row? Equal to
  /// `MightContainAll(t, activities)` for `mask = Mask(activities)`.
  bool MightContainMask(TrajectoryId t, std::span<const uint32_t> mask) const {
    const uint32_t* row = words_.data() + t * row_words_;
    for (size_t w = 0; w < row_words_; ++w) {
      if ((row[w] & mask[w]) != mask[w]) return false;
    }
    return true;
  }

  size_t row_words() const { return row_words_; }
  size_t num_trajectories() const { return words_.size() / row_words_; }

  /// Main-memory footprint: 4 bytes per word (paper: 8MN).
  size_t MemoryBytes() const { return words_.size() * sizeof(uint32_t); }

 private:
  friend struct SnapshotIo;  // snapshot.cc reads/writes the private state
  Tas() = default;           // only for snapshot loading

  /// Activity `a`'s k = 2 bit positions within a row.
  std::array<uint32_t, 2> Bits(ActivityId a) const;
  /// Sets activity `a`'s bits in `row`.
  void SetBits(ActivityId a, uint32_t* row) const;

  size_t row_words_ = 2;
  std::vector<uint32_t> words_;  // row-major, `row_words_` per trajectory
};

}  // namespace gat

#endif  // GAT_INDEX_TAS_H_
