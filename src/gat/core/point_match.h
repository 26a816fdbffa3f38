#ifndef GAT_CORE_POINT_MATCH_H_
#define GAT_CORE_POINT_MATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "gat/common/types.h"

namespace gat {

/// A candidate match point for one query point q: the distance d(p, q) and
/// the bitmask of q.Phi activities that p carries (bit i corresponds to the
/// i-th activity of q.Phi in sorted order). Only points with a non-empty
/// intersection with q.Phi participate in point matches (Definition 3), so
/// `mask` is always non-zero in kernel input.
struct MatchPoint {
  double distance = 0.0;
  ActivityMask mask = 0;
  PointIndex point_index = 0;
};

/// Outcome of a minimum-point-match computation (Definition 4).
struct PointMatchResult {
  /// Dmpm(q, Tr); kInfDist when Tr cannot cover q.Phi.
  double distance = kInfDist;
  /// Number of candidate points actually examined before termination.
  uint32_t points_examined = 0;
  /// True if the sorted-order early-termination condition fired
  /// (Algorithm 3, line 5).
  bool early_terminated = false;
};

/// The hash table H of Algorithm 3, maintained incrementally.
///
/// Keys are subsets of q.Phi encoded as bitmasks; values are the current
/// minimum match distance for that activity subset. The table is dense
/// (2^|q.Phi| slots; |q.Phi| <= kMaxQueryActivities), which makes both the
/// subset-seeding walk and the pairwise-union refresh loop (Algorithm 3,
/// lines 10-19) branch-cheap.
///
/// Points may be added in *arbitrary* order: sortedness by distance is only
/// required for the early-termination test, not for correctness of the
/// final value. This property is what lets Algorithm 4 (order-sensitive DP)
/// grow the window Tr[k..j] by prepending points while reusing the same
/// table. A dedicated property test (point_match_test.cc) checks
/// order-independence against the exhaustive reference.
class PointMatchTable {
 public:
  /// `num_activities` = |q.Phi|, in [1, kMaxQueryActivities].
  explicit PointMatchTable(int num_activities);

  /// Clears all entries (cheap: touches only previously finite keys).
  void Reset();

  /// Inserts one candidate point (Algorithm 3, lines 7-19).
  void AddPoint(ActivityMask mask, double distance);

  /// Current H[q.Phi], i.e. the minimum point match distance over all
  /// points added so far; kInfDist while uncovered.
  double CurrentDistance() const { return dist_[full_mask_]; }

  /// Current H[mask] (kInfDist when absent).
  double DistanceFor(ActivityMask mask) const;

  /// True once the added points jointly cover q.Phi.
  bool Covered() const { return dist_[full_mask_] != kInfDist; }

  ActivityMask full_mask() const { return full_mask_; }
  int num_activities() const { return num_bits_; }

 private:
  void SetEntry(ActivityMask mask, double distance);

  int num_bits_;
  ActivityMask full_mask_;
  std::vector<double> dist_;          // size 1 << num_bits_
  std::vector<ActivityMask> finite_;  // keys currently present in H
  std::vector<uint8_t> present_;      // membership flags for finite_
  std::vector<ActivityMask> queue_;   // reusable FIFO for the subset walk
};

/// Algorithm 3 in full: sorts `candidates` in place by ascending distance,
/// feeds `table` (reset first; its width is |q.Phi|), and stops early once
/// the next point's distance exceeds the current Dmpm. Allocates nothing
/// once the table has grown, so one table can serve many calls.
PointMatchResult MinPointMatchDistance(std::span<MatchPoint> candidates,
                                       PointMatchTable& table);

/// The same with a fresh table. `num_activities` = |q.Phi|.
PointMatchResult MinPointMatchDistance(std::vector<MatchPoint> candidates,
                                       int num_activities);

/// Exhaustive reference implementation of Dmpm: an O(|CP| * 2^|q.Phi|)
/// set-cover DP over activity subsets that also reconstructs the witness
/// point set (the minimum point match Tr.MPM(q), Definition 4). Used as the
/// test oracle for Algorithm 3 and for producing human-readable results in
/// the examples.
///
/// `witness` (optional) receives the point indices of one minimum point
/// match, sorted ascending.
double ExhaustiveMinPointMatch(const std::vector<MatchPoint>& candidates,
                               int num_activities,
                               std::vector<PointIndex>* witness);

}  // namespace gat

#endif  // GAT_CORE_POINT_MATCH_H_
