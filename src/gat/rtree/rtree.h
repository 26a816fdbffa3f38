#ifndef GAT_RTREE_RTREE_H_
#define GAT_RTREE_RTREE_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "gat/common/types.h"
#include "gat/geo/point.h"
#include "gat/geo/rect.h"

namespace gat {

class Dataset;

/// One indexed trajectory point.
struct RTreeEntry {
  Point point;
  TrajectoryId trajectory = kInvalidId;
  PointIndex point_index = 0;
};

/// A 2-D R-tree over trajectory points, packed bottom-up with
/// Sort-Tile-Recursive — the substrate of both tree baselines.
///
///  * RT (Section III-B) "treats the points of all trajectories as a point
///    set and indexes these points using an R-tree" (Guttman's structure).
///  * IRT (Section III-C) is the same tree whose every node also carries an
///    inverted file, as in the IR-tree of Cong et al. (VLDB 2009): the
///    sorted union of the activity IDs beneath it plus a 64-bit Bloom-style
///    summary. A tree gets inverted files only when it is built with the
///    dataset that holds its points' activities; RT's tree has none.
///
/// Nearest-neighbour access is incremental "distance browsing"
/// (Hjaltason & Samet): a NearestIterator yields entries in non-decreasing
/// distance from an origin, which is exactly what the k-BCT-style search of
/// Chen et al. needs. Given an activity filter, the iterator also prunes
/// subtrees and entries carrying none of the filter's activities — the one
/// modification IRT makes relative to RT.
class RTree {
  struct Node;
  /// A node's inverted file: the sorted union of the activities below it,
  /// and its summary.
  struct InvertedFile {
    std::vector<ActivityId> activities;
    uint64_t summary = 0;
  };

 public:
  /// Builds a packed tree. With `activities`, each node also gets its
  /// inverted file, and filtered iteration reads each point's activities
  /// from that dataset, which must outlive the tree and hold every entry's
  /// (trajectory, point index).
  static RTree BulkLoad(std::vector<RTreeEntry> entries, int max_entries = 32,
                        const Dataset* activities = nullptr);

  ~RTree();
  RTree(RTree&&) noexcept;
  RTree& operator=(RTree&&) noexcept;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  size_t size() const { return size_; }

  /// Height of the tree (0 for empty, 1 for a single leaf).
  int Height() const;

  /// Structural invariants: MBR containment, fan-out limits, uniform leaf
  /// depth. Used by tests; returns false on violation.
  bool CheckInvariants() const;

  /// Collects all entries (test support).
  std::vector<RTreeEntry> CollectAll() const;

  /// Incremental best-first nearest-neighbour iterator.
  class NearestIterator {
   public:
    /// With an empty `filter` the iterator browses every entry (RT). With
    /// activities in `filter` it yields only entries carrying at least one
    /// of them (IRT): it checks each child's summary, then its exact
    /// activity union, before probing it, and each leaf entry's own
    /// activities before yielding it. A filter needs a tree built with
    /// activities.
    NearestIterator(const RTree& tree, const Point& origin,
                    std::vector<ActivityId> filter = {});

    /// Advances to the next nearest entry; returns false when drained.
    bool Next(const RTreeEntry** entry, double* distance);

    /// Lower bound on the distance of everything not yet returned: the
    /// head key of the traversal heap (+inf when drained). This is the
    /// per-query-point search radius of the tree baselines' Lemma-2 bound.
    double PendingLowerBound() const;

    uint64_t nodes_popped() const { return nodes_popped_; }
    /// Subtrees skipped by the activity filter.
    uint64_t nodes_pruned() const { return nodes_pruned_; }

   private:
    struct HeapItem {
      double distance;
      const Node* node;    // nullptr when this is a leaf entry
      const RTreeEntry* entry;
      bool operator>(const HeapItem& other) const {
        return distance > other.distance;
      }
    };

    const RTree& tree_;
    Point origin_;
    std::vector<ActivityId> filter_;  // sorted, deduplicated
    uint64_t filter_summary_ = 0;
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>>
        heap_;
    uint64_t nodes_popped_ = 0;
    uint64_t nodes_pruned_ = 0;
  };

 private:
  explicit RTree(int max_entries);

  std::unique_ptr<Node> root_;
  int max_entries_;
  size_t size_ = 0;
  /// Set only in a tree built with activities: the dataset leaf entries
  /// are checked against, and one inverted file per node.
  const Dataset* activities_ = nullptr;
  std::vector<InvertedFile> inverted_files_;
};

}  // namespace gat

#endif  // GAT_RTREE_RTREE_H_
