#ifndef GAT_BASELINES_RT_SEARCH_H_
#define GAT_BASELINES_RT_SEARCH_H_

#include <cstdint>

#include "gat/core/searcher.h"
#include "gat/model/dataset.h"
#include "gat/rtree/rtree.h"

namespace gat {

/// The RT baseline (Section III-B): all trajectory points in one R-tree;
/// candidates are discovered in increasing spatial distance via one
/// incremental nearest-neighbour stream per query location — the k-BCT
/// search of Chen et al. adapted to activity trajectories. The Lemma-2
/// bound (best match distance lower-bounds the minimum match distance)
/// gives the termination test: when the k-th smallest Dmm/Dmom found so far
/// drops below the sum of the per-stream search radii, no unseen trajectory
/// can improve the result.
///
/// IrtSearcher runs the same loop over the same tree with per-node activity
/// files, and filters each query point's stream by that point's activities,
/// so the stream enumerates exactly its potential point matches. Its search
/// radius then lower-bounds the minimum *point match* distance of every
/// unseen trajectory, a valid and tighter bound than RT's.
class RtSearcher : public Searcher {
 public:
  /// `batch` = how many points are popped per round before the bound is
  /// re-checked (the analogue of GAT's lambda).
  explicit RtSearcher(const Dataset& dataset, uint32_t batch = 64,
                      int max_node_entries = 32)
      : RtSearcher(dataset, batch, max_node_entries, false) {}

  ResultList Search(const Query& query, size_t k, QueryKind kind,
                    SearchStats* stats = nullptr,
                    const QueryContext* context = nullptr) const override;
  std::string name() const override { return "RT"; }

 protected:
  RtSearcher(const Dataset& dataset, uint32_t batch, int max_node_entries,
             bool filter_activities);

 private:
  const Dataset& dataset_;
  bool filter_activities_;
  RTree tree_;
  uint32_t batch_;
};

/// The IRT baseline (Section III-C): RT whose tree nodes carry activity
/// inverted files. Before probing a node, the search checks its activity
/// summary against the demanded activities; subtrees without any of them
/// are pruned.
class IrtSearcher : public RtSearcher {
 public:
  explicit IrtSearcher(const Dataset& dataset, uint32_t batch = 64,
                       int max_node_entries = 32)
      : RtSearcher(dataset, batch, max_node_entries, true) {}

  std::string name() const override { return "IRT"; }
};

}  // namespace gat

#endif  // GAT_BASELINES_RT_SEARCH_H_
