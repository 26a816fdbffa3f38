#ifndef GAT_LIVE_LIVE_SEARCHER_H_
#define GAT_LIVE_LIVE_SEARCHER_H_

#include <string>

#include "gat/core/searcher.h"
#include "gat/live/live_index.h"
#include "gat/shard/sharded_searcher.h"

namespace gat {

/// Top-k search over a LiveIndex: one pinned `LiveView`, the full
/// sharded GAT machinery over its base generation, an exact scan of its
/// delta, one merged heap.
///
/// The delta side is searched exactly, not approximately: every delta
/// trajectory goes through the same `RefineCandidate` kernel the
/// indexed searchers refine with (activity-cover gate, MIB validation
/// for OATSQ, then the exact Dmm/Dmom), at an infinite threshold so no
/// candidate is pruned by heap state. Delta trajectory `i` is offered
/// at global ID `base_trajectories + i` — the ID `ExtendWith` will
/// assign it at the next merge — and `TopKCollector`'s
/// (distance, global ID) tie-break does the rest: the merged answer is
/// bit-identical to one monolithic GatSearcher over base ⊕ delta,
/// regardless of shard count or how many merges have compacted the
/// history.
///
/// Stats: the base sweep accounts exactly like ShardedSearcher
/// (`index_pins` = shards visited — the gated counter is untouched by
/// the delta side); each delta trajectory scanned adds one
/// `candidates_retrieved` and whatever the refinement kernel charges
/// (disk_reads, activity_rejected, mib_rejected,
/// distance_computations).
///
/// Deadlines follow the ShardedSearcher contract: expired on entry →
/// nothing touched; expired during the fan-out → empty result, never a
/// partial merge. The delta scan runs under the same rule (checked once
/// before the scan — the delta is small by construction, merges keep it
/// so).
///
/// Thread-safety: const Search, all per-query state on the stack; safe
/// against concurrent Ingest / MergeDelta / ReloadGeneration.
class LiveSearcher : public Searcher {
 public:
  /// `index` must outlive the searcher; so must `executor` when given.
  explicit LiveSearcher(const LiveIndex& index,
                        const GatSearchParams& params = {},
                        Executor* executor = nullptr);

  ResultList Search(const Query& query, size_t k, QueryKind kind,
                    SearchStats* stats = nullptr,
                    const QueryContext* context = nullptr) const override;
  std::string name() const override { return "GAT-live"; }

  const LiveIndex& index() const { return index_; }

 private:
  const LiveIndex& index_;
  ShardedSearcher base_searcher_;
};

}  // namespace gat

#endif  // GAT_LIVE_LIVE_SEARCHER_H_
