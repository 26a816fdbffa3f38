#include "gat/live/live_searcher.h"

#include <memory>

#include "gat/baselines/refinement.h"
#include "gat/common/query_context.h"
#include "gat/util/top_k.h"

namespace gat {

LiveSearcher::LiveSearcher(const LiveIndex& index,
                           const GatSearchParams& params, Executor* executor)
    : index_(index), base_searcher_(index.sharded(), params, executor) {}

ResultList LiveSearcher::Search(const Query& query, size_t k, QueryKind kind,
                                SearchStats* stats,
                                const QueryContext* context) const {
  // One view pin for the whole query: base generation and delta are the
  // consistent pair the LiveIndex published together, whatever ingests,
  // merges or reloads land while we run.
  const std::shared_ptr<const LiveView> view = index_.Pin();

  // The base sweep carries the Searcher stats contract (reset +
  // accumulate) and the entry deadline check; it returns empty with a
  // deadline_skips mark when the query was dead on arrival.
  ResultList base = base_searcher_.SearchGeneration(*view->generation, query,
                                                    k, kind, stats, context);
  // Same task-boundary rule as the shard fan-out: a deadline that
  // expired during (or before) the base sweep yields nothing — never a
  // partial merge. The refused delta scan counts one deadline skip,
  // unless the base sweep already marked its own refusal (dead on
  // arrival, or a refused shard).
  if (context != nullptr && context->Expired()) {
    if (stats != nullptr && stats->deadline_skips == 0) {
      stats->deadline_skips = 1;
    }
    return {};
  }

  const DeltaSnapshot& delta = *view->delta;
  TopKCollector merged(k);
  for (const SearchResult& r : base) {
    merged.Offer(r.trajectory, r.distance);
  }
  SearchStats local;
  SearchStats& delta_stats = stats != nullptr ? *stats : local;
  for (size_t i = 0; i < delta.trajectories.size(); ++i) {
    // Exact refinement at an infinite threshold: heap state must not
    // prune a delta candidate, or the result could diverge from the
    // monolithic reference on distance ties at the boundary.
    delta_stats.candidates_retrieved += 1;
    const double dist = RefineCandidate(delta.trajectories[i], query, kind,
                                        kInfDist, delta_stats);
    merged.Offer(
        static_cast<TrajectoryId>(delta.base_trajectories + i), dist);
  }
  return ToResultList(merged);
}

}  // namespace gat
