#include "gat/baselines/rt_search.h"

#include <vector>

#include "gat/baselines/refinement.h"
#include "gat/common/check.h"
#include "gat/util/stopwatch.h"
#include "gat/util/top_k.h"

namespace gat {
namespace {

std::vector<RTreeEntry> PointsOf(const Dataset& dataset) {
  GAT_CHECK(dataset.finalized());
  std::vector<RTreeEntry> entries;
  for (TrajectoryId t = 0; t < dataset.size(); ++t) {
    const auto& tr = dataset.trajectory(t);
    for (PointIndex i = 0; i < tr.size(); ++i) {
      entries.push_back(RTreeEntry{tr[i].location, t, i});
    }
  }
  return entries;
}

}  // namespace

RtSearcher::RtSearcher(const Dataset& dataset, uint32_t batch,
                       int max_node_entries, bool filter_activities)
    : dataset_(dataset),
      filter_activities_(filter_activities),
      tree_(RTree::BulkLoad(PointsOf(dataset), max_node_entries,
                            filter_activities ? &dataset : nullptr)),
      batch_(batch) {
  GAT_CHECK(batch > 0);
}

ResultList RtSearcher::Search(const Query& query, size_t k, QueryKind kind,
                              SearchStats* stats,
                              const QueryContext* /*context*/) const {
  SearchStats local;
  SearchStats& st = stats != nullptr ? *stats : local;
  st.Reset();
  Stopwatch timer;
  if (query.empty() || k == 0) return {};

  // One incremental NN stream per query location, filtered by the point's
  // activities for IRT. Query points with an empty activity set contribute
  // 0 to every Dmm/Dmom and are skipped (their stream would otherwise
  // inflate the lower bound unsoundly).
  std::vector<RTree::NearestIterator> streams;
  streams.reserve(query.size());
  for (size_t i = 0; i < query.size(); ++i) {
    if (query[i].activities.empty()) continue;
    streams.emplace_back(tree_, query[i].location,
                         filter_activities_ ? query[i].activities
                                            : std::vector<ActivityId>{});
  }

  if (streams.empty()) {
    // Degenerate query: every trajectory matches at distance 0.
    ResultList out;
    for (TrajectoryId t = 0; t < dataset_.size() && out.size() < k; ++t) {
      out.push_back(SearchResult{t, 0.0});
    }
    st.elapsed_ms = timer.ElapsedMillis();
    return out;
  }

  TopKCollector collector(k);
  std::vector<char> seen(dataset_.size(), 0);

  while (true) {
    ++st.rounds;
    // Pop `batch_` points, always advancing the stream with the smallest
    // pending distance — this visits trajectory points globally in
    // best-first order, the spirit of the adapted k-BCT algorithm.
    std::vector<TrajectoryId> fresh;
    for (uint32_t b = 0; b < batch_; ++b) {
      size_t best_stream = streams.size();
      double best_pending = kInfDist;
      for (size_t s = 0; s < streams.size(); ++s) {
        const double pending = streams[s].PendingLowerBound();
        if (pending < best_pending) {
          best_pending = pending;
          best_stream = s;
        }
      }
      if (best_stream == streams.size()) break;  // every stream drained
      const RTreeEntry* entry = nullptr;
      double dist = 0.0;
      if (!streams[best_stream].Next(&entry, &dist)) continue;
      ++st.nodes_popped;
      if (!seen[entry->trajectory]) {
        seen[entry->trajectory] = 1;
        fresh.push_back(entry->trajectory);
      }
    }

    for (TrajectoryId t : fresh) {
      ++st.candidates_retrieved;
      const double d = RefineCandidate(dataset_.trajectory(t), query, kind,
                                       collector.Threshold(), st);
      collector.Offer(t, d);
    }

    // Lemma-2 bound: an unseen trajectory has, for each demanded query
    // point, all its points (IRT: all its point matches) still pending in
    // that stream, so its best match distance — and therefore its Dmm and
    // Dmom — is at least the sum of pending stream heads. A drained stream
    // has yielded every point that could match its query point, so nothing
    // unseen can match and the search is complete.
    double bound = 0.0;
    bool any_stream_drained = false;
    for (auto& s : streams) {
      const double pending = s.PendingLowerBound();
      if (pending == kInfDist) {
        any_stream_drained = true;
        break;
      }
      bound += pending;
    }
    if (any_stream_drained) break;
    if (collector.Threshold() < bound) break;
  }

  // Every R-tree node visited is one (simulated) disk page read.
  for (auto& s : streams) st.disk_reads += s.nodes_popped();
  st.elapsed_ms = timer.ElapsedMillis();
  return ToResultList(collector);
}

}  // namespace gat
