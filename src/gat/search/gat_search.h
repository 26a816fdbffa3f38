#ifndef GAT_SEARCH_GAT_SEARCH_H_
#define GAT_SEARCH_GAT_SEARCH_H_

#include <cstdint>

#include "gat/core/result_set.h"
#include "gat/core/searcher.h"
#include "gat/index/gat_index.h"
#include "gat/model/dataset.h"
#include "gat/model/query.h"
#include "gat/search/search_stats.h"

namespace gat {

/// Knobs of the GAT search algorithm (Section V).
struct GatSearchParams {
  /// Candidate batch size lambda of Algorithm 1: each retrieval round pops
  /// grid cells until at least this many new candidate trajectories are
  /// found (or the queue drains).
  uint32_t lambda = 64;

  /// The `m` of Algorithm 2: how many nearest unvisited cells per query
  /// point participate in the virtual-trajectory lower bound.
  uint32_t nearest_cells = 10;

  /// When false, the lower bound degrades to the naive PQ-head bound (the
  /// "straightforward approach" the paper rejects in Section V-B). Exposed
  /// for the lower-bound ablation bench.
  bool use_tight_lower_bound = true;

  /// When false, candidates skip the TAS sketch check and go straight to
  /// the exact APL validation. Exposed for the TAS ablation bench.
  bool use_tas = true;
};

/// Top-k ATSQ / OATSQ search over a GAT index: the best-first candidate
/// retrieval + validation + refinement loop of Algorithm 1, with the
/// Algorithm-2 tighter lower bound for unseen trajectories.
///
/// Thread-safety: `Search`/`Atsq`/`Oatsq` are const and concurrently
/// callable on one instance. All per-query mutation lives in the private
/// `State` object constructed on the caller's stack; `dataset_`, `index_`
/// and `params_` are read-only after construction (see the Searcher
/// threading contract).
class GatSearcher : public Searcher {
 public:
  /// Both `dataset` and `index` must outlive the searcher.
  GatSearcher(const Dataset& dataset, const GatIndex& index,
              const GatSearchParams& params = {});

  /// Activity Trajectory Similarity Query: top-k by Dmm (Section II).
  ResultList Atsq(const Query& query, size_t k,
                  SearchStats* stats = nullptr) const;

  /// Order-sensitive ATSQ: top-k by Dmom (Section VI).
  ResultList Oatsq(const Query& query, size_t k,
                   SearchStats* stats = nullptr) const;

  /// Unified entry point. `context` is accepted for interface parity but
  /// not checked mid-query: one GAT search is a single sequential task,
  /// and the engine's per-query boundary check already gates it.
  ResultList Search(const Query& query, size_t k, QueryKind kind,
                    SearchStats* stats = nullptr,
                    const QueryContext* context = nullptr) const override;
  std::string name() const override { return "GAT"; }

  const GatSearchParams& params() const { return params_; }

 private:
  struct State;

  void RetrieveCandidates(State& state) const;
  double ComputeLowerBound(State& state) const;
  void ProcessCandidate(State& state, TrajectoryId t) const;
  double DmmFromApl(State& state, TrajectoryId t) const;
  bool MibValidFromApl(State& state, TrajectoryId t) const;

  const Dataset& dataset_;
  const GatIndex& index_;
  GatSearchParams params_;
};

}  // namespace gat

#endif  // GAT_SEARCH_GAT_SEARCH_H_
