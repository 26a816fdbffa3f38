#include "gat/search/gat_search.h"

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gat/common/check.h"
#include "gat/core/match.h"
#include "gat/core/order_match.h"
#include "gat/core/point_match.h"
#include "gat/util/stopwatch.h"
#include "gat/util/top_k.h"

namespace gat {

namespace {

/// Member of cellsn(q): an unvisited cell ordered by mdist (Section V-B),
/// ties broken by level, then code, for determinism.
struct CellRef {
  double mdist;
  int level;
  uint32_t code;

  bool operator<(const CellRef& other) const {
    if (mdist != other.mdist) return mdist < other.mdist;
    if (level != other.level) return level < other.level;
    return code < other.code;
  }
};

/// Heap order of the `std::*_heap` calls: puts the smallest CellRef first.
bool CellAfter(const CellRef& a, const CellRef& b) { return b < a; }

}  // namespace

/// Per-query mutable search state (the searcher itself is const / reusable
/// across queries and threads).
struct GatSearcher::State {
  const Query& query;
  size_t k;
  QueryKind kind;
  SearchStats& stats;

  std::vector<ActivityId> query_union;
  /// The activity sketch's bits of `query_union`, built once per query.
  std::vector<uint32_t> tas_mask;
  /// cellsn(q_i) of Section V-B, one binary min-heap per query point. It
  /// is also the priority queue of Section V-A: the global best-first pop
  /// takes the smallest head, ties going to the lower query index — the
  /// (mdist, level, code, query) order of one queue over all points.
  std::vector<std::vector<CellRef>> cells_n;
  size_t queued = 0;  // total size of `cells_n`
  std::vector<char> seen;
  std::vector<TrajectoryId> batch;
  TopKCollector collector;
  DiskAccessCounter disk;
  /// Disk-tier HICL inverted cell lists already fetched this query, keyed
  /// by (activity << 4) | level. A list is fetched through the disk tier
  /// (one logical read, block I/O under an mmap-backed tier) on first use
  /// and is then memory-resident for the rest of the query.
  std::unordered_set<uint64_t> fetched_hicl_lists;
  bool exhausted = false;

  // Scratch reused across rounds and candidates, so the steady-state loop
  // allocates nothing.
  std::vector<uint32_t> children;
  std::vector<uint32_t> walk;  // heap positions, Algorithm-2 cell walk
  std::vector<MatchPoint> match_points;  // virtual points, or CP
  std::vector<std::pair<PointIndex, int>> point_bits;  // CP assembly
  std::vector<MatchingIndexBound> mibs;
  /// One Algorithm-3 table per |q.Phi| width, built on first use.
  std::array<std::optional<PointMatchTable>, kMaxQueryActivities + 1> tables;

  void ChargeHiclList(const Hicl& hicl, ActivityId a, int level) {
    if (level <= hicl.memory_levels()) return;
    const uint64_t key = (static_cast<uint64_t>(a) << 4) |
                         static_cast<uint64_t>(level);
    if (fetched_hicl_lists.insert(key).second) {
      if (a < hicl.num_activities()) {
        (void)hicl.CellsAt(a, level, &disk);
      } else {
        disk.RecordRead();  // fruitless fetch of an absent list
      }
    }
  }

  void PushCell(uint32_t qi, const CellRef& cell) {
    auto& heap = cells_n[qi];
    heap.push_back(cell);
    std::push_heap(heap.begin(), heap.end(), CellAfter);
    ++queued;
    ++stats.heap_pushes;
  }

  /// Pops the globally nearest unvisited cell into (`qi`, `cell`).
  void PopNearestCell(uint32_t* qi, CellRef* cell) {
    GAT_DCHECK(queued > 0);
    uint32_t best = 0;
    while (cells_n[best].empty()) ++best;
    for (uint32_t i = best + 1; i < cells_n.size(); ++i) {
      if (!cells_n[i].empty() && cells_n[i].front() < cells_n[best].front()) {
        best = i;
      }
    }
    auto& heap = cells_n[best];
    std::pop_heap(heap.begin(), heap.end(), CellAfter);
    *qi = best;
    *cell = heap.back();
    heap.pop_back();
    --queued;
    ++stats.nodes_popped;
  }

  PointMatchTable& Table(int bits) {
    auto& table = tables[static_cast<size_t>(bits)];
    if (!table) table.emplace(bits);
    return *table;
  }

  State(const Query& q, size_t k_in, QueryKind kind_in, SearchStats& s,
        size_t dataset_size)
      : query(q),
        k(k_in),
        kind(kind_in),
        stats(s),
        query_union(q.ActivityUnion()),
        cells_n(q.size()),
        seen(dataset_size, 0),
        collector(k_in) {}
};

GatSearcher::GatSearcher(const Dataset& dataset, const GatIndex& index,
                         const GatSearchParams& params)
    : dataset_(dataset), index_(index), params_(params) {
  GAT_CHECK(dataset.finalized());
  GAT_CHECK(params.lambda > 0);
  GAT_CHECK(params.nearest_cells > 0);
}

ResultList GatSearcher::Atsq(const Query& query, size_t k,
                             SearchStats* stats) const {
  return Search(query, k, QueryKind::kAtsq, stats);
}

ResultList GatSearcher::Oatsq(const Query& query, size_t k,
                              SearchStats* stats) const {
  return Search(query, k, QueryKind::kOatsq, stats);
}

ResultList GatSearcher::Search(const Query& query, size_t k, QueryKind kind,
                               SearchStats* stats,
                               const QueryContext* /*context*/) const {
  SearchStats local_stats;
  SearchStats& st = stats != nullptr ? *stats : local_stats;
  st.Reset();
  Stopwatch timer;

  if (query.empty() || k == 0) return {};

  State state(query, k, kind, st, dataset_.size());
  if (params_.use_tas) state.tas_mask = index_.tas().Mask(state.query_union);

  if (state.query_union.empty()) {
    // Degenerate query: every q.Phi is empty, so every trajectory matches
    // with distance 0 (Dmm = Dmom = 0). Return the k smallest IDs.
    ResultList out;
    for (TrajectoryId t = 0; t < dataset_.size() && out.size() < k; ++t) {
      out.push_back(SearchResult{t, 0.0});
    }
    st.elapsed_ms = timer.ElapsedMillis();
    return out;
  }

  // Seed the queue with the cells of the highest HICL level that contain
  // any activity demanded at each query point (Section V-A).
  const int top_level = 1;
  for (uint32_t qi = 0; qi < query.size(); ++qi) {
    const auto& acts = query[qi].activities;
    if (acts.empty()) continue;
    for (uint32_t code : index_.hicl().CellsWithAny(acts, top_level)) {
      const double mdist =
          index_.grid().MinDistToCell(query[qi].location, top_level, code);
      state.PushCell(qi, CellRef{mdist, top_level, code});
    }
  }

  // Algorithm 1 main loop.
  while (true) {
    ++st.rounds;
    RetrieveCandidates(state);
    const double dlb = ComputeLowerBound(state);
    for (TrajectoryId t : state.batch) ProcessCandidate(state, t);
    state.batch.clear();
    // Termination: all unseen trajectories are provably worse than the
    // current k-th result (line 9-10), or nothing is left to retrieve.
    if (state.collector.Threshold() < dlb) break;
    if (state.exhausted) break;
  }

  st.disk_reads = state.disk.Reads();
  st.block_hits = state.disk.BlockHits();
  st.blocks_read = state.disk.BlocksRead();
  st.elapsed_ms = timer.ElapsedMillis();
  return ToResultList(state.collector);
}

void GatSearcher::RetrieveCandidates(State& state) const {
  const int depth = index_.grid().depth();
  while (state.batch.size() < params_.lambda && state.queued > 0) {
    uint32_t qi = 0;
    CellRef cell{};
    state.PopNearestCell(&qi, &cell);
    const auto& acts = state.query[qi].activities;

    if (cell.level < depth) {
      // Expand: children that contain at least one demanded activity; all
      // other children are pruned automatically (Section V-A). Descending
      // into a disk-tier level fetches each demanded activity's inverted
      // cell list once per query.
      for (ActivityId a : acts) {
        state.ChargeHiclList(index_.hicl(), a, cell.level + 1);
      }
      state.children.clear();
      index_.hicl().ChildrenWithAny(acts, cell.level, cell.code,
                                    &state.children);
      for (uint32_t child : state.children) {
        const double mdist = index_.grid().MinDistToCell(
            state.query[qi].location, cell.level + 1, child);
        state.PushCell(qi, CellRef{mdist, cell.level + 1, child});
      }
    } else {
      // Leaf: pull the inverted trajectory lists for each demanded
      // activity into the candidate set.
      for (ActivityId a : acts) {
        for (TrajectoryId t : index_.itl().Trajectories(cell.code, a)) {
          if (!state.seen[t]) {
            state.seen[t] = 1;
            state.batch.push_back(t);
          }
        }
      }
    }
  }
  if (state.queued == 0) state.exhausted = true;
}

double GatSearcher::ComputeLowerBound(State& state) const {
  if (state.exhausted) return kInfDist;  // nothing unseen remains

  if (!params_.use_tight_lower_bound) {
    // Naive bound the paper rejects: the PQ head mdist, once per query
    // point (sum over q_i of the smallest unvisited-cell distance).
    double total = 0.0;
    for (uint32_t qi = 0; qi < state.query.size(); ++qi) {
      if (state.query[qi].activities.empty()) continue;
      const auto& heap = state.cells_n[qi];
      if (heap.empty()) return kInfDist;
      total += heap.front().mdist;
    }
    return total;
  }

  // Algorithm 2: per query point, make one virtual point per nearest
  // unvisited cell carrying the cell's demanded-activity subset at distance
  // mdist, then take min(Dmpm over the virtual trajectory, d(q, c_m)).
  double total = 0.0;
  auto& virtual_points = state.match_points;
  auto& walk = state.walk;
  for (uint32_t qi = 0; qi < state.query.size(); ++qi) {
    const auto& acts = state.query[qi].activities;
    if (acts.empty()) continue;  // contributes 0 to every Dmm
    const auto& heap = state.cells_n[qi];
    if (heap.empty()) {
      // Every cell containing q_i's activities was visited: all unseen
      // trajectories fail to match q_i entirely.
      return kInfDist;
    }
    const int bits =
        static_cast<int>(std::min<size_t>(acts.size(), kMaxQueryActivities));
    virtual_points.clear();
    double last_mdist = 0.0;
    uint32_t count = 0;
    // The m nearest cells in order, without copying the heap: a
    // best-first walk over the heap tree, where every node precedes its
    // two children. `walk` is itself a min-heap of heap positions.
    const auto walk_after = [&heap](uint32_t a, uint32_t b) {
      return heap[b] < heap[a];
    };
    walk.assign(1, 0);
    while (!walk.empty() && count < params_.nearest_cells) {
      std::pop_heap(walk.begin(), walk.end(), walk_after);
      const uint32_t pos = walk.back();
      walk.pop_back();
      for (const uint32_t child : {2 * pos + 1, 2 * pos + 2}) {
        if (child < heap.size()) {
          walk.push_back(child);
          std::push_heap(walk.begin(), walk.end(), walk_after);
        }
      }
      const CellRef& ref = heap[pos];
      ActivityMask mask = 0;
      for (int b = 0; b < bits; ++b) {
        // The paper reads cell activities "directly from ITL" (memory
        // resident); no simulated disk access is charged here.
        if (index_.hicl().Contains(acts[b], ref.level, ref.code, nullptr)) {
          mask |= ActivityMask{1} << b;
        }
      }
      GAT_DCHECK(mask != 0);  // only activity-bearing cells are enqueued
      virtual_points.push_back(MatchPoint{ref.mdist, mask, count});
      last_mdist = ref.mdist;
      ++count;
    }
    const double dmpm =
        MinPointMatchDistance(std::span<MatchPoint>(virtual_points),
                              state.Table(bits))
            .distance;
    const bool truncated = heap.size() > params_.nearest_cells;
    // When the list was truncated, unseen matches may also use cells
    // beyond the m-th, all at distance >= last_mdist (the paper's
    // min(Dmpm, d(q_i, p_m)) term). When it covers *all* unvisited cells,
    // Dmpm alone is the bound (and +inf correctly proves no unseen match).
    const double bound = truncated ? std::min(dmpm, last_mdist) : dmpm;
    if (bound == kInfDist) return kInfDist;
    total += bound;
  }
  return total;
}

void GatSearcher::ProcessCandidate(State& state, TrajectoryId t) const {
  ++state.stats.candidates_retrieved;

  // Validation stage 1: trajectory activity sketch (no disk access).
  if (params_.use_tas && !index_.tas().MightContainMask(t, state.tas_mask)) {
    ++state.stats.tas_pruned;
    return;
  }
  // Validation stage 2: exact check against the activity posting lists.
  // Fetching a candidate's APL is one disk read; the subsequent MIB check
  // and distance evaluation reuse the fetched lists.
  if (!index_.apl().HasAllActivities(t, state.query_union, &state.disk)) {
    ++state.stats.activity_rejected;
    return;
  }
  // Validation stage 3 (OATSQ only): matching index bounds (Section VI-B).
  if (state.kind == QueryKind::kOatsq && !MibValidFromApl(state, t)) {
    ++state.stats.mib_rejected;
    return;
  }

  double distance;
  if (state.kind == QueryKind::kAtsq) {
    distance = DmmFromApl(state, t);
  } else {
    // Dmom needs the full point sequence: fetch the trajectory (simulated
    // disk read) and run the Algorithm-4 DP with the running k-th best
    // Dmom as the pruning threshold.
    state.disk.RecordRead();
    distance = MinOrderSensitiveMatchDistance(dataset_.trajectory(t),
                                              state.query,
                                              state.collector.Threshold());
  }
  ++state.stats.distance_computations;
  state.collector.Offer(t, distance);
}

double GatSearcher::DmmFromApl(State& state, TrajectoryId t) const {
  const auto& tr = dataset_.trajectory(t);
  double total = 0.0;
  auto& point_bits = state.point_bits;
  auto& cp = state.match_points;
  for (const auto& q : state.query.points()) {
    if (q.activities.empty()) continue;
    const int bits = static_cast<int>(
        std::min<size_t>(q.activities.size(), kMaxQueryActivities));
    // CP of Algorithm 3, assembled from the activity posting lists: the
    // mask bit b of a point is set iff the point appears in the posting
    // list of q.activities[b].
    point_bits.clear();
    for (int b = 0; b < bits; ++b) {
      for (PointIndex idx : index_.apl().Postings(t, q.activities[b])) {
        point_bits.emplace_back(idx, b);
      }
    }
    std::sort(point_bits.begin(), point_bits.end());
    cp.clear();
    for (const auto& [idx, b] : point_bits) {
      const ActivityMask bit = ActivityMask{1} << b;
      if (!cp.empty() && cp.back().point_index == idx) {
        cp.back().mask |= bit;
      } else {
        cp.push_back(
            MatchPoint{Distance(tr[idx].location, q.location), bit, idx});
      }
    }
    const double d =
        MinPointMatchDistance(std::span<MatchPoint>(cp), state.Table(bits))
            .distance;
    if (d == kInfDist) return kInfDist;
    total += d;
  }
  return total;
}

bool GatSearcher::MibValidFromApl(State& state, TrajectoryId t) const {
  // MIB(q_i) over the union of q_i's activity posting lists (each sorted
  // ascending): lb = min of first entries, ub = max of last entries.
  auto& mibs = state.mibs;
  mibs.clear();
  for (const auto& q : state.query.points()) {
    MatchingIndexBound mib;
    for (ActivityId a : q.activities) {
      const auto postings = index_.apl().Postings(t, a);
      if (postings.empty()) continue;
      if (!mib.valid) {
        mib.lb = postings.front();
        mib.ub = postings.back();
        mib.valid = true;
      } else {
        mib.lb = std::min(mib.lb, postings.front());
        mib.ub = std::max(mib.ub, postings.back());
      }
    }
    if (!mib.valid && !q.activities.empty()) return false;
    mibs.push_back(mib);
  }
  for (size_t i = 0; i < mibs.size(); ++i) {
    if (!mibs[i].valid) continue;
    for (size_t j = i + 1; j < mibs.size(); ++j) {
      if (mibs[j].valid && mibs[i].lb > mibs[j].ub) return false;
    }
  }
  return true;
}

}  // namespace gat
