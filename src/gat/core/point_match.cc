#include "gat/core/point_match.h"

#include <algorithm>

#include "gat/common/check.h"

namespace gat {

PointMatchTable::PointMatchTable(int num_activities)
    : num_bits_(num_activities),
      full_mask_((num_activities >= 32)
                     ? ~ActivityMask{0}
                     : ((ActivityMask{1} << num_activities) - 1)) {
  GAT_CHECK(num_activities >= 1 && num_activities <= kMaxQueryActivities);
  dist_.assign(size_t{1} << num_bits_, kInfDist);
  present_.assign(size_t{1} << num_bits_, 0);
}

void PointMatchTable::Reset() {
  for (ActivityMask m : finite_) {
    dist_[m] = kInfDist;
    present_[m] = 0;
  }
  finite_.clear();
}

double PointMatchTable::DistanceFor(ActivityMask mask) const {
  GAT_DCHECK(mask <= full_mask_);
  return dist_[mask];
}

void PointMatchTable::SetEntry(ActivityMask mask, double distance) {
  dist_[mask] = distance;
  if (!present_[mask]) {
    present_[mask] = 1;
    finite_.push_back(mask);
  }
}

void PointMatchTable::AddPoint(ActivityMask mask, double distance) {
  mask &= full_mask_;  // p.Phi' = p.Phi ∩ q.Phi (Algorithm 3, line 7)
  if (mask == 0) return;

  // FIFO walk over subsets of p.Phi' (lines 8-15).
  queue_.clear();
  queue_.push_back(mask);
  size_t head = 0;
  while (head < queue_.size()) {
    const ActivityMask ks = queue_[head++];
    // Line 11: a better (or equal) match for ks already exists — neither ks
    // nor its subsets can improve.
    if (dist_[ks] <= distance) continue;
    SetEntry(ks, distance);

    // Line 15: push all (|ks|-1)-size subsets.
    for (ActivityMask bits = ks; bits != 0;) {
      const ActivityMask low = bits & (~bits + 1);
      const ActivityMask sub = ks & ~low;
      if (sub != 0) queue_.push_back(sub);
      bits ^= low;
    }

    // Lines 16-19: refresh unions of ks with every existing key. Keys
    // created *by this loop* are unions containing ks and are skipped by
    // the subset test anyway, so iterating up to the pre-loop size is
    // exactly the paper's "for each s in H.keys".
    const size_t end = finite_.size();
    const double ks_dist = dist_[ks];
    for (size_t i = 0; i < end; ++i) {
      const ActivityMask s = finite_[i];
      const ActivityMask u = s | ks;
      if (u == s || u == ks) continue;  // subset/superset relation: skip
      const double combined = dist_[s] + ks_dist;
      if (combined < dist_[u]) SetEntry(u, combined);
    }
  }
}

PointMatchResult MinPointMatchDistance(std::span<MatchPoint> candidates,
                                       PointMatchTable& table) {
  PointMatchResult result;
  table.Reset();

  // Line 2: sort CP by distance to q. Ties broken by point index for
  // deterministic examined-point counts.
  std::sort(candidates.begin(), candidates.end(),
            [](const MatchPoint& a, const MatchPoint& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.point_index < b.point_index;
            });

  for (const MatchPoint& p : candidates) {
    // Line 5: all further points are at least this far away, so no better
    // match can appear.
    if (table.Covered() && table.CurrentDistance() <= p.distance) {
      result.early_terminated = true;
      break;
    }
    table.AddPoint(p.mask, p.distance);
    ++result.points_examined;
  }
  result.distance = table.CurrentDistance();
  return result;
}

PointMatchResult MinPointMatchDistance(std::vector<MatchPoint> candidates,
                                       int num_activities) {
  PointMatchTable table(num_activities);
  return MinPointMatchDistance(std::span<MatchPoint>(candidates), table);
}

double ExhaustiveMinPointMatch(const std::vector<MatchPoint>& candidates,
                               int num_activities,
                               std::vector<PointIndex>* witness) {
  GAT_CHECK(num_activities >= 1 && num_activities <= kMaxQueryActivities);
  const ActivityMask full = (ActivityMask{1} << num_activities) - 1;
  const size_t table_size = size_t{1} << num_activities;

  std::vector<double> dp(table_size, kInfDist);
  dp[0] = 0.0;
  // parent[m] = (previous mask, index into candidates) of the update that
  // produced dp[m]; used for witness reconstruction.
  struct Parent {
    ActivityMask prev = 0;
    uint32_t cand = kInvalidId;
  };
  std::vector<Parent> parent(table_size);

  for (uint32_t c = 0; c < candidates.size(); ++c) {
    const ActivityMask pm = candidates[c].mask & full;
    if (pm == 0) continue;
    const double d = candidates[c].distance;
    // In-place update is safe: a second application of the same point only
    // targets masks that already contain pm, which we skip.
    for (ActivityMask m = 0; m <= full; ++m) {
      if (dp[m] == kInfDist) continue;
      const ActivityMask nm = m | pm;
      if (nm == m) continue;
      if (dp[m] + d < dp[nm]) {
        dp[nm] = dp[m] + d;
        parent[nm] = Parent{m, c};
      }
    }
  }

  if (witness != nullptr) {
    witness->clear();
    if (dp[full] != kInfDist) {
      ActivityMask m = full;
      while (m != 0) {
        const Parent& pa = parent[m];
        GAT_CHECK(pa.cand != kInvalidId);
        witness->push_back(candidates[pa.cand].point_index);
        m = pa.prev;
      }
      std::sort(witness->begin(), witness->end());
      witness->erase(std::unique(witness->begin(), witness->end()),
                     witness->end());
    }
  }
  return dp[full];
}

}  // namespace gat
