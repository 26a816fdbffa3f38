#include "gat/index/gat_index.h"

#include <cstdio>

#include "gat/common/check.h"
#include "gat/util/stopwatch.h"

namespace gat {

namespace {

// An empty dataset has an empty bounding box, but the grid needs a
// non-degenerate space. Any fixed rect works — no point ever lands in
// it, every posting list stays empty, and searches return no results —
// so empty shards (ShardedIndex with more shards than trajectories, or
// an empty parent dataset) build and snapshot like any other index.
Rect GridSpace(const Dataset& dataset) {
  if (dataset.bounding_box().IsEmpty()) {
    return Rect{Point{0.0, 0.0}, Point{1.0, 1.0}};
  }
  return dataset.bounding_box();
}

}  // namespace

GatIndex::GatIndex(const Dataset& dataset, const GatConfig& config)
    : config_(config), grid_(GridSpace(dataset), config.depth) {
  GAT_CHECK(dataset.finalized());
  Stopwatch timer;

  // One pass over the data emits a posting per (point, activity) — its
  // leaf cell, activity and trajectory — into an array sized by a count
  // pass. ITL is built from the postings, and HICL's leaf level is the
  // ITL transposed. APL makes its own pass, and TAS reads each
  // trajectory's activity set off its APL row.
  size_t num_postings = 0;
  for (const Trajectory& tr : dataset.trajectories()) {
    num_postings += tr.ActivityCount();
  }
  std::vector<Itl::Posting> postings;
  postings.reserve(num_postings);
  for (TrajectoryId t = 0; t < dataset.size(); ++t) {
    for (const TrajectoryPoint& p : dataset.trajectory(t).points()) {
      const uint32_t leaf = grid_.LeafCode(p.location);
      for (ActivityId a : p.activities) {
        postings.push_back({leaf, a, t});
      }
    }
  }
  itl_ = std::make_unique<Itl>(std::move(postings));
  hicl_ = std::make_unique<Hicl>(config_.depth, config_.memory_levels,
                                 itl_->CellsPerActivity(
                                     dataset.num_distinct_activities()));
  apl_ = std::make_unique<Apl>(dataset);
  std::vector<std::vector<ActivityId>> activity_sets(dataset.size());
  for (TrajectoryId t = 0; t < dataset.size(); ++t) {
    const auto activities = apl_->ActivitiesOf(t);
    activity_sets[t].assign(activities.begin(), activities.end());
  }
  tas_ = std::make_unique<Tas>(activity_sets, config_.tas_width);

  build_seconds_ = timer.ElapsedMillis() / 1000.0;
}

GatIndex::MemoryBreakdown GatIndex::memory_breakdown() const {
  MemoryBreakdown b;
  b.hicl_memory = hicl_->MemoryBytes();
  b.hicl_disk = hicl_->DiskBytes();
  b.itl_memory = itl_->MemoryBytes();
  b.tas_memory = tas_->MemoryBytes();
  b.apl_disk = apl_->DiskBytes();
  return b;
}

std::string GatIndex::MemoryBreakdown::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "HICL(mem)=%zuB HICL(disk)=%zuB ITL=%zuB TAS=%zuB "
                "APL(disk)=%zuB | main-memory total=%zuB",
                hicl_memory, hicl_disk, itl_memory, tas_memory, apl_disk,
                MainMemoryTotal());
  return buf;
}

}  // namespace gat
