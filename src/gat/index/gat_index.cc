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

  // One pass over the data populates the leaf-cell occupancy (HICL leaves),
  // the per-(cell, activity) trajectory lists (ITL), and the per-trajectory
  // activity sets (TAS input). APL builds its own pass internally.
  const uint32_t num_activities = dataset.num_distinct_activities();
  std::vector<std::vector<uint32_t>> leaf_cells_per_activity(num_activities);
  Itl::Builder itl_builder;
  std::vector<std::vector<ActivityId>> activity_sets;
  activity_sets.reserve(dataset.size());

  for (TrajectoryId t = 0; t < dataset.size(); ++t) {
    const auto& tr = dataset.trajectory(t);
    for (PointIndex i = 0; i < tr.size(); ++i) {
      const uint32_t leaf = grid_.LeafCode(tr[i].location);
      for (ActivityId a : tr[i].activities) {
        GAT_DCHECK(a < num_activities);
        leaf_cells_per_activity[a].push_back(leaf);
        itl_builder[leaf][a].push_back(t);
      }
    }
    activity_sets.push_back(tr.ActivityUnion());
  }

  hicl_ = std::make_unique<Hicl>(config_.depth, config_.memory_levels,
                                 std::move(leaf_cells_per_activity));
  itl_ = std::make_unique<Itl>(std::move(itl_builder));
  tas_ = std::make_unique<Tas>(activity_sets, config_.tas_width);
  apl_ = std::make_unique<Apl>(dataset);

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
