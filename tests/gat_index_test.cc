// Tests for the GAT index components: HICL, ITL, TAS, APL and the composed
// GatIndex builder.

#include "gat/index/gat_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <tuple>

#include "gat/datagen/checkin_generator.h"
#include "gat/geo/zorder.h"
#include "gat/util/rng.h"

namespace gat {
namespace {

// ---------------------------------------------------------------------------
// HICL
// ---------------------------------------------------------------------------

TEST(Hicl, AggregatesLeafOccupancyUpward) {
  // depth 3; activity 0 occurs in leaf cells 5 and 40.
  Hicl hicl(3, 2, {{5, 40}});
  EXPECT_TRUE(hicl.Contains(0, 3, 5));
  EXPECT_TRUE(hicl.Contains(0, 3, 40));
  EXPECT_FALSE(hicl.Contains(0, 3, 6));
  EXPECT_TRUE(hicl.Contains(0, 2, 5 >> 2));
  EXPECT_TRUE(hicl.Contains(0, 2, 40 >> 2));
  EXPECT_TRUE(hicl.Contains(0, 1, 5 >> 4));
  EXPECT_TRUE(hicl.Contains(0, 1, 40 >> 4));
  EXPECT_FALSE(hicl.Contains(0, 1, 3));
}

TEST(Hicl, CellsWithAnyIsSortedUnion) {
  Hicl hicl(2, 2, {{1, 7}, {7, 9}, {}});
  EXPECT_EQ(hicl.CellsWithAny({0, 1}, 2), (std::vector<uint32_t>{1, 7, 9}));
  EXPECT_TRUE(hicl.CellsWithAny({2}, 2).empty());
  EXPECT_TRUE(hicl.CellsWithAny({}, 2).empty());
}

TEST(Hicl, ChildrenWithAnyFiltersEmptyQuadrants) {
  // Leaf cells 0..3 are the children of level-1 cell 0; only 0 and 3 have
  // the activity.
  Hicl hicl(2, 2, {{0, 3}});
  std::vector<uint32_t> out;
  hicl.ChildrenWithAny({0}, 1, 0, &out);
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 3}));
}

TEST(Hicl, ChildrenWithAnyMatchesPerChildContains) {
  // The one-probe-per-activity ChildrenWithAny against the definition: a
  // child qualifies iff Contains holds for some activity. Every cell of
  // every non-leaf level (present or not), random activity subsets that
  // include the empty set and IDs past the vocabulary.
  constexpr int kDepth = 5;
  constexpr uint32_t kActivities = 12;
  Rng rng(77);
  std::vector<std::vector<uint32_t>> leaf_cells(kActivities);
  const uint32_t leaf_count = 1u << (2 * kDepth);
  for (auto& cells : leaf_cells) {
    const uint32_t n = rng.NextU32(60);
    for (uint32_t i = 0; i < n; ++i) cells.push_back(rng.NextU32(leaf_count));
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  }
  const Hicl hicl(kDepth, 2, leaf_cells);

  std::vector<std::vector<ActivityId>> subsets = {{}, {kActivities},
                                                  {kActivities + 50, 0}};
  for (int i = 0; i < 25; ++i) {
    std::vector<ActivityId> subset;
    for (ActivityId a = 0; a < kActivities + 3; ++a) {
      if (rng.NextBool(0.25)) subset.push_back(a);
    }
    subsets.push_back(subset);
  }
  std::vector<uint32_t> got;
  for (const auto& subset : subsets) {
    for (int level = 1; level < kDepth; ++level) {
      for (uint32_t code = 0; code < (1u << (2 * level)); ++code) {
        std::vector<uint32_t> want;
        const uint32_t first = zorder::FirstChild(code);
        for (uint32_t child = first; child < first + 4; ++child) {
          for (ActivityId a : subset) {
            if (hicl.Contains(a, level + 1, child)) {
              want.push_back(child);
              break;
            }
          }
        }
        got.clear();
        hicl.ChildrenWithAny(subset, level, code, &got);
        ASSERT_EQ(got, want) << "level " << level << " code " << code;
      }
    }
  }
}

TEST(Hicl, UnknownActivityIsEverywhereAbsent) {
  Hicl hicl(2, 2, {{1}});
  EXPECT_FALSE(hicl.Contains(99, 2, 1));
  EXPECT_TRUE(hicl.CellsAt(99, 1).empty());
}

TEST(Hicl, DiskLevelAccounting) {
  // depth 3, memory_levels 1: levels 2-3 are disk tier.
  Hicl hicl(3, 1, {{0, 1, 2, 3}});
  // Level 3 stores 4 codes, level 2 stores 1, level 1 stores 1.
  EXPECT_EQ(hicl.MemoryBytes(), 1 * sizeof(uint32_t));
  EXPECT_EQ(hicl.DiskBytes(), 5 * sizeof(uint32_t));
  DiskAccessCounter disk;
  hicl.Contains(0, 3, 0, &disk);  // disk level
  hicl.Contains(0, 1, 0, &disk);  // memory level
  EXPECT_EQ(disk.reads, 1u);
}

TEST(Hicl, MemoryLevelsForBudget) {
  // C = 100 activities, 4 bytes per cell id. Level 1 worst case = 4 cells
  // * 100 * 4B = 1600B; level 2 adds 16*100*4 = 6400B.
  EXPECT_EQ(Hicl::MemoryLevelsForBudget(1599, 100, 8), 0);
  EXPECT_EQ(Hicl::MemoryLevelsForBudget(1600, 100, 8), 1);
  EXPECT_EQ(Hicl::MemoryLevelsForBudget(8000, 100, 8), 2);
  // Budget beyond all levels caps at depth.
  EXPECT_EQ(Hicl::MemoryLevelsForBudget(size_t{1} << 40, 100, 3), 3);
}

// ---------------------------------------------------------------------------
// ITL
// ---------------------------------------------------------------------------

TEST(Itl, PostingsRoundTrip) {
  // Out of order, with a duplicate: (cell 7, activity 2, trajectory 4).
  Itl itl({{7, 2, 0}, {9, 2, 2}, {7, 2, 4}, {7, 5, 3}, {7, 2, 1}, {7, 2, 4}});
  EXPECT_EQ(itl.num_cells(), 2u);

  const auto t72 = itl.Trajectories(7, 2);
  EXPECT_EQ(std::vector<TrajectoryId>(t72.begin(), t72.end()),
            (std::vector<TrajectoryId>{0, 1, 4}));
  const auto t75 = itl.Trajectories(7, 5);
  EXPECT_EQ(std::vector<TrajectoryId>(t75.begin(), t75.end()),
            (std::vector<TrajectoryId>{3}));
  EXPECT_TRUE(itl.Trajectories(7, 99).empty());
  EXPECT_TRUE(itl.Trajectories(8, 2).empty());

  const auto acts = itl.ActivitiesIn(7);
  EXPECT_EQ(std::vector<ActivityId>(acts.begin(), acts.end()),
            (std::vector<ActivityId>{2, 5}));
  EXPECT_TRUE(itl.ActivitiesIn(8).empty());
  EXPECT_GT(itl.MemoryBytes(), 0u);
}

TEST(Itl, FlatLookupEdges) {
  const Itl itl({{20, 9, 3}, {3, 1, 5}, {10, 4, 1}, {3, 4, 2}, {20, 0, 7},
                 {3, 4, 0}, {20, 0, 6}});
  ASSERT_EQ(itl.num_cells(), 3u);
  const auto ids = [](std::span<const TrajectoryId> s) {
    return std::vector<TrajectoryId>(s.begin(), s.end());
  };
  const auto acts = [](std::span<const ActivityId> s) {
    return std::vector<ActivityId>(s.begin(), s.end());
  };

  // First and last cells, first and last runs.
  EXPECT_EQ(ids(itl.Trajectories(3, 1)), (std::vector<TrajectoryId>{5}));
  EXPECT_EQ(ids(itl.Trajectories(3, 4)), (std::vector<TrajectoryId>{0, 2}));
  EXPECT_EQ(ids(itl.Trajectories(20, 0)), (std::vector<TrajectoryId>{6, 7}));
  EXPECT_EQ(ids(itl.Trajectories(20, 9)), (std::vector<TrajectoryId>{3}));
  EXPECT_EQ(acts(itl.ActivitiesIn(3)), (std::vector<ActivityId>{1, 4}));
  EXPECT_EQ(acts(itl.ActivitiesIn(10)), (std::vector<ActivityId>{4}));
  EXPECT_EQ(acts(itl.ActivitiesIn(20)), (std::vector<ActivityId>{0, 9}));

  // Absent cells: below the first, between cells, past the last.
  for (const uint32_t code : {0u, 4u, 19u, 21u, 0xFFFFFFFFu}) {
    EXPECT_TRUE(itl.Trajectories(code, 4).empty()) << code;
    EXPECT_TRUE(itl.ActivitiesIn(code).empty()) << code;
  }
  // Absent activities: below, between and above a cell's runs, and one a
  // neighbouring cell holds.
  EXPECT_TRUE(itl.Trajectories(3, 0).empty());
  EXPECT_TRUE(itl.Trajectories(3, 2).empty());
  EXPECT_TRUE(itl.Trajectories(3, 5).empty());
  EXPECT_TRUE(itl.Trajectories(10, 1).empty());
  EXPECT_TRUE(itl.Trajectories(20, 4).empty());
}

TEST(Itl, NoPostingsFindsNothing) {
  const Itl itl(std::vector<Itl::Posting>{});
  EXPECT_EQ(itl.num_cells(), 0u);
  EXPECT_TRUE(itl.Trajectories(0, 0).empty());
  EXPECT_TRUE(itl.ActivitiesIn(0).empty());
  EXPECT_EQ(itl.MemoryBytes(), 0u);
}

TEST(Itl, CountingSortMatchesOrderedReference) {
  // Random postings, many duplicates, against an ordered-set reference
  // of the same (leaf, activity, trajectory) triples; the transposed view
  // must list each activity's cells in ascending order.
  Rng rng(1313);
  std::vector<Itl::Posting> postings;
  std::set<std::tuple<uint32_t, ActivityId, TrajectoryId>> reference;
  for (int i = 0; i < 3000; ++i) {
    const Itl::Posting p{rng.NextU32(300), rng.NextU32(9), rng.NextU32(40)};
    postings.push_back(p);
    reference.emplace(p.leaf, p.activity, p.trajectory);
  }
  const Itl itl(postings);
  std::set<std::tuple<uint32_t, ActivityId, TrajectoryId>> rebuilt;
  size_t ids = 0;
  for (uint32_t leaf = 0; leaf < 301; ++leaf) {
    for (ActivityId a : itl.ActivitiesIn(leaf)) {
      const auto trajectories = itl.Trajectories(leaf, a);
      ASSERT_TRUE(std::is_sorted(trajectories.begin(), trajectories.end()));
      for (TrajectoryId t : trajectories) rebuilt.emplace(leaf, a, t);
      ids += trajectories.size();
    }
  }
  EXPECT_EQ(rebuilt, reference);
  EXPECT_EQ(ids, reference.size());  // deduplicated

  const auto cells = itl.CellsPerActivity(10);
  ASSERT_EQ(cells.size(), 10u);
  for (ActivityId a = 0; a < 10; ++a) {
    std::vector<uint32_t> expected;
    for (const auto& [leaf, activity, _] : reference) {
      if (activity == a && (expected.empty() || expected.back() != leaf)) {
        expected.push_back(leaf);
      }
    }
    EXPECT_EQ(cells[a], expected) << a;
  }
}

// ---------------------------------------------------------------------------
// TAS
// ---------------------------------------------------------------------------

using ActivitySets = std::vector<std::vector<ActivityId>>;

/// Random sorted-unique activity sets over IDs [0, num_ids), including
/// empty ones.
ActivitySets RandomActivitySets(Rng& rng, size_t n, uint32_t num_ids) {
  ActivitySets sets;
  for (size_t t = 0; t < n; ++t) {
    sets.push_back(rng.SampleDistinct(num_ids, rng.NextU32(13)));
  }
  return sets;
}

TEST(Tas, MembersPassAndMaskAgreesWithPerActivityAnd) {
  Rng rng(4242);
  const auto sets = RandomActivitySets(rng, 300, 400);
  for (const int width : {1, 2, 4, 16}) {
    SCOPED_TRACE(width);
    const Tas tas(sets, width);
    ASSERT_EQ(tas.num_trajectories(), sets.size());
    ASSERT_EQ(tas.row_words(), 2u * static_cast<size_t>(width));
    for (TrajectoryId t = 0; t < sets.size(); ++t) {
      // No false negatives, singly or together.
      for (ActivityId a : sets[t]) ASSERT_TRUE(tas.MightContain(t, a));
      ASSERT_TRUE(tas.MightContainAll(t, sets[t]));
      ASSERT_TRUE(tas.MightContainMask(t, tas.Mask(sets[t])));
      // Random queries, members or not: the one-mask test is the AND of
      // the per-activity tests.
      for (int probe = 0; probe < 8; ++probe) {
        const auto query = rng.SampleDistinct(400, 1 + rng.NextU32(4));
        ASSERT_EQ(tas.MightContainMask(t, tas.Mask(query)),
                  tas.MightContainAll(t, query));
      }
    }
  }
  // An empty set passes the empty query and nothing else.
  const Tas tas(ActivitySets(1), 2);
  EXPECT_TRUE(tas.MightContainAll(0, {}));
  EXPECT_TRUE(tas.MightContainMask(0, tas.Mask({})));
  for (ActivityId a = 0; a < 64; ++a) EXPECT_FALSE(tas.MightContain(0, a));
}

TEST(Tas, FalsePositiveCountIsPinned) {
  // Every (trajectory, non-member) pair of one fixed random workload. The
  // hash is fixed, so the count is too; a changed hash or bit layout
  // changes it (and with it every snapshot's TAS_ bytes).
  Rng rng(2013);
  const auto sets = RandomActivitySets(rng, 200, 300);
  const Tas tas(sets, 2);
  size_t non_members = 0;
  size_t false_positives = 0;
  for (TrajectoryId t = 0; t < sets.size(); ++t) {
    const std::set<ActivityId> members(sets[t].begin(), sets[t].end());
    for (ActivityId a = 0; a < 300; ++a) {
      if (members.count(a) != 0) continue;
      ++non_members;
      false_positives += tas.MightContain(t, a) ? 1 : 0;
    }
  }
  EXPECT_EQ(non_members, 58753u);
  EXPECT_EQ(false_positives, 692u);  // 1.2%
}

TEST(Tas, MemoryCostMatchesPaperFormula) {
  // 64*M bits per trajectory -> 8*M*N bytes, the paper's cost of M
  // intervals, whatever the sets hold.
  const std::vector<std::vector<ActivityId>> sets = {
      {0, 10, 20, 30}, {1, 11, 21, 31}, {2, 12, 22, 32}};
  Tas tas(sets, 3);
  EXPECT_EQ(tas.MemoryBytes(), 8u * 3u * 3u);
}

TEST(Tas, NoFalseDismissalsOnGeneratedData) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(150, 77));
  for (int m : {1, 2, 4, 8}) {
    std::vector<std::vector<ActivityId>> sets;
    for (const auto& tr : dataset.trajectories()) {
      sets.push_back(tr.ActivityUnion());
    }
    Tas tas(sets, m);
    for (TrajectoryId t = 0; t < dataset.size(); ++t) {
      for (ActivityId a : sets[t]) {
        ASSERT_TRUE(tas.MightContain(t, a)) << "M=" << m << " t=" << t;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// APL
// ---------------------------------------------------------------------------

TEST(Apl, PostingsMatchDatasetScan) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(60, 41));
  Apl apl(dataset);
  for (TrajectoryId t = 0; t < dataset.size(); ++t) {
    const auto& tr = dataset.trajectory(t);
    for (ActivityId a : tr.ActivityUnion()) {
      std::vector<PointIndex> expected;
      for (PointIndex i = 0; i < tr.size(); ++i) {
        if (tr[i].HasActivity(a)) expected.push_back(i);
      }
      const auto postings = apl.Postings(t, a);
      ASSERT_EQ(std::vector<PointIndex>(postings.begin(), postings.end()),
                expected);
    }
    EXPECT_TRUE(apl.HasAllActivities(t, tr.ActivityUnion()));
  }
}

TEST(Apl, MissingActivityAndDiskCounting) {
  Dataset d;
  {
    std::vector<TrajectoryPoint> pts = {{Point{0, 0}, {0}}};
    d.Add(Trajectory(std::move(pts)));
  }
  d.Finalize();
  Apl apl(d);
  DiskAccessCounter disk;
  EXPECT_TRUE(apl.Postings(0, 42, &disk).empty());
  EXPECT_FALSE(apl.HasAllActivities(0, {0, 42}, &disk));
  EXPECT_EQ(disk.reads, 2u);
}

// ---------------------------------------------------------------------------
// Composed index
// ---------------------------------------------------------------------------

TEST(GatIndex, BuildOnGeneratedCity) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(200, 55));
  GatConfig config;
  config.depth = 6;
  config.memory_levels = 4;
  config.tas_width = 2;
  GatIndex index(dataset, config);

  EXPECT_EQ(index.grid().depth(), 6);
  const auto mem = index.memory_breakdown();
  EXPECT_GT(mem.hicl_memory, 0u);
  EXPECT_GT(mem.itl_memory, 0u);
  EXPECT_GT(mem.tas_memory, 0u);
  EXPECT_GT(mem.apl_disk, 0u);
  EXPECT_EQ(mem.MainMemoryTotal(),
            mem.hicl_memory + mem.itl_memory + mem.tas_memory);
  EXPECT_FALSE(mem.ToString().empty());

  // Spot-check consistency: every activity-bearing point's leaf cell is
  // listed in HICL at the leaf level and its trajectory in the ITL.
  for (TrajectoryId t = 0; t < dataset.size(); ++t) {
    const auto& tr = dataset.trajectory(t);
    for (PointIndex i = 0; i < tr.size(); ++i) {
      const uint32_t leaf = index.grid().LeafCode(tr[i].location);
      for (ActivityId a : tr[i].activities) {
        ASSERT_TRUE(index.hicl().Contains(a, config.depth, leaf));
        const auto trajs = index.itl().Trajectories(leaf, a);
        ASSERT_TRUE(std::binary_search(trajs.begin(), trajs.end(), t));
      }
    }
  }
}

TEST(GatIndex, ExtensionMayUseFrameIdsTheBaseNeverUsed) {
  // The vocabulary interns an activity no base trajectory carries, so
  // it is inside the frame but past num_distinct_activities(); an
  // extension may use it, and the index must give it lists.
  Dataset d;
  const ActivityId used = d.mutable_vocabulary().InternActivity("used");
  d.mutable_vocabulary().InternActivity("unused");
  d.Add(Trajectory({{Point{0, 0}, {used}}, {Point{1, 1}, {used}}}));
  d.Finalize();
  ASSERT_EQ(d.num_distinct_activities(), 1u);
  ASSERT_EQ(d.activity_frame_limit(), 2u);
  const ActivityId unused = d.vocabulary().Lookup("unused");
  const Dataset extended =
      d.ExtendWith({Trajectory({{Point{0.5, 0.5}, {unused}}})});

  const GatIndex index(extended);
  EXPECT_EQ(index.hicl().num_activities(), 2u);
  const uint32_t leaf = index.grid().LeafCode(Point{0.5, 0.5});
  const auto ids = index.itl().Trajectories(leaf, unused);
  EXPECT_EQ(std::vector<TrajectoryId>(ids.begin(), ids.end()),
            (std::vector<TrajectoryId>{1}));
  const auto cells = index.hicl().CellsAt(unused, index.config().depth);
  EXPECT_EQ(std::vector<uint32_t>(cells.begin(), cells.end()),
            (std::vector<uint32_t>{leaf}));
}

TEST(GatIndex, FinerGridCostsMoreMemory) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(150, 66));
  GatConfig coarse;
  coarse.depth = 4;
  coarse.memory_levels = 4;
  GatConfig fine;
  fine.depth = 8;
  fine.memory_levels = 6;
  const auto coarse_mem =
      GatIndex(dataset, coarse).memory_breakdown().MainMemoryTotal();
  const auto fine_mem =
      GatIndex(dataset, fine).memory_breakdown().MainMemoryTotal();
  // Figure 8's trend: more partitions -> more memory.
  EXPECT_GT(fine_mem, coarse_mem);
}

}  // namespace
}  // namespace gat
