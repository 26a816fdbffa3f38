// Tests for the IR-tree: the R-tree built with the dataset, its
// activity-filtered incremental NN and node pruning.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gat/model/dataset.h"
#include "gat/rtree/rtree.h"
#include "gat/util/rng.h"

namespace gat {
namespace {

/// A dataset of `n` random points in trajectories of four, each point
/// carrying 0-3 activities below `vocabulary` (not finalized, so the IDs
/// stay as drawn), and the tree entries of its points.
Dataset RandomDataset(Rng& rng, size_t n, uint32_t vocabulary,
                      std::vector<RTreeEntry>* entries) {
  Dataset dataset;
  std::vector<TrajectoryPoint> points;
  for (size_t i = 0; i < n; ++i) {
    TrajectoryPoint p;
    p.location = Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
    const uint32_t count = rng.NextU32(4);  // 0..3 activities
    for (uint32_t c = 0; c < count; ++c) {
      p.activities.push_back(rng.NextU32(vocabulary));
    }
    std::sort(p.activities.begin(), p.activities.end());
    p.activities.erase(std::unique(p.activities.begin(), p.activities.end()),
                       p.activities.end());
    entries->push_back(RTreeEntry{p.location,
                                  static_cast<TrajectoryId>(i / 4),
                                  static_cast<PointIndex>(i % 4)});
    points.push_back(std::move(p));
    if (points.size() == 4 || i + 1 == n) {
      dataset.Add(Trajectory(std::move(points)));
      points.clear();
    }
  }
  return dataset;
}

const TrajectoryPoint& PointOf(const Dataset& dataset, const RTreeEntry& e) {
  return dataset.trajectory(e.trajectory)[e.point_index];
}

TEST(IrTree, EmptyTree) {
  const Dataset dataset;
  const RTree tree = RTree::BulkLoad({}, 32, &dataset);
  EXPECT_EQ(tree.size(), 0u);
  RTree::NearestIterator it(tree, Point{0, 0}, {1});
  const RTreeEntry* e = nullptr;
  double d;
  EXPECT_FALSE(it.Next(&e, &d));
}

class IrTreeFilterTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IrTreeFilterTest, FilteredStreamYieldsExactlyMatchingPoints) {
  Rng rng(GetParam());
  std::vector<RTreeEntry> entries;
  const Dataset dataset = RandomDataset(rng, 500, 20, &entries);
  const RTree tree = RTree::BulkLoad(entries, 8, &dataset);
  EXPECT_TRUE(tree.CheckInvariants());
  const Point origin{rng.NextDouble(0, 100), rng.NextDouble(0, 100)};
  const std::vector<ActivityId> filter = {3, 7};

  // Expected: every point carrying activity 3 or 7, by distance.
  std::vector<double> expected;
  for (const auto& e : entries) {
    if (PointOf(dataset, e).HasAnyActivity(filter)) {
      expected.push_back(Distance(origin, e.point));
    }
  }
  std::sort(expected.begin(), expected.end());

  RTree::NearestIterator it(tree, origin, filter);
  const RTreeEntry* e = nullptr;
  double d;
  size_t count = 0;
  double prev = -1.0;
  while (it.Next(&e, &d)) {
    ASSERT_GE(d, prev);
    ASSERT_LT(count, expected.size());
    ASSERT_NEAR(d, expected[count], 1e-9);
    // Yielded entries really carry a demanded activity.
    ASSERT_TRUE(PointOf(dataset, *e).HasAnyActivity(filter));
    prev = d;
    ++count;
  }
  EXPECT_EQ(count, expected.size());
}

TEST_P(IrTreeFilterTest, EmptyFilterDegeneratesToPlainBrowsing) {
  Rng rng(GetParam() + 1000);
  std::vector<RTreeEntry> entries;
  const Dataset dataset = RandomDataset(rng, 300, 10, &entries);
  const RTree tree = RTree::BulkLoad(entries, 8, &dataset);
  RTree::NearestIterator it(tree, Point{50, 50}, {});
  const RTreeEntry* e = nullptr;
  double d;
  size_t count = 0;
  while (it.Next(&e, &d)) ++count;
  EXPECT_EQ(count, entries.size());
  EXPECT_EQ(it.nodes_pruned(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrTreeFilterTest, ::testing::Values(1, 2, 3));

TEST(IrTree, PrunesSubtreesWithoutDemandedActivity) {
  // Left half of the plane carries activity 0, right half activity 1;
  // searching for activity 1 from the far left must prune left subtrees.
  Dataset dataset;
  std::vector<RTreeEntry> entries;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const bool left = i < 100;
    TrajectoryPoint p;
    p.location = Point{rng.NextDouble(left ? 0 : 60, left ? 40 : 100),
                       rng.NextDouble(0, 100)};
    p.activities = {left ? 0u : 1u};
    entries.push_back(RTreeEntry{p.location, static_cast<TrajectoryId>(i), 0});
    dataset.Add(Trajectory({std::move(p)}));
  }
  const RTree tree = RTree::BulkLoad(entries, 8, &dataset);
  RTree::NearestIterator it(tree, Point{0, 50}, {1});
  const RTreeEntry* e = nullptr;
  double d;
  size_t count = 0;
  while (it.Next(&e, &d)) {
    ASSERT_EQ(PointOf(dataset, *e).activities, (std::vector<ActivityId>{1}));
    ++count;
  }
  EXPECT_EQ(count, 100u);
  EXPECT_GT(it.nodes_pruned(), 0u);
}

}  // namespace
}  // namespace gat
