// Tests for the R-tree substrate of the tree baselines: invariants, bulk
// load, incremental NN. The activity-filtered NN of IRT is in irtree_test.

#include "gat/rtree/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gat/util/rng.h"

namespace gat {
namespace {

std::vector<RTreeEntry> RandomEntries(Rng& rng, size_t n) {
  std::vector<RTreeEntry> entries;
  for (size_t i = 0; i < n; ++i) {
    entries.push_back(RTreeEntry{
        Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)},
        static_cast<TrajectoryId>(i / 5), static_cast<PointIndex>(i % 5)});
  }
  return entries;
}

TEST(RTree, EmptyTree) {
  const RTree tree = RTree::BulkLoad({});
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.Height(), 0);
  EXPECT_TRUE(tree.CheckInvariants());
  RTree::NearestIterator it(tree, Point{0, 0});
  const RTreeEntry* e = nullptr;
  double d;
  EXPECT_FALSE(it.Next(&e, &d));
  EXPECT_EQ(it.PendingLowerBound(), kInfDist);
}

class RTreeBulkLoadTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RTreeBulkLoadTest, InvariantsAndCompleteness) {
  Rng rng(GetParam());
  const auto entries = RandomEntries(rng, GetParam());
  RTree tree = RTree::BulkLoad(entries, 16);
  EXPECT_EQ(tree.size(), entries.size());
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.CollectAll().size(), entries.size());
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeBulkLoadTest,
                         ::testing::Values(1, 2, 15, 16, 17, 100, 1000, 3000));

class RTreeNearestTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RTreeNearestTest, YieldsEntriesInDistanceOrder) {
  Rng rng(GetParam());
  const auto entries = RandomEntries(rng, 400);
  const RTree tree = RTree::BulkLoad(entries, 8);
  const Point origin{rng.NextDouble(0, 100), rng.NextDouble(0, 100)};

  std::vector<double> expected;
  for (const auto& e : entries) expected.push_back(Distance(origin, e.point));
  std::sort(expected.begin(), expected.end());

  RTree::NearestIterator it(tree, origin);
  const RTreeEntry* e = nullptr;
  double d;
  size_t count = 0;
  double prev = -1.0;
  while (it.Next(&e, &d)) {
    ASSERT_GE(d, prev);  // non-decreasing
    ASSERT_NEAR(d, expected[count], 1e-9);
    ASSERT_DOUBLE_EQ(d, Distance(origin, e->point));
    prev = d;
    ++count;
  }
  EXPECT_EQ(count, entries.size());
}

TEST_P(RTreeNearestTest, PendingLowerBoundIsSound) {
  Rng rng(GetParam() ^ 0xF00);
  const auto entries = RandomEntries(rng, 200);
  const RTree tree = RTree::BulkLoad(entries, 8);
  const Point origin{50, 50};
  RTree::NearestIterator it(tree, origin);
  const RTreeEntry* e = nullptr;
  double d;
  while (true) {
    const double pending = it.PendingLowerBound();
    if (!it.Next(&e, &d)) break;
    // The pre-pop pending bound must never exceed the returned distance.
    ASSERT_LE(pending, d + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RTreeNearestTest,
                         ::testing::Values(10, 20, 30, 40));

TEST(RTree, DuplicatePointsAllRetained) {
  std::vector<RTreeEntry> entries;
  for (int i = 0; i < 20; ++i) {
    entries.push_back(RTreeEntry{Point{1, 1}, static_cast<TrajectoryId>(i), 0});
  }
  const RTree tree = RTree::BulkLoad(std::move(entries), 4);
  EXPECT_EQ(tree.size(), 20u);
  EXPECT_TRUE(tree.CheckInvariants());
  RTree::NearestIterator it(tree, Point{1, 1});
  const RTreeEntry* e = nullptr;
  double d;
  int count = 0;
  while (it.Next(&e, &d)) {
    EXPECT_DOUBLE_EQ(d, 0.0);
    ++count;
  }
  EXPECT_EQ(count, 20);
}

}  // namespace
}  // namespace gat
