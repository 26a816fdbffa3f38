// Tests for the data model: trajectories, dataset finalization (frequency
// ranking), vocabulary, queries, dataset statistics.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "gat/model/dataset.h"
#include "gat/model/dataset_stats.h"
#include "gat/model/query.h"
#include "gat/model/trajectory.h"

namespace gat {
namespace {

Trajectory MakeTrajectory(
    std::vector<std::pair<Point, std::vector<ActivityId>>> pts) {
  std::vector<TrajectoryPoint> points;
  for (auto& [loc, acts] : pts) points.push_back(TrajectoryPoint{loc, acts});
  return Trajectory(std::move(points));
}

/// Whether two trajectories read one block of points.
bool SharePoints(const Trajectory& a, const Trajectory& b) {
  return &a.points() == &b.points();
}

TEST(TrajectoryPoint, HasActivity) {
  TrajectoryPoint p{Point{0, 0}, {1, 3, 5}};
  EXPECT_TRUE(p.HasActivity(3));
  EXPECT_FALSE(p.HasActivity(2));
  EXPECT_TRUE(p.HasAnyActivity({2, 5}));
  EXPECT_FALSE(p.HasAnyActivity({0, 2, 4}));
  EXPECT_FALSE(p.HasAnyActivity({}));
}

TEST(Trajectory, NormalizeSortsAndDedups) {
  auto tr = MakeTrajectory({{Point{0, 0}, {5, 1, 5, 3, 1}}});
  tr.NormalizeActivities();
  EXPECT_EQ(tr[0].activities, (std::vector<ActivityId>{1, 3, 5}));
}

TEST(Trajectory, ActivityUnionAndCount) {
  auto tr = MakeTrajectory(
      {{Point{0, 0}, {2, 1}}, {Point{1, 1}, {3, 2}}, {Point{2, 2}, {}}});
  tr.NormalizeActivities();
  EXPECT_EQ(tr.ActivityUnion(), (std::vector<ActivityId>{1, 2, 3}));
  EXPECT_EQ(tr.ActivityCount(), 4u);
}

TEST(Trajectory, BoundingBox) {
  auto tr = MakeTrajectory({{Point{1, 5}, {}}, {Point{-2, 3}, {}}});
  const Rect box = tr.BoundingBox();
  EXPECT_EQ(box, (Rect{Point{-2, 3}, Point{1, 5}}));
}

TEST(Dataset, FinalizeRanksActivitiesByFrequency) {
  Dataset d;
  // Activity 9 appears 3x, activity 4 appears 2x, activity 1 appears 1x.
  d.Add(MakeTrajectory({{Point{0, 0}, {9, 4}}, {Point{1, 0}, {9}}}));
  d.Add(MakeTrajectory({{Point{2, 0}, {9, 4, 1}}}));
  d.Finalize();
  // After ranking: 9 -> 0, 4 -> 1, 1 -> 2.
  const auto& freqs = d.activity_frequencies();
  ASSERT_EQ(freqs.size(), 3u);
  EXPECT_EQ(freqs[0], 3u);
  EXPECT_EQ(freqs[1], 2u);
  EXPECT_EQ(freqs[2], 1u);
  // Frequencies are non-increasing by construction.
  for (size_t i = 1; i < freqs.size(); ++i) EXPECT_LE(freqs[i], freqs[i - 1]);
  // The remapped IDs appear in the trajectories.
  EXPECT_EQ(d.trajectory(0)[0].activities, (std::vector<ActivityId>{0, 1}));
  EXPECT_EQ(d.trajectory(0)[1].activities, (std::vector<ActivityId>{0}));
  EXPECT_EQ(d.trajectory(1)[0].activities, (std::vector<ActivityId>{0, 1, 2}));
}

TEST(Dataset, FinalizeIsIdempotent) {
  Dataset d;
  d.Add(MakeTrajectory({{Point{0, 0}, {3}}}));
  d.Finalize();
  const auto before = d.trajectory(0)[0].activities;
  d.Finalize();
  EXPECT_EQ(d.trajectory(0)[0].activities, before);
}

TEST(Dataset, BoundingBoxCoversAllPoints) {
  Dataset d;
  d.Add(MakeTrajectory({{Point{-1, -2}, {0}}, {Point{5, 7}, {0}}}));
  d.Add(MakeTrajectory({{Point{3, 9}, {0}}}));
  d.Finalize();
  EXPECT_EQ(d.bounding_box(), (Rect{Point{-1, -2}, Point{5, 9}}));
}

TEST(Dataset, VocabularyPermutedWithFrequencies) {
  Dataset d;
  auto& vocab = d.mutable_vocabulary();
  const ActivityId rare = vocab.InternActivity("rare");
  const ActivityId common = vocab.InternActivity("common");
  d.Add(MakeTrajectory({{Point{0, 0}, {common, rare}},
                        {Point{1, 0}, {common}}}));
  d.Finalize();
  // "common" should now be ID 0.
  EXPECT_EQ(d.vocabulary().Lookup("common"), 0u);
  EXPECT_EQ(d.vocabulary().Lookup("rare"), 1u);
  EXPECT_EQ(d.vocabulary().Name(0), "common");
}

TEST(Dataset, SampleSubsets) {
  Dataset d;
  for (int i = 0; i < 5; ++i) {
    d.Add(MakeTrajectory(
        {{Point{static_cast<double>(i), 0}, {static_cast<ActivityId>(i)}}}));
  }
  d.Finalize();
  const Dataset sub = d.Sample({1, 3});
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_TRUE(sub.finalized());
  EXPECT_EQ(sub.trajectory(0)[0].location.x, 1.0);
  EXPECT_EQ(sub.trajectory(1)[0].location.x, 3.0);
}

TEST(Trajectory, DefaultConstructedIsEmptyAndReadable) {
  const Trajectory tr;
  EXPECT_TRUE(tr.empty());
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_TRUE(tr.points().empty());
  EXPECT_TRUE(tr.ActivityUnion().empty());
  EXPECT_EQ(tr.ActivityCount(), 0u);
  EXPECT_TRUE(tr.BoundingBox().IsEmpty());
  Trajectory copy = tr;
  copy.NormalizeActivities();
  copy.mutable_points().push_back({Point{1, 2}, {3}});
  EXPECT_EQ(copy.size(), 1u);
  EXPECT_TRUE(tr.empty());
}

TEST(Trajectory, CopiesShareAndAMutatedCopyLeavesTheSource) {
  const Trajectory source =
      MakeTrajectory({{Point{0, 0}, {1}}, {Point{1, 0}, {2}}});
  Trajectory copy = source;
  EXPECT_TRUE(SharePoints(copy, source));
  EXPECT_EQ(&copy.points(), &source.points());

  copy.mutable_points().push_back({Point{2, 0}, {3}});
  copy.mutable_points()[0].activities.push_back(7);
  EXPECT_FALSE(SharePoints(copy, source));
  ASSERT_EQ(source.size(), 2u);
  EXPECT_EQ(source[0].activities, (std::vector<ActivityId>{1}));
  ASSERT_EQ(copy.size(), 3u);
  EXPECT_EQ(copy[0].activities, (std::vector<ActivityId>{1, 7}));

  // A sole owner mutates in place; moving hands the block over.
  const std::vector<TrajectoryPoint>* block = &copy.points();
  copy.mutable_points().pop_back();
  EXPECT_EQ(&copy.points(), block);
  Trajectory moved = std::move(copy);
  EXPECT_EQ(&moved.points(), block);

  // Assignment shares too, and releases what the target held.
  moved = source;
  EXPECT_TRUE(SharePoints(moved, source));
  moved = Trajectory();
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(source.size(), 2u);
}

TEST(Trajectory, NormalizingANormalizedCopyKeepsItShared) {
  const Trajectory sorted = MakeTrajectory({{Point{0, 0}, {1, 4}}});
  Trajectory copy = sorted;
  copy.NormalizeActivities();
  EXPECT_TRUE(SharePoints(copy, sorted));

  const Trajectory unsorted = MakeTrajectory({{Point{0, 0}, {4, 1, 4}}});
  Trajectory normalized = unsorted;
  normalized.NormalizeActivities();
  EXPECT_FALSE(SharePoints(normalized, unsorted));
  EXPECT_EQ(normalized[0].activities, (std::vector<ActivityId>{1, 4}));
  EXPECT_EQ(unsorted[0].activities, (std::vector<ActivityId>{4, 1, 4}));
}

TEST(Trajectory, CopiesOnManyThreadsStayIndependent) {
  // Threads copy one shared trajectory, read it, mutate their copies and
  // drop them, all at once: under ThreadSanitizer this checks that the
  // reference count and the clone-on-write are race-free.
  std::vector<std::pair<Point, std::vector<ActivityId>>> pts;
  for (int i = 0; i < 64; ++i) {
    pts.push_back({Point{static_cast<double>(i), 0}, {1, 2}});
  }
  const Trajectory source = MakeTrajectory(pts);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&source, &mismatches, t] {
      for (int round = 0; round < 200; ++round) {
        Trajectory copy = source;
        double sum = 0;
        for (const auto& p : copy.points()) sum += p.location.x;
        copy.mutable_points()[0].location.x = -1.0 - t;
        Trajectory second = copy;  // shares the clone, then clones again
        second.mutable_points().pop_back();
        if (sum != 2016.0 || copy.size() != 64 || second.size() != 63 ||
            copy[0].location.x != -1.0 - t) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(source[0].location.x, 0.0);
  EXPECT_EQ(source.size(), 64u);
}

TEST(Dataset, PartitionExtensionAndSampleSharePoints) {
  Dataset d;
  for (int i = 0; i < 5; ++i) {
    d.Add(MakeTrajectory(
        {{Point{static_cast<double>(i), 0}, {static_cast<ActivityId>(i)}}}));
  }
  d.Finalize();

  const std::vector<Dataset> shards = d.PartitionRoundRobin(2);
  for (TrajectoryId g = 0; g < d.size(); ++g) {
    EXPECT_TRUE(SharePoints(shards[g % 2].trajectory(g / 2), d.trajectory(g)))
        << g;
  }

  const Trajectory extra = MakeTrajectory({{Point{2, 0}, {4, 0}}});
  const Dataset extended = d.ExtendWith({extra});
  ASSERT_EQ(extended.size(), 6u);
  for (TrajectoryId g = 0; g < d.size(); ++g) {
    EXPECT_TRUE(SharePoints(extended.trajectory(g), d.trajectory(g)));
  }
  // Normalizing the unsorted extra trajectory clones it, and only it.
  EXPECT_FALSE(SharePoints(extended.trajectory(5), extra));
  EXPECT_EQ(extended.trajectory(5)[0].activities,
            (std::vector<ActivityId>{0, 4}));
  EXPECT_EQ(extra[0].activities, (std::vector<ActivityId>{4, 0}));

  // A sample whose re-rank keeps its IDs shares; one whose IDs move
  // clones, and the source keeps its own.
  const Dataset head = d.Sample({0, 1});
  EXPECT_TRUE(SharePoints(head.trajectory(1), d.trajectory(1)));
  const Dataset odd = d.Sample({1, 3});
  EXPECT_FALSE(SharePoints(odd.trajectory(0), d.trajectory(1)));
  EXPECT_EQ(odd.trajectory(0)[0].activities, (std::vector<ActivityId>{0}));
  EXPECT_EQ(d.trajectory(1)[0].activities, (std::vector<ActivityId>{1}));
}

TEST(ActivityVocabulary, InternIsIdempotent) {
  ActivityVocabulary v;
  const ActivityId a = v.InternActivity("sushi");
  EXPECT_EQ(v.InternActivity("sushi"), a);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.Lookup("missing"), kInvalidId);
}

TEST(Query, NormalizesActivities) {
  Query q({QueryPoint{Point{0, 0}, {5, 1, 5}}});
  EXPECT_EQ(q[0].activities, (std::vector<ActivityId>{1, 5}));
  q.Add(QueryPoint{Point{1, 1}, {9, 2, 2}});
  EXPECT_EQ(q[1].activities, (std::vector<ActivityId>{2, 9}));
}

TEST(Query, ActivityUnion) {
  Query q({QueryPoint{Point{0, 0}, {1, 2}}, QueryPoint{Point{1, 1}, {2, 3}}});
  EXPECT_EQ(q.ActivityUnion(), (std::vector<ActivityId>{1, 2, 3}));
}

TEST(Query, Diameter) {
  Query q({QueryPoint{Point{0, 0}, {}}, QueryPoint{Point{3, 4}, {}},
           QueryPoint{Point{1, 1}, {}}});
  EXPECT_DOUBLE_EQ(q.Diameter(), 5.0);
  EXPECT_DOUBLE_EQ(Query({QueryPoint{Point{2, 2}, {}}}).Diameter(), 0.0);
  EXPECT_DOUBLE_EQ(Query{}.Diameter(), 0.0);
}

TEST(DatasetStats, CollectMatchesManualCounts) {
  Dataset d;
  d.Add(MakeTrajectory({{Point{0, 0}, {1, 2}}, {Point{10, 0}, {1}}}));
  d.Add(MakeTrajectory({{Point{0, 5}, {}}}));
  d.Finalize();
  const auto s = DatasetStats::Collect(d);
  EXPECT_EQ(s.num_trajectories, 2u);
  EXPECT_EQ(s.num_points, 3u);
  EXPECT_EQ(s.num_activity_assignments, 3u);
  EXPECT_EQ(s.num_distinct_activities, 2u);
  EXPECT_DOUBLE_EQ(s.avg_points_per_trajectory, 1.5);
  EXPECT_DOUBLE_EQ(s.avg_activities_per_point, 1.0);
  EXPECT_DOUBLE_EQ(s.avg_activities_per_trajectory, 1.5);
  EXPECT_DOUBLE_EQ(s.extent_width_km, 10.0);
  EXPECT_DOUBLE_EQ(s.extent_height_km, 5.0);
  EXPECT_FALSE(s.ToTableRow("T").empty());
}

}  // namespace
}  // namespace gat
