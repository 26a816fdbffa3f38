// Tests for the minimum point match distance kernel (Algorithm 3 and the
// exhaustive reference), including the paper's Table II worked example.

#include "gat/core/point_match.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "gat/util/rng.h"

namespace gat {
namespace {

// ---------------------------------------------------------------------------
// Table II of the paper: q.Phi = {a, b, c, d} (bits a=0 b=1 c=2 d=3).
// ---------------------------------------------------------------------------

std::vector<MatchPoint> TableTwoCandidates() {
  return {
      {10.0, 0b0001, 0},  // p1 {a}
      {11.0, 0b0110, 1},  // p2 {b, c}
      {13.0, 0b0011, 2},  // p3 {a, b}
      {15.0, 0b1000, 3},  // p4 {d}
      {17.0, 0b1100, 4},  // p5 {c, d}
      {26.0, 0b0111, 5},  // p6 {a, b, c}
      {31.0, 0b1111, 6},  // p7 {a, b, c, d}
  };
}

TEST(PointMatchTableTwo, FinalDistanceMatchesPaper) {
  const auto result = MinPointMatchDistance(TableTwoCandidates(), 4);
  EXPECT_DOUBLE_EQ(result.distance, 30.0);
}

TEST(PointMatchTableTwo, EarlyTerminationAtP7) {
  // The paper: "algorithm can stop now since Dmpm = 30 < 31" — p7 is never
  // examined.
  const auto result = MinPointMatchDistance(TableTwoCandidates(), 4);
  EXPECT_TRUE(result.early_terminated);
  EXPECT_EQ(result.points_examined, 6u);
}

TEST(PointMatchTableTwo, IntermediateHashTableStates) {
  // Replays the per-point updates of Table II against the incremental
  // table.
  PointMatchTable table(4);
  const auto cp = TableTwoCandidates();

  table.AddPoint(cp[0].mask, cp[0].distance);  // p1 {a}: 10
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b0001), 10.0);
  EXPECT_FALSE(table.Covered());

  table.AddPoint(cp[1].mask, cp[1].distance);  // p2 {b,c}: 11
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b0010), 11.0);  // {b}
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b0100), 11.0);  // {c}
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b0110), 11.0);  // {b,c}
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b0011), 21.0);  // {a,b}
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b0101), 21.0);  // {a,c}
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b0111), 21.0);  // {a,b,c}

  table.AddPoint(cp[2].mask, cp[2].distance);  // p3 {a,b}: 13
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b0011), 13.0);  // improved {a,b}

  table.AddPoint(cp[3].mask, cp[3].distance);  // p4 {d}: 15
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b1000), 15.0);  // {d}
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b1001), 25.0);  // {a,d}
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b1010), 26.0);  // {b,d}
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b1100), 26.0);  // {c,d}
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b1110), 26.0);  // {b,c,d}
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b1011), 28.0);  // {a,b,d}
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b1111), 36.0);  // full, per paper
  EXPECT_TRUE(table.Covered());

  table.AddPoint(cp[4].mask, cp[4].distance);  // p5 {c,d}: 17
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b1100), 17.0);
  EXPECT_DOUBLE_EQ(table.CurrentDistance(), 30.0);  // {a,b}+{c,d}=13+17

  table.AddPoint(cp[5].mask, cp[5].distance);  // p6: no update
  EXPECT_DOUBLE_EQ(table.DistanceFor(0b0111), 21.0);
  EXPECT_DOUBLE_EQ(table.CurrentDistance(), 30.0);
}

// ---------------------------------------------------------------------------
// Exhaustive reference
// ---------------------------------------------------------------------------

TEST(ExhaustiveMinPointMatch, TableTwoAgrees) {
  std::vector<PointIndex> witness;
  const double d = ExhaustiveMinPointMatch(TableTwoCandidates(), 4, &witness);
  EXPECT_DOUBLE_EQ(d, 30.0);
  // The optimal match is {p3 {a,b}, p5 {c,d}} = indices {2, 4}.
  EXPECT_EQ(witness, (std::vector<PointIndex>{2, 4}));
}

TEST(ExhaustiveMinPointMatch, NoCoverReturnsInfinity) {
  std::vector<MatchPoint> cp = {{1.0, 0b01, 0}, {2.0, 0b01, 1}};
  std::vector<PointIndex> witness;
  EXPECT_EQ(ExhaustiveMinPointMatch(cp, 2, &witness), kInfDist);
  EXPECT_TRUE(witness.empty());
}

TEST(ExhaustiveMinPointMatch, EmptyCandidates) {
  EXPECT_EQ(ExhaustiveMinPointMatch({}, 3, nullptr), kInfDist);
}

TEST(ExhaustiveMinPointMatch, SinglePointFullCover) {
  std::vector<MatchPoint> cp = {{5.5, 0b111, 0}};
  std::vector<PointIndex> witness;
  EXPECT_DOUBLE_EQ(ExhaustiveMinPointMatch(cp, 3, &witness), 5.5);
  EXPECT_EQ(witness, (std::vector<PointIndex>{0}));
}

TEST(ExhaustiveMinPointMatch, PrefersSinglePointOverCheapPair) {
  // One point covering everything at 10 vs two points at 6 each.
  std::vector<MatchPoint> cp = {
      {10.0, 0b11, 0}, {6.0, 0b01, 1}, {6.0, 0b10, 2}};
  EXPECT_DOUBLE_EQ(ExhaustiveMinPointMatch(cp, 2, nullptr), 10.0);
}

TEST(ExhaustiveMinPointMatch, PrefersPairWhenCheaper) {
  std::vector<MatchPoint> cp = {
      {20.0, 0b11, 0}, {6.0, 0b01, 1}, {6.0, 0b10, 2}};
  std::vector<PointIndex> witness;
  EXPECT_DOUBLE_EQ(ExhaustiveMinPointMatch(cp, 2, &witness), 12.0);
  EXPECT_EQ(witness, (std::vector<PointIndex>{1, 2}));
}

// ---------------------------------------------------------------------------
// Basic kernel behaviour
// ---------------------------------------------------------------------------

TEST(PointMatchTable, ZeroMaskIsIgnored) {
  PointMatchTable table(3);
  table.AddPoint(0, 1.0);
  EXPECT_FALSE(table.Covered());
  EXPECT_EQ(table.CurrentDistance(), kInfDist);
}

TEST(PointMatchTable, MaskBitsOutsideQueryAreDropped) {
  PointMatchTable table(2);  // full mask 0b11
  table.AddPoint(0b1111, 3.0);
  EXPECT_TRUE(table.Covered());
  EXPECT_DOUBLE_EQ(table.CurrentDistance(), 3.0);
}

TEST(PointMatchTable, ResetClearsState) {
  PointMatchTable table(2);
  table.AddPoint(0b11, 1.0);
  EXPECT_TRUE(table.Covered());
  table.Reset();
  EXPECT_FALSE(table.Covered());
  EXPECT_EQ(table.DistanceFor(0b01), kInfDist);
  table.AddPoint(0b01, 2.0);
  table.AddPoint(0b10, 3.0);
  EXPECT_DOUBLE_EQ(table.CurrentDistance(), 5.0);
}

TEST(MinPointMatchDistance, NeverEarlyTerminatesWhenUncoverable) {
  std::vector<MatchPoint> cp = {{1.0, 0b01, 0}, {2.0, 0b01, 1}};
  const auto r = MinPointMatchDistance(cp, 2);
  EXPECT_EQ(r.distance, kInfDist);
  EXPECT_FALSE(r.early_terminated);
  EXPECT_EQ(r.points_examined, 2u);
}

// ---------------------------------------------------------------------------
// Property sweeps: Algorithm 3 == exhaustive reference; insertion order
// independence of the incremental table.
// ---------------------------------------------------------------------------

struct RandomKernelParam {
  int num_activities;
  int num_points;
  uint64_t seed;
};

class PointMatchPropertyTest
    : public ::testing::TestWithParam<RandomKernelParam> {};

std::vector<MatchPoint> RandomCandidates(Rng& rng, int bits, int n) {
  std::vector<MatchPoint> cp;
  const ActivityMask full = (ActivityMask{1} << bits) - 1;
  for (int i = 0; i < n; ++i) {
    // Random non-zero mask, skewed towards few bits (like real points).
    ActivityMask mask = 0;
    for (int b = 0; b < bits; ++b) {
      if (rng.NextBool(0.35)) mask |= ActivityMask{1} << b;
    }
    if (mask == 0) mask = ActivityMask{1} << rng.NextU32(bits);
    mask &= full;
    cp.push_back(MatchPoint{rng.NextDouble(0.0, 100.0), mask,
                            static_cast<PointIndex>(i)});
  }
  return cp;
}

TEST_P(PointMatchPropertyTest, Algorithm3MatchesExhaustive) {
  const auto param = GetParam();
  Rng rng(param.seed);
  for (int round = 0; round < 30; ++round) {
    const auto cp =
        RandomCandidates(rng, param.num_activities, param.num_points);
    const double expected =
        ExhaustiveMinPointMatch(cp, param.num_activities, nullptr);
    const double actual =
        MinPointMatchDistance(cp, param.num_activities).distance;
    if (expected == kInfDist) {
      ASSERT_EQ(actual, kInfDist)
          << "round " << round << " bits " << param.num_activities;
    } else {
      ASSERT_NEAR(actual, expected, 1e-9)
          << "round " << round << " bits " << param.num_activities;
    }
  }
}

TEST_P(PointMatchPropertyTest, InsertionOrderIndependence) {
  // Sortedness is only needed for early termination; the final table value
  // must be identical under any insertion order (this property is what
  // Algorithm 4 relies on when growing windows backwards).
  const auto param = GetParam();
  Rng rng(param.seed ^ 0xABCDEF);
  for (int round = 0; round < 15; ++round) {
    auto cp = RandomCandidates(rng, param.num_activities, param.num_points);
    PointMatchTable forward(param.num_activities);
    for (const auto& p : cp) forward.AddPoint(p.mask, p.distance);
    for (int shuffle = 0; shuffle < 3; ++shuffle) {
      rng.Shuffle(cp);
      PointMatchTable shuffled(param.num_activities);
      for (const auto& p : cp) shuffled.AddPoint(p.mask, p.distance);
      if (forward.CurrentDistance() == kInfDist) {
        ASSERT_EQ(shuffled.CurrentDistance(), kInfDist);
      } else {
        ASSERT_NEAR(shuffled.CurrentDistance(), forward.CurrentDistance(),
                    1e-9);
      }
    }
  }
}

TEST_P(PointMatchPropertyTest, WitnessIsConsistent) {
  const auto param = GetParam();
  Rng rng(param.seed ^ 0x5A5A5A);
  for (int round = 0; round < 20; ++round) {
    const auto cp =
        RandomCandidates(rng, param.num_activities, param.num_points);
    std::vector<PointIndex> witness;
    const double d =
        ExhaustiveMinPointMatch(cp, param.num_activities, &witness);
    if (d == kInfDist) {
      ASSERT_TRUE(witness.empty());
      continue;
    }
    // The witness must cover the full mask and its cost must equal d.
    ActivityMask covered = 0;
    double cost = 0.0;
    for (PointIndex idx : witness) {
      const auto it = std::find_if(
          cp.begin(), cp.end(),
          [idx](const MatchPoint& p) { return p.point_index == idx; });
      ASSERT_NE(it, cp.end());
      covered |= it->mask;
      cost += it->distance;
    }
    const ActivityMask full =
        (ActivityMask{1} << param.num_activities) - 1;
    ASSERT_EQ(covered & full, full);
    ASSERT_NEAR(cost, d, 1e-9);
  }
}

TEST(MinPointMatchDistance, ReusedTableMatchesFreshTable) {
  // One table per width serves calls of every candidate count, in any
  // order: the span overload must return exactly what a fresh table does.
  Rng rng(20);
  for (int bits = 1; bits <= 6; ++bits) {
    PointMatchTable table(bits);
    for (const int n : {12, 0, 3, 30, 1, 7, 30, 2}) {
      SCOPED_TRACE(::testing::Message() << "bits " << bits << " n " << n);
      std::vector<MatchPoint> cp = RandomCandidates(rng, bits, n);
      const PointMatchResult fresh = MinPointMatchDistance(cp, bits);
      const PointMatchResult reused =
          MinPointMatchDistance(std::span<MatchPoint>(cp), table);
      EXPECT_EQ(reused.distance, fresh.distance);
      EXPECT_EQ(reused.points_examined, fresh.points_examined);
      EXPECT_EQ(reused.early_terminated, fresh.early_terminated);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PointMatchPropertyTest,
    ::testing::Values(RandomKernelParam{1, 8, 11}, RandomKernelParam{2, 10, 12},
                      RandomKernelParam{3, 12, 13}, RandomKernelParam{4, 16, 14},
                      RandomKernelParam{5, 20, 15}, RandomKernelParam{6, 24, 16},
                      RandomKernelParam{8, 30, 17},
                      RandomKernelParam{3, 2, 18},   // fewer points than bits
                      RandomKernelParam{5, 3, 19}));

}  // namespace
}  // namespace gat
