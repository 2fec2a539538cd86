#include "optimizer/bounds.h"

#include <gtest/gtest.h>

#include <cmath>

namespace nipo {
namespace {

TEST(BoundsTest, TupleBoundsMatchEquations6And7) {
  auto b = ComputeTupleBounds(100, 10, 4);
  ASSERT_TRUE(b.ok());
  const SearchBounds& sb = b.ValueOrDie();
  // Lower: tupsout everywhere.
  for (double lo : sb.lower) EXPECT_DOUBLE_EQ(lo, 10.0);
  // Upper: tupsin except the last position.
  EXPECT_DOUBLE_EQ(sb.upper[0], 100.0);
  EXPECT_DOUBLE_EQ(sb.upper[1], 100.0);
  EXPECT_DOUBLE_EQ(sb.upper[2], 100.0);
  EXPECT_DOUBLE_EQ(sb.upper[3], 10.0);
  EXPECT_TRUE(sb.Feasible());
}

TEST(BoundsTest, PaperFigure7Example) {
  // The worked example of Section 4.1: 100 in, 10 out, accesses
  // [80, 70, 50, 10], BNT = 210. Expected restriction:
  // lower [67, 50, 10, 10], upper [100, 95, 66, 10] (paper's rounding).
  auto b = ComputeBntBounds(100, 10, 210, 4);
  ASSERT_TRUE(b.ok());
  const SearchBounds& sb = b.ValueOrDie();
  EXPECT_DOUBLE_EQ(sb.upper[0], 100.0);  // 180 clipped to tupsin
  EXPECT_DOUBLE_EQ(sb.upper[1], 95.0);
  EXPECT_NEAR(sb.upper[2], 200.0 / 3.0, 1e-9);  // 66.67, paper prints 66
  EXPECT_DOUBLE_EQ(sb.upper[3], 10.0);
  EXPECT_NEAR(sb.lower[0], 200.0 / 3.0, 1e-9);  // paper prints 67
  EXPECT_DOUBLE_EQ(sb.lower[1], 50.0);
  EXPECT_DOUBLE_EQ(sb.lower[2], 10.0);
  EXPECT_DOUBLE_EQ(sb.lower[3], 10.0);
}

TEST(BoundsTest, TrueAccessesAlwaysInsideBnTBounds) {
  // Property: for any monotone access vector, bounds computed from its own
  // BNT must contain it.
  const std::vector<std::vector<double>> cases = {
      {80, 70, 50, 10},
      {100, 100, 100, 10},
      {10, 10, 10, 10},
      {90, 20, 15, 10},
      {55, 54, 53, 10},
  };
  for (const auto& acc : cases) {
    double bnt = 0;
    for (double a : acc) bnt += a;
    auto b = ComputeBntBounds(100, 10, bnt, acc.size());
    ASSERT_TRUE(b.ok()) << "bnt=" << bnt;
    const SearchBounds& sb = b.ValueOrDie();
    for (size_t i = 0; i < acc.size(); ++i) {
      EXPECT_LE(sb.lower[i] - 1e-9, acc[i]) << "i=" << i;
      EXPECT_GE(sb.upper[i] + 1e-9, acc[i]) << "i=" << i;
    }
  }
}

TEST(BoundsTest, BntBoundsRejectInfeasibleSamples) {
  // BNT below n*tupsout or above (n-1)*tupsin + tupsout is impossible.
  EXPECT_FALSE(ComputeBntBounds(100, 10, 39, 4).ok());
  EXPECT_FALSE(ComputeBntBounds(100, 10, 311, 4).ok());
  EXPECT_TRUE(ComputeBntBounds(100, 10, 40, 4).ok());
  EXPECT_TRUE(ComputeBntBounds(100, 10, 310, 4).ok());
}

TEST(BoundsTest, ValidationErrors) {
  EXPECT_FALSE(ComputeTupleBounds(100, 10, 0).ok());
  EXPECT_FALSE(ComputeTupleBounds(10, 100, 2).ok());  // out > in
  EXPECT_FALSE(ComputeTupleBounds(-1, -2, 2).ok());
}

TEST(BoundsTest, IntersectTakesTighterSide) {
  SearchBounds a{{0, 0}, {10, 10}};
  SearchBounds b{{5, 2}, {20, 8}};
  auto i = IntersectBounds(a, b);
  ASSERT_TRUE(i.ok());
  EXPECT_DOUBLE_EQ(i.ValueOrDie().lower[0], 5.0);
  EXPECT_DOUBLE_EQ(i.ValueOrDie().upper[0], 10.0);
  EXPECT_DOUBLE_EQ(i.ValueOrDie().lower[1], 2.0);
  EXPECT_DOUBLE_EQ(i.ValueOrDie().upper[1], 8.0);
}

TEST(BoundsTest, IntersectDetectsEmpty) {
  SearchBounds a{{0}, {1}};
  SearchBounds b{{2}, {3}};
  EXPECT_FALSE(IntersectBounds(a, b).ok());
  SearchBounds c{{0}, {1, 2}};
  EXPECT_FALSE(IntersectBounds(a, c).ok());  // dimension mismatch
}

TEST(BoundsTest, RestrictSearchSpaceTightensTupleBounds) {
  auto restricted = RestrictSearchSpace(100, 10, 210, 4);
  auto tuple_only = ComputeTupleBounds(100, 10, 4);
  ASSERT_TRUE(restricted.ok() && tuple_only.ok());
  double restricted_volume = 1, tuple_volume = 1;
  for (size_t i = 0; i + 1 < 4; ++i) {
    restricted_volume *= restricted.ValueOrDie().upper[i] -
                         restricted.ValueOrDie().lower[i];
    tuple_volume *=
        tuple_only.ValueOrDie().upper[i] - tuple_only.ValueOrDie().lower[i];
  }
  EXPECT_LT(restricted_volume, tuple_volume * 0.2);
}

TEST(BoundsTest, AccessesToSelectivitiesDividesByPredecessor) {
  const auto sel = AccessesToSelectivities(1000.0, {800.0, 400.0, 100.0});
  EXPECT_NEAR(sel[0], 0.8, 1e-12);
  EXPECT_NEAR(sel[1], 0.5, 1e-12);
  EXPECT_NEAR(sel[2], 0.25, 1e-12);
}

TEST(BoundsTest, AccessesToSelectivitiesHandlesZeroPredecessor) {
  const auto sel = AccessesToSelectivities(100.0, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(sel[0], 0.0);
  EXPECT_DOUBLE_EQ(sel[1], 1.0);  // nothing reached it: no information
}

TEST(BoundsTest, SinglePredicateDegenerates) {
  auto b = ComputeBntBounds(100, 25, 25, 1);
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(b.ValueOrDie().lower[0], 25.0);
  EXPECT_DOUBLE_EQ(b.ValueOrDie().upper[0], 25.0);
}

}  // namespace
}  // namespace nipo
