#include "exec/arrival.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

// Arrival-process unit tests (DESIGN.md "Open-loop service mode"):
//  - identical specs (same seed) generate bit-identical schedules;
//  - Poisson inter-arrival sample mean lands near 1/lambda under a
//    fixed seed;
//  - the rate -> infinity limit collapses the Poisson process to
//    simultaneous arrivals at t = 0.

namespace nipo {
namespace {

ArrivalSpec Spec(ArrivalKind kind, double rate_qps, uint64_t seed = 42) {
  ArrivalSpec spec;
  spec.kind = kind;
  spec.rate_qps = rate_qps;
  spec.seed = seed;
  return spec;
}

void ExpectNonDecreasing(const std::vector<double>& arrivals) {
  for (size_t i = 1; i < arrivals.size(); ++i) {
    ASSERT_LE(arrivals[i - 1], arrivals[i]) << "index " << i;
  }
}

TEST(ArrivalProcessTest, IdenticalSeedsYieldIdenticalSchedules) {
  const std::vector<double> a =
      GenerateArrivalTimes(Spec(ArrivalKind::kPoisson, 50.0), 500);
  const std::vector<double> b =
      GenerateArrivalTimes(Spec(ArrivalKind::kPoisson, 50.0), 500);
  EXPECT_EQ(a, b);  // bitwise, every instant
  ExpectNonDecreasing(a);
  EXPECT_EQ(a.front(), 0.0);
  // Different seeds move the schedule.
  EXPECT_NE(GenerateArrivalTimes(Spec(ArrivalKind::kPoisson, 50.0, 1), 500),
            GenerateArrivalTimes(Spec(ArrivalKind::kPoisson, 50.0, 2), 500));
}

TEST(ArrivalProcessTest, PoissonSampleMeanApproximatesOneOverLambda) {
  const double rate = 200.0;  // 5 msec mean gap
  const size_t n = 20'000;
  const std::vector<double> arrivals =
      GenerateArrivalTimes(Spec(ArrivalKind::kPoisson, rate), n);
  ExpectNonDecreasing(arrivals);
  const double mean_gap =
      arrivals.back() / static_cast<double>(n - 1);  // arrivals[0] == 0
  EXPECT_NEAR(mean_gap, 5.0, 0.15);  // 3% tolerance at 20k samples
  // Exponential gaps: about 1 - 1/e of them fall below the mean.
  size_t below = 0;
  for (size_t i = 1; i < n; ++i) {
    if (arrivals[i] - arrivals[i - 1] < 5.0) ++below;
  }
  const double frac_below = static_cast<double>(below) / (n - 1);
  EXPECT_NEAR(frac_below, 0.632, 0.02);
}

TEST(ArrivalProcessTest, InfiniteRateCollapsesToSimultaneousArrivals) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> arrivals =
      GenerateArrivalTimes(Spec(ArrivalKind::kPoisson, inf), 64);
  for (const double t : arrivals) EXPECT_EQ(t, 0.0);
}

TEST(ArrivalProcessTest, ClosedKindGeneratesAllZeros) {
  const std::vector<double> arrivals =
      GenerateArrivalTimes(ArrivalSpec{}, 16);
  for (const double t : arrivals) EXPECT_EQ(t, 0.0);
  EXPECT_TRUE(GenerateArrivalTimes(Spec(ArrivalKind::kPoisson, 10.0), 0)
                  .empty());
}

}  // namespace
}  // namespace nipo
