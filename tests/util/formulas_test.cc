#include "util/formulas.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace epfis {
namespace {

TEST(CardenasTest, DegenerateInputs) {
  EXPECT_EQ(CardenasPages(0, 10), 0.0);
  EXPECT_EQ(CardenasPages(10, 0), 0.0);
  EXPECT_EQ(CardenasPages(-1, 5), 0.0);
}

TEST(CardenasTest, MatchesClosedForm) {
  // T (1 - (1 - 1/T)^k), small values computed by hand.
  double t = 10, k = 5;
  double expected = t * (1.0 - std::pow(1.0 - 1.0 / t, k));
  EXPECT_NEAR(CardenasPages(t, k), expected, 1e-9);
}

TEST(CardenasTest, OneRecordTouchesOnePage) {
  EXPECT_NEAR(CardenasPages(1000, 1), 1.0, 1e-9);
}

TEST(CardenasTest, ManyRecordsApproachAllPages) {
  EXPECT_NEAR(CardenasPages(100, 100000), 100.0, 1e-6);
}

TEST(CardenasTest, MonotoneInK) {
  double prev = 0.0;
  for (double k = 1; k <= 4096; k *= 2) {
    double v = CardenasPages(500, k);
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(CardenasTest, BoundedByPagesAndRecords) {
  for (double k : {1.0, 10.0, 100.0, 10000.0}) {
    double v = CardenasPages(200, k);
    EXPECT_LE(v, 200.0);
    EXPECT_LE(v, k + 1e-9);
  }
}

TEST(CardenasTest, LargeTNumericallyStable) {
  // 10^9 pages, 1 record: must be ~1, not lost to cancellation.
  EXPECT_NEAR(CardenasPages(1e9, 1), 1.0, 1e-6);
}

TEST(CardenasTest, SuppliedLogQIsBitIdentical) {
  // The three-argument form with CardenasLogQ(T) is how Est-IO evaluates
  // the term; it must reproduce the two-argument form exactly, including
  // T = 1 (log q = -inf) and the T <= 0 || k <= 0 guard.
  EXPECT_EQ(CardenasLogQ(1.0), -INFINITY);
  EXPECT_EQ(CardenasLogQ(0.0), 0.0);
  for (double t : {-1.0, 0.0, 1.0, 2.0, 3.0, 1000.0, 1e9}) {
    for (double k : {-1.0, 0.0, 1e-6, 0.4, 1.0, 7.5, 1e6}) {
      EXPECT_EQ(std::bit_cast<uint64_t>(CardenasPages(t, k)),
                std::bit_cast<uint64_t>(CardenasPages(t, k, CardenasLogQ(t))))
          << "T=" << t << " k=" << k;
    }
  }
}

TEST(YaoTest, DegenerateInputs) {
  EXPECT_EQ(YaoPages(0, 10, 5), 0.0);
  EXPECT_EQ(YaoPages(100, 0, 5), 0.0);
  EXPECT_EQ(YaoPages(100, 10, 0), 0.0);
}

TEST(YaoTest, SelectingAllRecordsTouchesAllPages) {
  EXPECT_NEAR(YaoPages(100, 10, 100), 10.0, 1e-9);
}

TEST(YaoTest, MatchesCombinatorialDefinition) {
  // n=6 records, 2 per page (T=3), select k=2 without replacement.
  // P(page untouched) = C(4,2)/C(6,2) = 6/15 = 0.4 -> 3*(1-0.4) = 1.8.
  EXPECT_NEAR(YaoPages(6, 3, 2), 1.8, 1e-9);
}

TEST(YaoTest, AtMostCardenas) {
  // Without replacement touches at least as many pages per draw; Yao >=
  // Cardenas for the same k (selection without replacement spreads more).
  for (double k : {5.0, 50.0, 200.0}) {
    EXPECT_GE(YaoPages(1000, 100, k) + 1e-9, CardenasPages(100, k));
  }
}

TEST(YaoTest, SinglePerPageIsMinOfKAndT) {
  EXPECT_NEAR(YaoPages(10, 10, 4), 4.0, 1e-9);
  EXPECT_NEAR(YaoPages(10, 10, 15), 10.0, 1e-9);
}

TEST(WatersTest, HitRatioBounds) {
  for (double k : {1.0, 10.0, 1000.0}) {
    double h = WatersHitRatio(100, k);
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0);
  }
  EXPECT_EQ(WatersHitRatio(100, 0), 0.0);
}

TEST(WatersTest, ManyRecordsMostlyHits) {
  EXPECT_GT(WatersHitRatio(10, 10000), 0.99);
}

TEST(ClampTest, Clamps) {
  EXPECT_EQ(Clamp(5, 0, 10), 5);
  EXPECT_EQ(Clamp(-5, 0, 10), 0);
  EXPECT_EQ(Clamp(15, 0, 10), 10);
}

}  // namespace
}  // namespace epfis
