#include "util/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

namespace epfis {
namespace {

TEST(ZipfTest, RejectsBadArguments) {
  EXPECT_FALSE(ZipfDistribution::Make(0, 0.5).ok());
  EXPECT_FALSE(ZipfDistribution::Make(10, -1.0).ok());
  EXPECT_FALSE(ZipfDistribution::Make((uint64_t{1} << 32) + 1, 0.5).ok());
}

// The reference inverse CDF: 1 + the first index with cdf >= u over the
// whole CDF, the search Sample ran before it had a guide table.
uint64_t GlobalRank(const ZipfDistribution& zipf, double u) {
  const std::vector<double>& cdf = zipf.cdf();
  return static_cast<uint64_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                               cdf.begin()) +
         1;
}

// Checks RankAt against GlobalRank at u and at its two neighbouring
// doubles, skipping any outside RankAt's domain [0, 1).
void ExpectRankAtMatchesAround(const ZipfDistribution& zipf, double u) {
  for (double v : {std::nextafter(u, -1.0), u, std::nextafter(u, 2.0)}) {
    if (v < 0.0 || v >= 1.0) continue;
    ASSERT_EQ(zipf.RankAt(v), GlobalRank(zipf, v))
        << "n=" << zipf.n() << " theta=" << zipf.theta() << " u=" << v;
  }
}

// RankAt is exactly the global lower_bound: at the ends of [0, 1), at
// every CDF value (where lower_bound switches ranks) and every guide
// bucket boundary j/m, each with its neighbouring doubles, and at 10^6
// random points. The sizes straddle powers of two, where m = bit_ceil(n)
// changes.
TEST(ZipfTest, RankAtEqualsGlobalLowerBound) {
  const double below_one = std::nextafter(1.0, 0.0);
  for (uint64_t n : {1, 2, 3, 1000, 4095, 4096, 4097}) {
    for (double theta : {0.0, 0.86, 1.5}) {
      auto zipf = ZipfDistribution::Make(n, theta);
      ASSERT_TRUE(zipf.ok());
      EXPECT_EQ(zipf->RankAt(0.0), 1u);
      EXPECT_EQ(zipf->RankAt(below_one), GlobalRank(*zipf, below_one));
      for (double c : zipf->cdf()) ExpectRankAtMatchesAround(*zipf, c);
      const uint64_t m = std::bit_ceil(n);
      for (uint64_t j = 0; j <= m; ++j) {
        ExpectRankAtMatchesAround(
            *zipf, static_cast<double>(j) / static_cast<double>(m));
      }
      Rng rng(n * 31 + static_cast<uint64_t>(theta * 100));
      for (int i = 0; i < 1'000'000 / 3; ++i) {
        double u = rng.NextDouble();
        ASSERT_EQ(zipf->RankAt(u), GlobalRank(*zipf, u))
            << "n=" << n << " theta=" << theta << " u=" << u;
      }
    }
  }
}

// Every trace in the project descends from Sample, so its output is
// pinned bit for bit: an FNV-1a hash of the first 10^6 ranks drawn from
// Rng(42). The values were recorded from the plain full-CDF binary search
// before the guide table existed; any change to the sampler, the CDF
// arithmetic or the Rng shows up here first.
TEST(ZipfTest, SampleStreamIsPinned) {
  const struct {
    uint64_t n;
    double theta;
    uint64_t hash;
  } kGolden[] = {
      {1, 0.0, 0x02872687f8853a65ULL},
      {1, 0.86, 0x02872687f8853a65ULL},
      {1, 1.5, 0x02872687f8853a65ULL},
      {20000, 0.0, 0x6ffa420a594ad2aeULL},
      {20000, 0.86, 0xb610f6a221b5a2d3ULL},
      {20000, 1.5, 0xb51df64f436a688aULL},
      {200000, 0.0, 0xf71b728b8964e3c1ULL},
      {200000, 0.86, 0x838795551f166bcaULL},
      {200000, 1.5, 0xd0bf6671205b5fdcULL},
  };
  for (const auto& golden : kGolden) {
    auto zipf = ZipfDistribution::Make(golden.n, golden.theta);
    ASSERT_TRUE(zipf.ok());
    Rng rng(42);
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (int i = 0; i < 1'000'000; ++i) {
      hash ^= zipf->Sample(rng);
      hash *= 0x100000001b3ULL;
    }
    EXPECT_EQ(hash, golden.hash)
        << "n=" << golden.n << " theta=" << golden.theta;
  }
}

// Sample draws exactly one NextDouble per rank.
TEST(ZipfTest, SampleIsRankAtOfOneDouble) {
  auto zipf = ZipfDistribution::Make(777, 0.86);
  ASSERT_TRUE(zipf.ok());
  Rng sampled(5);
  Rng raw(5);
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(zipf->Sample(sampled), zipf->RankAt(raw.NextDouble()));
  }
}

TEST(ZipfTest, ThetaZeroIsUniform) {
  auto zipf = ZipfDistribution::Make(100, 0.0);
  ASSERT_TRUE(zipf.ok());
  for (uint64_t i = 1; i <= 100; ++i) {
    EXPECT_NEAR(zipf->Pmf(i), 0.01, 1e-12);
  }
}

TEST(ZipfTest, PmfSumsToOne) {
  for (double theta : {0.0, 0.5, 0.86, 1.0}) {
    auto zipf = ZipfDistribution::Make(500, theta);
    ASSERT_TRUE(zipf.ok());
    double sum = 0.0;
    for (uint64_t i = 1; i <= 500; ++i) sum += zipf->Pmf(i);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "theta " << theta;
  }
}

TEST(ZipfTest, PmfDecreasesWithRank) {
  auto zipf = ZipfDistribution::Make(50, 0.86);
  ASSERT_TRUE(zipf.ok());
  for (uint64_t i = 2; i <= 50; ++i) {
    EXPECT_GE(zipf->Pmf(i - 1), zipf->Pmf(i));
  }
}

TEST(ZipfTest, EightyTwentyShape) {
  // theta ~= 0.86 should put roughly 80% of the mass on the top ~20% of
  // ranks (the "80-20 rule" the paper invokes).
  auto zipf = ZipfDistribution::Make(1000, 0.86);
  ASSERT_TRUE(zipf.ok());
  double top20 = 0.0;
  for (uint64_t i = 1; i <= 200; ++i) top20 += zipf->Pmf(i);
  EXPECT_GT(top20, 0.65);
  EXPECT_LT(top20, 0.90);
}

TEST(ZipfTest, SampleRespectsDistribution) {
  auto zipf = ZipfDistribution::Make(10, 0.86);
  ASSERT_TRUE(zipf.ok());
  Rng rng(3);
  std::vector<int> counts(11, 0);
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t rank = zipf->Sample(rng);
    ASSERT_GE(rank, 1u);
    ASSERT_LE(rank, 10u);
    counts[rank]++;
  }
  for (uint64_t i = 1; i <= 10; ++i) {
    double expected = zipf->Pmf(i) * kDraws;
    EXPECT_NEAR(counts[i], expected, 0.15 * expected + 30)
        << "rank " << i;
  }
}

TEST(ZipfTest, ApportionCountsSumAndMinimum) {
  for (double theta : {0.0, 0.86}) {
    auto zipf = ZipfDistribution::Make(1000, theta);
    ASSERT_TRUE(zipf.ok());
    std::vector<uint64_t> counts = zipf->ApportionCounts(123457);
    ASSERT_EQ(counts.size(), 1000u);
    uint64_t total = std::accumulate(counts.begin(), counts.end(), 0ULL);
    EXPECT_EQ(total, 123457u);
    for (uint64_t c : counts) EXPECT_GE(c, 1u);
  }
}

TEST(ZipfTest, ApportionUniformIsBalanced) {
  auto zipf = ZipfDistribution::Make(10, 0.0);
  ASSERT_TRUE(zipf.ok());
  std::vector<uint64_t> counts = zipf->ApportionCounts(100);
  for (uint64_t c : counts) EXPECT_EQ(c, 10u);
}

TEST(ZipfTest, ApportionSkewedIsMonotoneInRank) {
  auto zipf = ZipfDistribution::Make(20, 0.86);
  ASSERT_TRUE(zipf.ok());
  std::vector<uint64_t> counts = zipf->ApportionCounts(10000);
  // Rank 1 gets the most; allow equal neighbors from rounding.
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_GE(counts[i - 1] + 1, counts[i]);
  }
  EXPECT_GT(counts.front(), counts.back());
}

TEST(ZipfTest, ApportionFewerItemsThanRanks) {
  auto zipf = ZipfDistribution::Make(10, 0.0);
  ASSERT_TRUE(zipf.ok());
  std::vector<uint64_t> counts = zipf->ApportionCounts(4);
  uint64_t total = std::accumulate(counts.begin(), counts.end(), 0ULL);
  EXPECT_EQ(total, 4u);
}

}  // namespace
}  // namespace epfis
