#ifndef EPFIS_UTIL_ZIPF_H_
#define EPFIS_UTIL_ZIPF_H_

#include <cstdint>
#include <vector>

#include "util/random.h"
#include "util/result.h"

namespace epfis {

/// Generalized Zipf distribution over ranks 1..n with parameter theta
/// (Knuth 1973 vol. 3; the parameterization popularized by Gray et al.):
/// P(rank i) proportional to (1/i)^theta. theta = 0 yields the uniform
/// distribution; theta ~= 0.86 yields the "80-20" rule the paper uses to
/// model skewed duplicate counts.
class ZipfDistribution {
 public:
  /// Creates a distribution over ranks 1..n. Fails if n == 0, n > 2^32 or
  /// theta < 0.
  static Result<ZipfDistribution> Make(uint64_t n, double theta);

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

  /// cdf()[i] = P(rank <= i+1); nondecreasing, size n, cdf().back() == 1.
  const std::vector<double>& cdf() const { return cdf_; }

  /// Probability mass of rank i (1-based). Precondition: 1 <= i <= n.
  double Pmf(uint64_t i) const;

  /// Samples a rank in [1, n]: RankAt(rng.NextDouble()), so each draw
  /// consumes exactly one NextDouble().
  uint64_t Sample(Rng& rng) const { return RankAt(rng.NextDouble()); }

  /// The inverse CDF: the smallest rank r with P(rank <= r) >= u, i.e.
  /// 1 + lower_bound(cdf, u). Precondition: 0 <= u < 1.
  ///
  /// Indexed search (Chen & Asau 1974): u falls in one of m = bit_ceil(n)
  /// equal buckets, and a guide table narrows the binary search to that
  /// bucket's CDF entries. The ranges partition at most n entries over m
  /// equally likely buckets, so a draw searches under n/m <= 1 entry on
  /// average: O(1) expected time instead of a log2(n)-step search over the
  /// whole CDF. The answer is the global lower_bound for every u, bit for
  /// bit (see zipf.cc), so traces drawn with and without the table are
  /// identical.
  uint64_t RankAt(double u) const;

  /// Apportions `total` items over the n ranks proportionally to the pmf,
  /// guaranteeing every rank receives at least one item when total >= n
  /// (the paper's datasets have every distinct key present). Uses
  /// largest-remainder rounding so the counts sum to exactly `total`.
  std::vector<uint64_t> ApportionCounts(uint64_t total) const;

 private:
  ZipfDistribution(uint64_t n, double theta, std::vector<double> cdf,
                   std::vector<uint32_t> guide);

  uint64_t n_;
  double theta_;
  std::vector<double> cdf_;
  // guide_[j] = first i with cdf_[i] >= j / m for j in [0, m], where
  // m = guide_.size() - 1 is the power of two bit_ceil(n).
  std::vector<uint32_t> guide_;
};

}  // namespace epfis

#endif  // EPFIS_UTIL_ZIPF_H_
