#include "util/zipf.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

namespace epfis {

Result<ZipfDistribution> ZipfDistribution::Make(uint64_t n, double theta) {
  if (n == 0) {
    return Status::InvalidArgument("ZipfDistribution: n must be positive");
  }
  if (n > (uint64_t{1} << 32)) {
    return Status::InvalidArgument("ZipfDistribution: n must be at most 2^32");
  }
  if (theta < 0.0 || !std::isfinite(theta)) {
    return Status::InvalidArgument(
        "ZipfDistribution: theta must be finite and non-negative");
  }
  std::vector<double> cdf(n);
  double acc = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    acc += std::pow(1.0 / static_cast<double>(i), theta);
    cdf[i - 1] = acc;
  }
  for (double& c : cdf) c /= acc;
  cdf[n - 1] = 1.0;  // Guard against rounding.

  // Guide table in one merge pass over the sorted CDF and the bucket
  // boundaries j/m. m is a power of two, so every j/m is exact; the scan
  // stops by index n-1 at the latest because cdf[n-1] == 1 >= j/m.
  const uint64_t m = std::bit_ceil(n);
  const double inv_m = 1.0 / static_cast<double>(m);
  std::vector<uint32_t> guide(m + 1);
  uint64_t i = 0;
  for (uint64_t j = 0; j <= m; ++j) {
    const double boundary = static_cast<double>(j) * inv_m;
    while (cdf[i] < boundary) ++i;
    guide[j] = static_cast<uint32_t>(i);
  }
  return ZipfDistribution(n, theta, std::move(cdf), std::move(guide));
}

ZipfDistribution::ZipfDistribution(uint64_t n, double theta,
                                   std::vector<double> cdf,
                                   std::vector<uint32_t> guide)
    : n_(n), theta_(theta), cdf_(std::move(cdf)), guide_(std::move(guide)) {}

double ZipfDistribution::Pmf(uint64_t i) const {
  double prev = (i >= 2) ? cdf_[i - 2] : 0.0;
  return cdf_[i - 1] - prev;
}

uint64_t ZipfDistribution::RankAt(double u) const {
  // u * m is exact (m is a power of two), so j/m <= u < (j+1)/m. Every
  // CDF entry before guide_[j] is < j/m <= u, and cdf_[guide_[j+1]] >=
  // (j+1)/m > u, so the global lower_bound lies in [guide_[j],
  // guide_[j+1]]; searching the half-open range returns guide_[j+1]
  // itself when no earlier entry qualifies.
  const uint64_t j =
      static_cast<uint64_t>(u * static_cast<double>(guide_.size() - 1));
  auto it = std::lower_bound(cdf_.begin() + guide_[j],
                             cdf_.begin() + guide_[j + 1], u);
  return static_cast<uint64_t>(it - cdf_.begin()) + 1;
}

std::vector<uint64_t> ZipfDistribution::ApportionCounts(uint64_t total) const {
  std::vector<uint64_t> counts(n_, 0);
  const bool guarantee_min = total >= n_;
  const uint64_t base_each = guarantee_min ? 1 : 0;
  const uint64_t distributable = total - base_each * n_;

  // Largest-remainder (Hamilton) apportionment of the distributable mass.
  std::vector<std::pair<double, uint64_t>> remainders;
  remainders.reserve(n_);
  uint64_t assigned = 0;
  for (uint64_t i = 1; i <= n_; ++i) {
    double exact = Pmf(i) * static_cast<double>(distributable);
    uint64_t floor_part = static_cast<uint64_t>(exact);
    counts[i - 1] = base_each + floor_part;
    assigned += floor_part;
    remainders.emplace_back(exact - static_cast<double>(floor_part), i - 1);
  }
  uint64_t leftover = distributable - assigned;
  std::partial_sort(remainders.begin(),
                    remainders.begin() +
                        std::min<size_t>(leftover, remainders.size()),
                    remainders.end(),
                    [](const auto& a, const auto& b) { return a.first > b.first; });
  for (uint64_t j = 0; j < leftover; ++j) {
    counts[remainders[j].second] += 1;
  }
  return counts;
}

}  // namespace epfis
