#include "util/formulas.h"

#include <algorithm>
#include <cmath>

namespace epfis {

double CardenasPages(double pages, double k) {
  // Compute via expm1/log1p for accuracy when pages is large:
  // T * (1 - exp(k * log(1 - 1/T))).
  return CardenasPages(pages, k, CardenasLogQ(pages));
}

double CardenasLogQ(double pages) {
  return pages > 0.0 ? std::log1p(-1.0 / pages) : 0.0;
}

double YaoPages(double n, double pages, double k) {
  if (pages <= 0.0 || k <= 0.0 || n <= 0.0) return 0.0;
  if (k >= n) return pages;
  double per_page = n / pages;
  if (per_page <= 1.0) return std::min(k, pages);
  // P(a given page untouched) = prod_{i=0}^{k-1} (n - per_page - i) / (n - i)
  double log_p = 0.0;
  long long kk = static_cast<long long>(k);
  for (long long i = 0; i < kk; ++i) {
    double num = n - per_page - static_cast<double>(i);
    double den = n - static_cast<double>(i);
    if (num <= 0.0) return pages;  // Every page is certainly touched.
    log_p += std::log(num / den);
  }
  return pages * (1.0 - std::exp(log_p));
}

double WatersHitRatio(double pages, double k) {
  if (k <= 0.0) return 0.0;
  double touched = CardenasPages(pages, k);
  return Clamp(1.0 - touched / k, 0.0, 1.0);
}

double Clamp(double v, double lo, double hi) {
  return std::max(lo, std::min(hi, v));
}

}  // namespace epfis
