#ifndef EPFIS_UTIL_FORMULAS_H_
#define EPFIS_UTIL_FORMULAS_H_

#include <cmath>

namespace epfis {

/// Classical page-access formulas from the estimation literature (used both
/// by Algorithm EPFIS's correction term and by the baseline estimators).

/// Cardenas (1975): expected number of distinct pages touched when k records
/// are drawn uniformly *with replacement* over T pages:
///   T * (1 - (1 - 1/T)^k).
/// Returns 0 when T <= 0 or k <= 0. Both arguments may be fractional (the
/// optimizer works with expected values).
double CardenasPages(double pages, double k);

/// The per-table constant of the Cardenas term, log(1 - 1/T) evaluated as
/// log1p(-1/T): -inf at T = 1, and 0 for T <= 0, where the term is 0
/// anyway. Callers that evaluate Cardenas for many k over one T compute it
/// once and use the three-argument form below.
double CardenasLogQ(double pages);

/// CardenasPages with log1p(-1/T) supplied by the caller; bit-identical to
/// the two-argument form when `log_q == CardenasLogQ(pages)`, including the
/// T <= 0 || k <= 0 -> 0 guard.
inline double CardenasPages(double pages, double k, double log_q) {
  if (pages <= 0.0 || k <= 0.0) return 0.0;
  return pages * -std::expm1(k * log_q);
}

/// Yao (1977): expected number of distinct pages touched when k records are
/// selected uniformly *without replacement* from n records stored n/T per
/// page on T pages. Returns min(T, k) degenerate bounds outside the model's
/// domain. Computed with the numerically stable product form.
double YaoPages(double n, double pages, double k);

/// Waters (1976) hit-ratio approximation: the expected fraction of the k
/// requested records that land on already-touched pages, derived from
/// Cardenas's estimate (1 - pages_touched / k). Clamped to [0, 1].
double WatersHitRatio(double pages, double k);

/// Clamps v into [lo, hi].
double Clamp(double v, double lo, double hi);

}  // namespace epfis

#endif  // EPFIS_UTIL_FORMULAS_H_
