#include "epfis/index_stats.h"

#include <algorithm>

#include "util/formulas.h"

namespace epfis {

double FullScanFetchesAt(const IndexStatsView& view, double buffer_size) {
  if (view.knots == nullptr || view.knot_count < 2) return 0.0;
  const Knot* first = view.knots;
  const Knot* last = view.knots + view.knot_count - 1;
  // The segments are a fit of measured F(B) samples and carry no
  // information outside the simulated knot range; extrapolating a steep
  // first or last segment can leave [A, N] entirely (below the first knot
  // it can even go negative before the value clamp catches it, and the
  // [A, N] clamp alone still breaks monotonicity in B). F(B) is
  // non-increasing, so the nearest boundary value is the tightest
  // defensible answer for an out-of-range query.
  double b = std::clamp(buffer_size, first->x, last->x);
  // Containing segment by binary search; b is in range, so the segment
  // index needs no extrapolation branches, matching
  // PiecewiseLinear::Eval's interior arithmetic exactly.
  size_t hi = 1;
  if (b >= last->x) {
    hi = view.knot_count - 1;
  } else if (b > first->x) {
    hi = static_cast<size_t>(
        std::upper_bound(first, last + 1, b,
                         [](double v, const Knot& k) { return v < k.x; }) -
        first);
    hi = std::min<size_t>(hi, view.knot_count - 1);
  }
  const Knot& a = view.knots[hi - 1];
  const Knot& c = view.knots[hi];
  double slope = (c.y - a.y) / (c.x - a.x);
  double pf = a.y + slope * (b - a.x);
  // A full scan fetches at least every accessed page once and never more
  // than once per index entry; the fit must respect that too.
  double lo = static_cast<double>(view.pages_accessed);
  double hi_bound = static_cast<double>(view.table_records);
  if (hi_bound < lo) hi_bound = lo;
  return std::clamp(pf, lo, hi_bound);
}

namespace {

// Everything View() borrows except the Cardenas constant.
IndexStatsView CurveView(const IndexStats& stats) {
  IndexStatsView view;
  view.table_pages = stats.table_pages;
  view.table_records = stats.table_records;
  view.pages_accessed = stats.pages_accessed;
  view.clustering = stats.clustering;
  if (stats.fpf.has_value()) {
    view.knots = stats.fpf->knots().data();
    view.knot_count = static_cast<uint32_t>(stats.fpf->knots().size());
  }
  return view;
}

}  // namespace

IndexStatsView IndexStats::View() const {
  IndexStatsView view = CurveView(*this);
  view.cardenas_log_q = CardenasLogQ(static_cast<double>(table_pages));
  return view;
}

double IndexStats::FullScanFetches(double buffer_size) const {
  return FullScanFetchesAt(CurveView(*this), buffer_size);
}

}  // namespace epfis
