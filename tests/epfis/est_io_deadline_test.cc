// EstIoOptions::{cancel, deadline} on EstimateBatch: expired budgets shed
// unprocessed probes with kRejected provenance instead of failing (or
// indefinitely extending) the batch, and the unguarded default stays
// bit-identical to a guarded batch whose budget never ran out.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog_snapshot.h"
#include "epfis/est_io.h"
#include "obs/metrics.h"
#include "util/cancel.h"

namespace epfis {
namespace {

IndexStats MakeStats(const std::string& name, uint64_t pages) {
  IndexStats stats;
  stats.index_name = name;
  stats.table_pages = pages;
  stats.table_records = pages * 40;
  stats.distinct_keys = pages * 2;
  stats.pages_accessed = pages;
  stats.b_min = 12;
  stats.b_max = pages;
  stats.f_min = static_cast<double>(pages) * 1.2;
  stats.clustering = 0.5;
  stats.fpf =
      PiecewiseLinear::FromKnots({{12, static_cast<double>(pages) * 30},
                                  {static_cast<double>(pages),
                                   static_cast<double>(pages) * 1.2}})
          .value();
  return stats;
}

std::shared_ptr<const CatalogSnapshot> MakeSnapshot() {
  std::map<std::string, IndexStats> entries;
  entries.emplace("ix.key", MakeStats("ix.key", 1000));
  return CatalogSnapshot::Build(std::move(entries), {}, 1);
}

std::vector<BatchProbe> MakeProbes(const CatalogSnapshot& snapshot,
                                   size_t n) {
  CatalogSnapshot::Handle handle = snapshot.Resolve("ix.key");
  EXPECT_TRUE(handle.valid());
  const IndexStatsView& view = snapshot.ViewAt(handle);
  TableShape shape{view.table_pages, view.table_records};
  std::vector<BatchProbe> probes;
  for (size_t i = 0; i < n; ++i) {
    probes.push_back(BatchProbe{handle, {0.2, 1.0, 64 + i}, shape});
  }
  return probes;
}

TEST(EstIoDeadlineTest, ExpiredDeadlineShedsEveryProbeAsRejected) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  std::vector<BatchProbe> probes = MakeProbes(*snapshot, 16);
  std::vector<CatalogEstimate> results(probes.size());

  EstIoOptions options;
  options.deadline = Deadline::AfterMillis(0);  // Already expired.
  ASSERT_TRUE(
      EstIo::EstimateBatch(*snapshot, probes, results, options).ok());
  for (size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE("probe " + std::to_string(i));
    EXPECT_EQ(results[i].source, EstimateSource::kRejected);
    EXPECT_EQ(results[i].fetches, 0.0);
    EXPECT_EQ(results[i].stats_status.code(),
              StatusCode::kDeadlineExceeded);
  }
}

TEST(EstIoDeadlineTest, FiredTokenShedsWithCancelledProvenance) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  std::vector<BatchProbe> probes = MakeProbes(*snapshot, 8);
  std::vector<CatalogEstimate> results(probes.size());

  CancellationToken token = CancellationToken::Create();
  token.Cancel();
  EstIoOptions options;
  options.cancel = token;
  ASSERT_TRUE(
      EstIo::EstimateBatch(*snapshot, probes, results, options).ok());
  for (const CatalogEstimate& r : results) {
    EXPECT_EQ(r.source, EstimateSource::kRejected);
    EXPECT_EQ(r.stats_status.code(), StatusCode::kCancelled);
  }
}

TEST(EstIoDeadlineTest, GenerousBudgetIsBitIdenticalToUnguarded) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  std::vector<BatchProbe> probes = MakeProbes(*snapshot, 32);

  std::vector<CatalogEstimate> unguarded(probes.size());
  ASSERT_TRUE(EstIo::EstimateBatch(*snapshot, probes, unguarded).ok());

  EstIoOptions options;
  options.cancel = CancellationToken::Create();  // Live but never fired.
  options.deadline = Deadline::After(std::chrono::hours(1));
  std::vector<CatalogEstimate> guarded(probes.size());
  ASSERT_TRUE(
      EstIo::EstimateBatch(*snapshot, probes, guarded, options).ok());

  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(guarded[i].source, EstimateSource::kLruFitCurve);
    EXPECT_EQ(guarded[i].fetches, unguarded[i].fetches);  // Exact.
  }
}

// Probes are estimated in probe order, so whatever a mid-batch expiry
// sheds is a suffix: every probe before the first shed one was served.
TEST(EstIoDeadlineTest, ShedProbesFormASuffix) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  std::vector<BatchProbe> probes = MakeProbes(*snapshot, 200000);
  std::vector<CatalogEstimate> results(probes.size());

  EstIoOptions options;
  options.deadline = Deadline::After(std::chrono::microseconds(200));
  uint64_t shed_before =
      MetricsRegistry::Global().Snapshot().counters["est_io.deadline_shed"];
  ASSERT_TRUE(
      EstIo::EstimateBatch(*snapshot, probes, results, options).ok());
  uint64_t shed_counted =
      MetricsRegistry::Global().Snapshot().counters["est_io.deadline_shed"] -
      shed_before;

  size_t first_shed = 0;
  while (first_shed < results.size() &&
         results[first_shed].source == EstimateSource::kLruFitCurve) {
    ++first_shed;
  }
  for (size_t i = first_shed; i < results.size(); ++i) {
    ASSERT_EQ(results[i].source, EstimateSource::kRejected) << "probe " << i;
    ASSERT_EQ(results[i].stats_status.code(),
              StatusCode::kDeadlineExceeded)
        << "probe " << i;
  }
#if EPFIS_METRICS_ENABLED
  EXPECT_EQ(shed_counted, results.size() - first_shed);
#else
  (void)shed_counted;
#endif
}

TEST(EstIoDeadlineTest, SingleProbeEntryPointsIgnoreTheBudget) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  EstIoOptions options;
  options.deadline = Deadline::AfterMillis(0);

  CatalogSnapshot::Handle handle = snapshot->Resolve("ix.key");
  const IndexStatsView& view = snapshot->ViewAt(handle);
  TableShape shape{view.table_pages, view.table_records};
  auto est = EstIo::EstimateFromCatalog(*snapshot, "ix.key",
                                        {0.2, 1.0, 64}, shape, options);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->source, EstimateSource::kLruFitCurve);
}

}  // namespace
}  // namespace epfis
