#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog_fixtures.h"
#include "catalog/stats_catalog.h"
#include "epfis/est_io.h"
#include "epfis/lru_fit.h"
#include "obs/metrics.h"
#include "util/fault.h"
#include "util/formulas.h"

namespace epfis {
namespace {

class EstIoDegradedTest : public testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().DisarmAll();
    // A real catalog entry from a real LRU-Fit run.
    std::vector<PageId> trace(8000);
    for (size_t i = 0; i < trace.size(); ++i) {
      trace[i] = static_cast<PageId>((i * 17) % 150);
    }
    auto stats = RunLruFit(trace, 150, 50, "ix_good");
    ASSERT_TRUE(stats.ok());
    catalog_.Put(std::move(*stats));

    scan_.sigma = 0.1;
    scan_.sargable_selectivity = 0.5;
    scan_.buffer_pages = 64;
    shape_.table_pages = 150;
    shape_.table_records = 8000;
  }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }

  uint64_t DegradedCount() {
    return MetricsRegistry::Global()
        .Snapshot()
        .counters["est_io.degraded"];
  }

  StatsCatalog catalog_;
  ScanSpec scan_;
  TableShape shape_;
};

TEST_F(EstIoDegradedTest, TrustedStatsUseTheFullModel) {
  auto est = EstIo::EstimateFromCatalog(catalog_, "ix_good", scan_, shape_);
  ASSERT_TRUE(est.ok()) << est.status().message();
  EXPECT_EQ(est->source, EstimateSource::kLruFitCurve);
  EXPECT_TRUE(est->stats_status.ok());
  // Identical to the direct validated estimate.
  auto direct = EstIo::Estimate(*catalog_.Get("ix_good"), scan_);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(est->fetches, *direct);
}

TEST_F(EstIoDegradedTest, MissingStatsFallBackToYao) {
  uint64_t before = DegradedCount();
  auto est = EstIo::EstimateFromCatalog(catalog_, "ix_missing", scan_,
                                        shape_);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->source, EstimateSource::kFormulaFallback);
  EXPECT_EQ(est->stats_status.code(), StatusCode::kNotFound);
  double k = scan_.sigma * scan_.sargable_selectivity *
             static_cast<double>(shape_.table_records);
  EXPECT_DOUBLE_EQ(est->fetches,
                   YaoPages(static_cast<double>(shape_.table_records),
                            static_cast<double>(shape_.table_pages), k));
  EXPECT_EQ(DegradedCount(), before + 1);
}

TEST_F(EstIoDegradedTest, QuarantinedStatsFallBackWithCorruption) {
  // Quarantine the entry by recovering a tampered serialization.
  std::string text = V2CatalogText(catalog_);
  size_t at = text.find("table_pages=");
  ASSERT_NE(at, std::string::npos);
  text[at + 12] ^= 0x01;
  StatsCatalog recovered;
  ASSERT_TRUE(recovered.RecoverFromString(text).ok());
  ASSERT_TRUE(recovered.IsQuarantined("ix_good"));

  auto est = EstIo::EstimateFromCatalog(recovered, "ix_good", scan_, shape_);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->source, EstimateSource::kFormulaFallback);
  EXPECT_EQ(est->stats_status.code(), StatusCode::kCorruption);
  EXPECT_GT(est->fetches, 0.0);
}

TEST_F(EstIoDegradedTest, DegradedEstimateRespectsQualifyingBound) {
  auto est = EstIo::EstimateFromCatalog(catalog_, "ix_missing", scan_,
                                        shape_);
  ASSERT_TRUE(est.ok());
  double k = scan_.sigma * scan_.sargable_selectivity *
             static_cast<double>(shape_.table_records);
  EXPECT_GE(est->fetches, 0.0);
  EXPECT_LE(est->fetches, k);
}

TEST_F(EstIoDegradedTest, UnknownShapeFallsBackToRecordBound) {
  TableShape unknown;  // Neither pages nor records known.
  auto est = EstIo::EstimateFromCatalog(catalog_, "ix_missing", scan_,
                                        unknown);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->fetches, 0.0);  // k = 0 with no record count.

  TableShape records_only;
  records_only.table_records = 1000;
  auto est2 = EstIo::EstimateFromCatalog(catalog_, "ix_missing", scan_,
                                         records_only);
  ASSERT_TRUE(est2.ok());
  double k = scan_.sigma * scan_.sargable_selectivity * 1000.0;
  EXPECT_DOUBLE_EQ(est2->fetches, k);  // Records is the only bound.
}

TEST_F(EstIoDegradedTest, InjectedLookupFaultTriggersDegradedMode) {
  FaultSpec spec;
  spec.code = StatusCode::kCorruption;
  spec.max_fires = 1;
  FaultInjector::Global().Arm("est_io.lookup", spec);
  auto est = EstIo::EstimateFromCatalog(catalog_, "ix_good", scan_, shape_);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->source, EstimateSource::kFormulaFallback);
  // Clean retry goes back to the full model.
  auto est2 = EstIo::EstimateFromCatalog(catalog_, "ix_good", scan_, shape_);
  ASSERT_TRUE(est2.ok());
  EXPECT_EQ(est2->source, EstimateSource::kLruFitCurve);
}

TEST_F(EstIoDegradedTest, NonDegradableErrorsPropagate) {
  FaultSpec spec;
  spec.code = StatusCode::kInternal;
  spec.max_fires = 1;
  FaultInjector::Global().Arm("est_io.lookup", spec);
  auto est = EstIo::EstimateFromCatalog(catalog_, "ix_good", scan_, shape_);
  EXPECT_EQ(est.status().code(), StatusCode::kInternal);
}

TEST_F(EstIoDegradedTest, ScanValidationStillApplies) {
  ScanSpec bad = scan_;
  bad.sigma = 1.5;
  EXPECT_EQ(EstIo::EstimateFromCatalog(catalog_, "ix_missing", bad, shape_)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  bad = scan_;
  bad.buffer_pages = 0;
  EXPECT_EQ(EstIo::EstimateFromCatalog(catalog_, "ix_good", bad, shape_)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace epfis
