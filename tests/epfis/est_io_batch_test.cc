// EstIo::EstimateBatch: bit-identity with the single-probe entry points,
// probe-order independence, per-probe degradation semantics, and counter
// totals that match the single-probe path.
#include "epfis/est_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog_snapshot.h"
#include "catalog/catalog_v3.h"
#include "catalog/stats_catalog.h"
#include "obs/metrics.h"
#include "util/formulas.h"

namespace epfis {
namespace {

IndexStats MakeStats(const std::string& name, uint64_t pages,
                     double clustering) {
  IndexStats stats;
  stats.index_name = name;
  stats.table_pages = pages;
  stats.table_records = pages * 40;
  stats.distinct_keys = pages * 2;
  stats.pages_accessed = pages;
  stats.b_min = 12;
  stats.b_max = pages;
  stats.f_min = static_cast<double>(pages) * 1.2;
  stats.clustering = clustering;
  stats.fpf =
      PiecewiseLinear::FromKnots({{12, static_cast<double>(pages) * 30},
                                  {static_cast<double>(pages) * 0.1,
                                   static_cast<double>(pages) * 12},
                                  {static_cast<double>(pages) * 0.3,
                                   static_cast<double>(pages) * 4},
                                  {static_cast<double>(pages),
                                   static_cast<double>(pages) * 1.2}})
          .value();
  return stats;
}

std::shared_ptr<const CatalogSnapshot> MakeSnapshot() {
  std::map<std::string, IndexStats> entries;
  entries.emplace("aaa.key", MakeStats("aaa.key", 1000, 0.9));
  entries.emplace("bbb.key", MakeStats("bbb.key", 4000, 0.3));
  entries.emplace("ccc.key", MakeStats("ccc.key", 700, 0.0));
  return CatalogSnapshot::Build(std::move(entries), {}, 1);
}

TableShape ShapeFor(const CatalogSnapshot& snapshot,
                    CatalogSnapshot::Handle handle) {
  const IndexStatsView& view = snapshot.ViewAt(handle);
  return TableShape{view.table_pages, view.table_records};
}

// The core acceptance gate: for every (index, sigma, B) in a sweep, the
// batch result is *exactly* (==, not nearly) the single-probe snapshot
// overload, which is itself exactly EstIo::Estimate on the same stats.
TEST(EstIoBatchTest, BitIdenticalToSingleProbeAcrossSweep) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  const std::vector<double> sigmas = {0.001, 0.01, 0.1, 0.25,
                                      0.5,   0.75, 1.0};
  const std::vector<uint64_t> buffers = {1,   8,    64,   256,
                                         700, 1000, 4000, 100000};

  std::vector<BatchProbe> probes;
  for (const std::string& name : snapshot->IndexNames()) {
    CatalogSnapshot::Handle handle = snapshot->Resolve(name);
    ASSERT_TRUE(handle.valid());
    TableShape shape = ShapeFor(*snapshot, handle);
    for (double sigma : sigmas) {
      for (uint64_t b : buffers) {
        probes.push_back(BatchProbe{handle, {sigma, 1.0, b}, shape});
        probes.push_back(BatchProbe{handle, {sigma, 0.2, b}, shape});
      }
    }
  }
  std::vector<CatalogEstimate> results(probes.size());
  ASSERT_TRUE(EstIo::EstimateBatch(*snapshot, probes, results).ok());

  std::vector<std::string> names = snapshot->IndexNames();
  for (size_t i = 0; i < probes.size(); ++i) {
    const BatchProbe& probe = probes[i];
    SCOPED_TRACE("probe " + std::to_string(i));
    EXPECT_EQ(results[i].source, EstimateSource::kLruFitCurve);

    const std::string& name = names[probe.index.slot];
    auto single = EstIo::EstimateFromCatalog(*snapshot, name, probe.scan,
                                             probe.shape);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(results[i].fetches, single->fetches);  // Exact, not NEAR.

    IndexStats materialized = snapshot->Get(name).value();
    auto direct = EstIo::Estimate(materialized, probe.scan);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(results[i].fetches, *direct);
  }
}

TEST(EstIoBatchTest, ProbeOrderDoesNotChangeResults) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  std::vector<BatchProbe> grouped;
  for (const std::string& name : snapshot->IndexNames()) {
    CatalogSnapshot::Handle handle = snapshot->Resolve(name);
    TableShape shape = ShapeFor(*snapshot, handle);
    for (uint64_t b : {16u, 128u, 512u}) {
      grouped.push_back(BatchProbe{handle, {0.3, 0.7, b}, shape});
    }
  }
  // Probes are estimated in the order given, so an interleaved order
  // (slots 0,1,2,0,1,2,...) walks the entries differently from the
  // grouped one. Each result must still be the single-probe answer for
  // its own probe, position for position.
  std::vector<BatchProbe> interleaved;
  for (size_t j = 0; j < 3; ++j) {
    for (size_t g = j; g < grouped.size(); g += 3) {
      interleaved.push_back(grouped[g]);
    }
  }
  ASSERT_EQ(interleaved.size(), grouped.size());

  std::vector<CatalogEstimate> grouped_results(grouped.size());
  std::vector<CatalogEstimate> interleaved_results(interleaved.size());
  ASSERT_TRUE(
      EstIo::EstimateBatch(*snapshot, grouped, grouped_results).ok());
  ASSERT_TRUE(
      EstIo::EstimateBatch(*snapshot, interleaved, interleaved_results)
          .ok());

  for (size_t i = 0; i < interleaved.size(); ++i) {
    auto single = EstIo::EstimateFromCatalog(
        *snapshot,
        snapshot->IndexNames()[interleaved[i].index.slot],
        interleaved[i].scan, interleaved[i].shape);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(interleaved_results[i].fetches, single->fetches);
  }
}

TEST(EstIoBatchTest, RejectedProbeDoesNotAffectNeighbors) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  CatalogSnapshot::Handle handle = snapshot->Resolve("aaa.key");
  TableShape shape = ShapeFor(*snapshot, handle);

  ScanSpec good{0.4, 1.0, 300};
  std::vector<BatchProbe> probes = {
      BatchProbe{handle, good, shape},
      BatchProbe{handle, {2.5, 1.0, 300}, shape},   // sigma out of range
      BatchProbe{handle, {0.4, 0.0, 300}, shape},   // sargable = 0
      BatchProbe{handle, {0.4, 1.0, 0}, shape},     // B = 0
      BatchProbe{handle, good, shape},
  };
  std::vector<CatalogEstimate> results(probes.size());
  ASSERT_TRUE(EstIo::EstimateBatch(*snapshot, probes, results).ok());

  for (size_t i : {1u, 2u, 3u}) {
    SCOPED_TRACE("probe " + std::to_string(i));
    EXPECT_EQ(results[i].source, EstimateSource::kRejected);
    EXPECT_EQ(results[i].fetches, 0.0);
    EXPECT_EQ(results[i].stats_status.code(),
              StatusCode::kInvalidArgument);
  }
  auto single =
      EstIo::EstimateFromCatalog(*snapshot, "aaa.key", good, shape);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(results[0].fetches, single->fetches);
  EXPECT_EQ(results[4].fetches, single->fetches);
  EXPECT_EQ(results[0].source, EstimateSource::kLruFitCurve);
  EXPECT_EQ(results[4].source, EstimateSource::kLruFitCurve);
}

TEST(EstIoBatchTest, InvalidHandleDegradesToFormulaFallback) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  CatalogSnapshot::Handle miss = snapshot->Resolve("no-such-index");
  ASSERT_FALSE(miss.valid());
  TableShape shape{1000, 40000};

  std::vector<BatchProbe> probes = {
      BatchProbe{miss, {0.1, 1.0, 200}, shape}};
  std::vector<CatalogEstimate> results(1);
  ASSERT_TRUE(EstIo::EstimateBatch(*snapshot, probes, results).ok());
  EXPECT_EQ(results[0].source, EstimateSource::kFormulaFallback);
  EXPECT_EQ(results[0].stats_status.code(), StatusCode::kNotFound);
  EXPECT_GT(results[0].fetches, 0.0);

  // Same provenance and value as a by-name miss on the single path.
  auto single = EstIo::EstimateFromCatalog(*snapshot, "no-such-index",
                                           {0.1, 1.0, 200}, shape);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(results[0].fetches, single->fetches);
  EXPECT_EQ(single->source, EstimateSource::kFormulaFallback);
}

TEST(EstIoBatchTest, QuarantinedEntryDegradesWithCorruption) {
  // Entries and quarantine are disjoint (the StatsCatalog invariant):
  // a quarantined name resolves but carries no stats payload.
  std::map<std::string, IndexStats> entries;
  entries.emplace("good.key", MakeStats("good.key", 1000, 0.5));
  std::map<std::string, std::string> quarantined;
  quarantined["hurt.key"] = "checksum mismatch (test)";
  std::shared_ptr<const CatalogSnapshot> snapshot =
      CatalogSnapshot::Build(std::move(entries), std::move(quarantined), 1);

  CatalogSnapshot::Handle good = snapshot->Resolve("good.key");
  CatalogSnapshot::Handle hurt = snapshot->Resolve("hurt.key");
  ASSERT_TRUE(good.valid());
  ASSERT_TRUE(hurt.valid());
  TableShape shape{1000, 40000};

  std::vector<BatchProbe> probes = {
      BatchProbe{good, {0.2, 1.0, 300}, shape},
      BatchProbe{hurt, {0.2, 1.0, 300}, shape},
  };
  std::vector<CatalogEstimate> results(2);
  ASSERT_TRUE(EstIo::EstimateBatch(*snapshot, probes, results).ok());

  EXPECT_EQ(results[0].source, EstimateSource::kLruFitCurve);
  EXPECT_TRUE(results[0].stats_status.ok());
  EXPECT_EQ(results[1].source, EstimateSource::kFormulaFallback);
  EXPECT_EQ(results[1].stats_status.code(), StatusCode::kCorruption);
  // The degraded number comes from Yao over the table shape — identical
  // to what the by-name path reports for the same quarantined entry.
  auto single = EstIo::EstimateFromCatalog(*snapshot, "hurt.key",
                                           {0.2, 1.0, 300}, shape);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(results[1].fetches, single->fetches);
}

// Healthy results are written in place, so a results buffer reused from
// an earlier batch must not keep that batch's provenance.
TEST(EstIoBatchTest, ReusedResultsBufferIsOverwritten) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  CatalogSnapshot::Handle handle = snapshot->Resolve("aaa.key");
  TableShape shape = ShapeFor(*snapshot, handle);
  std::vector<BatchProbe> bad = {
      BatchProbe{handle, {2.0, 1.0, 300}, shape},                  // rejected
      BatchProbe{CatalogSnapshot::Handle{}, {0.4, 1.0, 300}, shape}  // missing
  };
  std::vector<CatalogEstimate> results(bad.size());
  ASSERT_TRUE(EstIo::EstimateBatch(*snapshot, bad, results).ok());
  ASSERT_FALSE(results[0].stats_status.ok());
  ASSERT_FALSE(results[1].stats_status.ok());

  std::vector<BatchProbe> good(2, BatchProbe{handle, {0.4, 1.0, 300}, shape});
  ASSERT_TRUE(EstIo::EstimateBatch(*snapshot, good, results).ok());
  auto single = EstIo::EstimateFromCatalog(*snapshot, "aaa.key",
                                           {0.4, 1.0, 300}, shape);
  ASSERT_TRUE(single.ok());
  for (const CatalogEstimate& result : results) {
    EXPECT_EQ(result.source, EstimateSource::kLruFitCurve);
    EXPECT_TRUE(result.stats_status.ok());
    EXPECT_EQ(result.fetches, single->fetches);
  }
}

TEST(EstIoBatchTest, ResultsSpanTooSmallIsInvalidArgument) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  CatalogSnapshot::Handle handle = snapshot->Resolve("aaa.key");
  TableShape shape = ShapeFor(*snapshot, handle);
  std::vector<BatchProbe> probes(3,
                                 BatchProbe{handle, {0.5, 1.0, 100}, shape});
  std::vector<CatalogEstimate> results(2);
  Status status = EstIo::EstimateBatch(*snapshot, probes, results);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(EstIoBatchTest, ForeignHandleFailsWholeBatch) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  // A handle with a slot beyond this snapshot can only have come from a
  // different (larger) snapshot — a caller bug, so the batch fails as a
  // unit and no results are produced.
  CatalogSnapshot::Handle foreign;
  foreign.slot = static_cast<uint32_t>(snapshot->size());
  ASSERT_TRUE(foreign.valid());
  TableShape shape{1000, 40000};

  CatalogSnapshot::Handle handle = snapshot->Resolve("aaa.key");
  std::vector<BatchProbe> probes = {
      BatchProbe{handle, {0.5, 1.0, 100}, shape},
      BatchProbe{foreign, {0.5, 1.0, 100}, shape},
  };
  std::vector<CatalogEstimate> results(2);
  results[0].fetches = -1.0;  // Sentinel: must remain untouched.
  Status status = EstIo::EstimateBatch(*snapshot, probes, results);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[0].fetches, -1.0);
}

TEST(EstIoBatchTest, EmptyBatchIsOk) {
  std::shared_ptr<const CatalogSnapshot> snapshot = MakeSnapshot();
  EXPECT_TRUE(EstIo::EstimateBatch(*snapshot, {}, {}).ok());
}

// The est_io.* counters EstimateBatch and the single-probe path share.
const char* const kEstIoCounters[] = {
    "est_io.estimates",           "est_io.correction_applied",
    "est_io.sargable_reductions", "est_io.clamped_at_qualifying",
    "est_io.rejected",            "est_io.degraded",
};

std::map<std::string, uint64_t> EstIoCounterValues() {
  std::map<std::string, uint64_t> all =
      MetricsRegistry::Global().Snapshot().counters;
  std::map<std::string, uint64_t> values;
  for (const char* name : kEstIoCounters) values[name] = all[name];
  return values;
}

std::map<std::string, uint64_t> Deltas(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after) {
  std::map<std::string, uint64_t> deltas;
  for (const auto& [name, value] : after) {
    deltas[name] = value - before.at(name);
  }
  return deltas;
}

// The batch tallies its formula-path counters locally and flushes them
// once per call; the totals must equal running the same probes one by
// one through the single-probe snapshot path.
TEST(EstIoBatchTest, CounterTotalsMatchSingleProbePath) {
  std::map<std::string, IndexStats> entries;
  entries.emplace("aaa.key", MakeStats("aaa.key", 1000, 0.9));
  entries.emplace("ccc.key", MakeStats("ccc.key", 700, 0.0));
  std::map<std::string, std::string> quarantined;
  quarantined["hurt.key"] = "checksum mismatch (test)";
  std::shared_ptr<const CatalogSnapshot> snapshot =
      CatalogSnapshot::Build(std::move(entries), std::move(quarantined), 1);
  TableShape shape{1000, 40000};

  struct NamedProbe {
    std::string name;
    ScanSpec scan;
  };
  const std::vector<NamedProbe> named = {
      {"aaa.key", {0.5, 1.0, 500}},      // healthy
      {"aaa.key", {0.3, 0.2, 300}},      // sargable reduction
      {"ccc.key", {1e-5, 1.0, 12}},      // clamped at qualifying
      {"ccc.key", {2e-5, 1.0, 64}},      // clamped at qualifying
      {"ccc.key", {0.1, 1.0, 64}},       // correction fires
      {"ccc.key", {0.2, 0.5, 64}},       // correction and sargable
      {"aaa.key", {2.0, 1.0, 64}},       // invalid spec
      {"aaa.key", {0.2, 1.0, 0}},        // invalid spec (B = 0)
      {"no-such.key", {0.1, 1.0, 64}},   // invalid handle
      {"hurt.key", {0.1, 1.0, 64}},      // quarantined
  };
  std::vector<BatchProbe> probes;
  for (const NamedProbe& p : named) {
    probes.push_back(BatchProbe{snapshot->Resolve(p.name), p.scan, shape});
  }

  std::map<std::string, uint64_t> before = EstIoCounterValues();
  std::vector<CatalogEstimate> results(probes.size());
  ASSERT_TRUE(EstIo::EstimateBatch(*snapshot, probes, results).ok());
  std::map<std::string, uint64_t> batch =
      Deltas(before, EstIoCounterValues());

  before = EstIoCounterValues();
  for (size_t i = 0; i < named.size(); ++i) {
    auto single = EstIo::EstimateFromCatalog(*snapshot, named[i].name,
                                             named[i].scan, shape);
    if (results[i].source == EstimateSource::kRejected) {
      EXPECT_FALSE(single.ok()) << "probe " << i;
    } else {
      ASSERT_TRUE(single.ok()) << "probe " << i;
      EXPECT_EQ(results[i].fetches, single->fetches) << "probe " << i;
    }
  }
  std::map<std::string, uint64_t> one_by_one =
      Deltas(before, EstIoCounterValues());

  EXPECT_EQ(batch, one_by_one);
#if EPFIS_METRICS_ENABLED
  // Every counter is exercised, so an equal total is a real check.
  for (const auto& [name, delta] : batch) {
    EXPECT_GT(delta, 0u) << name;
  }
  EXPECT_EQ(batch["est_io.rejected"], 2u);
  EXPECT_EQ(batch["est_io.degraded"], 2u);
  EXPECT_EQ(batch["est_io.estimates"], 6u);
  EXPECT_EQ(batch["est_io.clamped_at_qualifying"], 2u);
#endif
}

// Entries where the hoisted Cardenas constant is extreme: T = 1 makes
// log1p(-1/T) = -inf, T = 2 is the smallest finite case, and N = 0 makes
// the Cardenas guard (k <= 0) fire. Batch results must equal single-probe
// results bit for bit over both snapshot constructors.
TEST(EstIoBatchTest, DegenerateShapesAreBitIdenticalOverBothSnapshots) {
  StatsCatalog catalog;
  for (uint64_t pages : {1u, 2u}) {
    for (uint64_t records : {0u, 50u}) {
      IndexStats stats;
      stats.index_name =
          "t" + std::to_string(pages) + "n" + std::to_string(records);
      stats.table_pages = pages;
      stats.table_records = records;
      stats.pages_accessed = pages;
      stats.b_min = 1;
      stats.b_max = pages;
      stats.clustering = 0.0;
      stats.fpf = PiecewiseLinear::FromKnots(
                      {{1.0, static_cast<double>(records) + 3.0},
                       {2.0, static_cast<double>(pages)}})
                      .value();
      catalog.Put(std::move(stats));
    }
  }
  ASSERT_TRUE(catalog.Publish().ok());
  std::shared_ptr<const CatalogSnapshot> published = catalog.snapshot();
  std::string path =
      testing::TempDir() + "/epfis_batch_degenerate_shapes.cat3";
  ASSERT_TRUE(catalog.SaveToFileV3(path).ok());
  auto opened = OpenCatalogSnapshotV3(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  std::shared_ptr<const CatalogSnapshot> mapped = *opened;

  for (const std::shared_ptr<const CatalogSnapshot>& snapshot :
       {published, mapped}) {
    std::vector<std::string> names = snapshot->IndexNames();
    ASSERT_EQ(names.size(), 4u);
    std::vector<BatchProbe> probes;
    for (const std::string& name : names) {
      CatalogSnapshot::Handle handle = snapshot->Resolve(name);
      const IndexStatsView& view = snapshot->ViewAt(handle);
      // Both constructors fill the hoisted constant.
      EXPECT_EQ(std::bit_cast<uint64_t>(view.cardenas_log_q),
                std::bit_cast<uint64_t>(CardenasLogQ(
                    static_cast<double>(view.table_pages))))
          << name;
      for (double sigma : {1e-3, 0.05, 0.5, 1.0}) {
        for (double sarg : {0.3, 1.0}) {
          for (uint64_t b : {1u, 2u, 8u}) {
            probes.push_back(BatchProbe{
                handle, {sigma, sarg, b}, ShapeFor(*snapshot, handle)});
          }
        }
      }
    }
    std::vector<CatalogEstimate> results(probes.size());
    ASSERT_TRUE(EstIo::EstimateBatch(*snapshot, probes, results).ok());
    for (size_t i = 0; i < probes.size(); ++i) {
      const BatchProbe& probe = probes[i];
      const std::string& name = names[probe.index.slot];
      SCOPED_TRACE(name + " probe " + std::to_string(i));
      EXPECT_EQ(results[i].source, EstimateSource::kLruFitCurve);
      EXPECT_FALSE(std::isnan(results[i].fetches));
      auto single = EstIo::EstimateFromCatalog(*snapshot, name, probe.scan,
                                               probe.shape);
      ASSERT_TRUE(single.ok());
      EXPECT_EQ(std::bit_cast<uint64_t>(results[i].fetches),
                std::bit_cast<uint64_t>(single->fetches));
      auto direct = EstIo::Estimate(*catalog.Get(name), probe.scan);
      ASSERT_TRUE(direct.ok());
      EXPECT_EQ(std::bit_cast<uint64_t>(results[i].fetches),
                std::bit_cast<uint64_t>(*direct));
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace epfis
