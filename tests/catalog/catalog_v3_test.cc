// The binary mmap-able catalog format (v3): lossless round-trips and v2
// text import, structural validation, per-entry corruption quarantine
// shared by both readers, and the zero-copy snapshot open.

#include "catalog/catalog_v3.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "catalog/catalog_fixtures.h"
#include "catalog/stats_catalog.h"
#include "epfis/est_io.h"

namespace epfis {
namespace {

IndexStats MakeStats(const std::string& name, uint64_t pages,
                     double clustering) {
  IndexStats stats;
  stats.index_name = name;
  stats.table_pages = pages;
  stats.table_records = pages * 40;
  stats.distinct_keys = pages / 2;
  stats.pages_accessed = pages;
  stats.b_min = 12;
  stats.b_max = pages;
  stats.f_min = pages * 30;
  stats.clustering = clustering;
  stats.sample_rate = 0.25;
  stats.sampled_refs = pages * 10;
  double p = static_cast<double>(pages);
  stats.fpf = PiecewiseLinear::FromKnots({{12, 30.0 * p},
                                          {p * 0.1, 15.0 * p},
                                          {p * 0.3, 6.0 * p},
                                          {p, 1.0 * p}})
                  .value();
  return stats;
}

void ExpectStatsEqual(const IndexStats& a, const IndexStats& b) {
  EXPECT_EQ(a.index_name, b.index_name);
  EXPECT_EQ(a.table_pages, b.table_pages);
  EXPECT_EQ(a.table_records, b.table_records);
  EXPECT_EQ(a.distinct_keys, b.distinct_keys);
  EXPECT_EQ(a.pages_accessed, b.pages_accessed);
  EXPECT_EQ(a.b_min, b.b_min);
  EXPECT_EQ(a.b_max, b.b_max);
  EXPECT_EQ(a.f_min, b.f_min);
  EXPECT_EQ(a.clustering, b.clustering);  // Bit-exact, no tolerance.
  EXPECT_EQ(a.sample_rate, b.sample_rate);
  EXPECT_EQ(a.sampled_refs, b.sampled_refs);
  ASSERT_EQ(a.fpf.has_value(), b.fpf.has_value());
  if (a.fpf.has_value()) {
    const auto& ka = a.fpf->knots();
    const auto& kb = b.fpf->knots();
    ASSERT_EQ(ka.size(), kb.size());
    for (size_t i = 0; i < ka.size(); ++i) {
      EXPECT_EQ(ka[i].x, kb[i].x);
      EXPECT_EQ(ka[i].y, kb[i].y);
    }
  }
}

// Offset of the first entry's packed fixed fields in an encoded image:
// 64-byte header, then one 40-byte index record per entry.
size_t FirstFixedOffset(size_t entry_count) { return 64 + entry_count * 40; }

TEST(CatalogV3Test, EncodeDecodeRoundTripsLosslessly) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("aaa.key", 1000, 0.3));
  catalog.Put(MakeStats("bbb.key", 5000, 0.85));
  IndexStats curveless;
  curveless.index_name = "curveless.key";
  curveless.table_pages = 77;
  curveless.table_records = 770;
  catalog.Put(curveless);

  StatsCatalog restored;
  ASSERT_TRUE(restored.LoadFromString(catalog.SaveToStringV3()).ok());
  ASSERT_EQ(restored.size(), 3u);
  for (const std::string& name : catalog.IndexNames()) {
    SCOPED_TRACE(name);
    auto original = catalog.Get(name);
    auto loaded = restored.Get(name);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(loaded.ok());
    ExpectStatsEqual(*original, *loaded);
  }
}

TEST(CatalogV3Test, V2ToV3ConversionIsLossless) {
  // The `catalog convert` path: entries written as v2 text, reloaded,
  // rewritten as v3 binary, reloaded again — estimates must be
  // bit-identical across all three generations.
  StatsCatalog original;
  original.Put(MakeStats("orders.key", 1250, 0.4));
  original.Put(MakeStats("lines.key", 800, 0.0));

  StatsCatalog from_v2;
  ASSERT_TRUE(from_v2.LoadFromString(V2CatalogText(original)).ok());
  StatsCatalog from_v3;
  ASSERT_TRUE(from_v3.LoadFromString(from_v2.SaveToStringV3()).ok());

  for (const std::string& name : original.IndexNames()) {
    SCOPED_TRACE(name);
    ExpectStatsEqual(*from_v2.Get(name), *from_v3.Get(name));
    for (double sigma : {0.01, 0.2, 1.0}) {
      for (uint64_t b : {20ULL, 300ULL, 900ULL}) {
        EXPECT_EQ(
            EstIo::Estimate(*original.Get(name), {sigma, 1.0, b}).value(),
            EstIo::Estimate(*from_v3.Get(name), {sigma, 1.0, b}).value());
      }
    }
  }
}

TEST(CatalogV3Test, LoadFromFileAutodetectsBinaryFormat) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("auto.key", 500, 0.5));
  std::string path = testing::TempDir() + "/epfis_v3_autodetect.cat";
  ASSERT_TRUE(catalog.SaveToFileV3(path).ok());

  StatsCatalog loaded;
  auto report = loaded.RecoverFromFile(path);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->format_version, 3);
  EXPECT_EQ(report->entries_loaded, 1u);
  EXPECT_EQ(report->entries_quarantined, 0u);
  ExpectStatsEqual(*catalog.Get("auto.key"), *loaded.Get("auto.key"));
  std::remove(path.c_str());
}

TEST(CatalogV3Test, BadMagicIsCorruption) {
  StatsCatalog catalog;
  EXPECT_EQ(catalog.LoadFromString("EPFSCATX garbage").code(),
            StatusCode::kCorruption);
}

TEST(CatalogV3Test, CrossEndianImageIsClearCorruption) {
  // Byte-craft the file an opposite-endianness host would have written:
  // the magic is a char string (endianness-neutral), but every multi-byte
  // header field lands byte-swapped. Regression: the endian tag used to be
  // checked *after* the version field, so such a file surfaced as
  // "unsupported version 50331648" (3 byte-swapped) — noise that sent
  // operators hunting a nonexistent version skew instead of the real
  // problem. The tag must be checked first and the error must say so.
  StatsCatalog catalog;
  catalog.Put(MakeStats("endian.key", 600, 0.4));
  std::string image = catalog.SaveToStringV3();
  // Header layout: magic[8], version u32 @8, endian u32 @12.
  std::reverse(image.begin() + 8, image.begin() + 12);
  std::reverse(image.begin() + 12, image.begin() + 16);

  StatsCatalog strict;
  Status status = strict.LoadFromString(image);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("foreign byte order"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("opposite-endianness"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(status.message().find("version"), std::string::npos)
      << "cross-endian file misreported as a version mismatch: "
      << status.ToString();

  // Structural, not per-entry: recovery mode refuses the file too.
  StatsCatalog recovering;
  EXPECT_FALSE(recovering.RecoverFromString(image).ok());

  // The zero-copy open path reports the same verdict.
  std::string path = testing::TempDir() + "/epfis_v3_cross_endian.cat";
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(image.data(), 1, image.size(), f);
    fclose(f);
  }
  auto snapshot = OpenCatalogSnapshotV3(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snapshot.status().message().find("foreign byte order"),
            std::string::npos)
      << snapshot.status().ToString();
  std::remove(path.c_str());

  // A damaged tag that matches neither byte order is reported as damage,
  // not as a foreign writer.
  std::string damaged = catalog.SaveToStringV3();
  damaged[12] ^= 0x55;
  StatsCatalog loaded;
  Status damaged_status = loaded.LoadFromString(damaged);
  EXPECT_EQ(damaged_status.code(), StatusCode::kCorruption);
  EXPECT_NE(damaged_status.message().find("endian tag damaged"),
            std::string::npos)
      << damaged_status.ToString();
}

TEST(CatalogV3Test, TruncationIsStructuralCorruption) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("t.key", 300, 0.2));
  std::string image = catalog.SaveToStringV3();
  // A torn write (file shorter than the header claims) must fail even in
  // recovery mode: nothing in a half-written file can be trusted.
  std::string torn = image.substr(0, image.size() - 7);
  StatsCatalog loaded;
  EXPECT_EQ(loaded.LoadFromString(torn).code(), StatusCode::kCorruption);
  EXPECT_FALSE(loaded.RecoverFromString(torn).ok());
}

TEST(CatalogV3Test, HeaderBitRotIsStructuralCorruption) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("h.key", 300, 0.2));
  std::string image = catalog.SaveToStringV3();
  image[20] ^= 0x40;  // Inside the header's entry_count field.
  StatsCatalog loaded;
  EXPECT_EQ(loaded.LoadFromString(image).code(), StatusCode::kCorruption);
}

TEST(CatalogV3Test, FlippedPayloadByteQuarantinesOnlyThatEntry) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("aaa.key", 1000, 0.3));
  catalog.Put(MakeStats("bbb.key", 5000, 0.85));
  std::string image = catalog.SaveToStringV3();
  // Corrupt the first entry's fixed fields (entries are encoded in name
  // order, so this is aaa.key's table_pages).
  image[FirstFixedOffset(2) + 2] ^= 0xFF;

  // Strict load refuses the whole file...
  StatsCatalog strict;
  EXPECT_EQ(strict.LoadFromString(image).code(), StatusCode::kCorruption);

  // ...recovery loads bbb and quarantines aaa with a checksum reason.
  StatsCatalog recovered;
  auto report = recovered.RecoverFromString(image);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->format_version, 3);
  EXPECT_EQ(report->entries_loaded, 1u);
  EXPECT_EQ(report->entries_quarantined, 1u);
  EXPECT_EQ(report->checksum_failures, 1u);
  EXPECT_TRUE(recovered.IsQuarantined("aaa.key"));
  EXPECT_EQ(recovered.Get("aaa.key").status().code(),
            StatusCode::kCorruption);
  ExpectStatsEqual(*catalog.Get("bbb.key"), *recovered.Get("bbb.key"));
}

TEST(CatalogV3Test, ZeroCopySnapshotMatchesMaterializedLoad) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("zc1.key", 1000, 0.3));
  catalog.Put(MakeStats("zc2.key", 2400, 0.7));
  std::string path = testing::TempDir() + "/epfis_v3_zerocopy.cat";
  ASSERT_TRUE(catalog.SaveToFileV3(path).ok());

  auto snapshot_or = OpenCatalogSnapshotV3(path, 42);
  ASSERT_TRUE(snapshot_or.ok()) << snapshot_or.status().ToString();
  std::shared_ptr<const CatalogSnapshot> snapshot = *snapshot_or;
  EXPECT_EQ(snapshot->generation(), 42u);
  ASSERT_EQ(snapshot->size(), 2u);

  for (const std::string& name : catalog.IndexNames()) {
    SCOPED_TRACE(name);
    // Materializing Get out of the mapped snapshot equals the original.
    auto from_map = snapshot->Get(name);
    ASSERT_TRUE(from_map.ok());
    ExpectStatsEqual(*catalog.Get(name), *from_map);
    // And estimates served straight off the mapping are bit-identical to
    // estimates computed from the owned in-memory entry.
    TableShape shape{from_map->table_pages, from_map->table_records};
    for (double sigma : {0.02, 0.5, 1.0}) {
      for (uint64_t b : {15ULL, 500ULL, 2000ULL}) {
        auto served = EstIo::EstimateFromCatalog(*snapshot, name,
                                                 {sigma, 1.0, b}, shape);
        ASSERT_TRUE(served.ok());
        EXPECT_EQ(served->source, EstimateSource::kLruFitCurve);
        EXPECT_EQ(served->fetches,
                  EstIo::Estimate(*catalog.Get(name), {sigma, 1.0, b})
                      .value());
      }
    }
  }
  std::remove(path.c_str());
}

TEST(CatalogV3Test, ZeroCopySnapshotQuarantinesCorruptEntry) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("aaa.key", 1000, 0.3));
  catalog.Put(MakeStats("bbb.key", 5000, 0.85));
  std::string image = catalog.SaveToStringV3();
  image[FirstFixedOffset(2) + 2] ^= 0xFF;  // aaa.key's fixed fields.
  std::string path = testing::TempDir() + "/epfis_v3_quarantine.cat";
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(image.data(), 1, image.size(), f);
    fclose(f);
  }

  auto snapshot_or = OpenCatalogSnapshotV3(path);
  ASSERT_TRUE(snapshot_or.ok());
  std::shared_ptr<const CatalogSnapshot> snapshot = *snapshot_or;
  EXPECT_TRUE(snapshot->IsQuarantined("aaa.key"));
  EXPECT_EQ(snapshot->Get("aaa.key").status().code(),
            StatusCode::kCorruption);
  EXPECT_TRUE(snapshot->Get("bbb.key").ok());

  // Serving from the quarantined entry degrades with Corruption
  // provenance instead of trusting mapped bytes that failed their CRC.
  TableShape shape{1000, 40000};
  auto est = EstIo::EstimateFromCatalog(*snapshot, "aaa.key",
                                        {0.1, 1.0, 200}, shape);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->source, EstimateSource::kFormulaFallback);
  EXPECT_EQ(est->stats_status.code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// A CRC-valid entry whose knots repeat an x cannot become a curve. Both
// v3 readers share one per-entry verdict, so the materializing load and
// the zero-copy snapshot must reject it alike: strict load fails,
// recovery and the mapped snapshot quarantine it, and serving degrades to
// the formula with Corruption provenance instead of a curve estimate.
TEST(CatalogV3Test, NonIncreasingKnotsAreRejectedByBothReaders) {
  std::string image =
      NonIncreasingKnotsV3Image(MakeStats("ix", 1000, 0.3));

  StatsCatalog strict;
  EXPECT_EQ(strict.LoadFromString(image).code(), StatusCode::kCorruption);

  StatsCatalog recovered;
  auto report = recovered.RecoverFromString(image);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->entries_loaded, 0u);
  EXPECT_EQ(report->entries_quarantined, 1u);
  EXPECT_EQ(report->checksum_failures, 0u);
  EXPECT_TRUE(recovered.IsQuarantined("ix"));

  std::string path = testing::TempDir() + "/epfis_v3_bad_knots.cat";
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(image.data(), 1, image.size(), f);
    fclose(f);
  }
  auto snapshot_or = OpenCatalogSnapshotV3(path);
  ASSERT_TRUE(snapshot_or.ok()) << snapshot_or.status().ToString();
  std::shared_ptr<const CatalogSnapshot> snapshot = *snapshot_or;
  EXPECT_TRUE(snapshot->IsQuarantined("ix"));
  EXPECT_EQ(snapshot->Get("ix").status().code(), StatusCode::kCorruption);

  BatchProbe probe{snapshot->Resolve("ix"), {0.1, 1.0, 12}, {1000, 40000}};
  CatalogEstimate result;
  ASSERT_TRUE(EstIo::EstimateBatch(*snapshot, {&probe, 1}, {&result, 1}).ok());
  EXPECT_EQ(result.source, EstimateSource::kFormulaFallback);
  EXPECT_EQ(result.stats_status.code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(CatalogV3Test, OpenSnapshotMissingFileIsIoError) {
  auto snapshot = OpenCatalogSnapshotV3("/nonexistent/epfis_v3.cat");
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kIoError);
}

TEST(CatalogV3Test, SniffMagicMatchesOnlyV3Images) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("s.key", 400, 0.5));
  std::string v3 = catalog.SaveToStringV3();
  std::string v2 = V2CatalogText(catalog);
  EXPECT_TRUE(CatalogV3::SniffMagic(v3.data(), v3.size()));
  EXPECT_FALSE(CatalogV3::SniffMagic(v2.data(), v2.size()));
  EXPECT_FALSE(CatalogV3::SniffMagic(v3.data(), 4));  // Too short.
}

}  // namespace
}  // namespace epfis
