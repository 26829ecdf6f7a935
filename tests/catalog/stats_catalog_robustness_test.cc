#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog_fixtures.h"
#include "catalog/stats_catalog.h"
#include "epfis/fpf_curve.h"
#include "util/fault.h"

namespace epfis {
namespace {

IndexStats MakeStats(const std::string& name, uint64_t pages) {
  IndexStats s;
  s.index_name = name;
  s.table_pages = pages;
  s.table_records = pages * 10;
  s.distinct_keys = pages * 5;
  s.pages_accessed = pages;
  s.b_min = 12;
  s.b_max = pages;
  s.f_min = pages * 3;
  s.clustering = 0.25;
  auto curve = PiecewiseLinear::FromKnots(
      {{12.0, static_cast<double>(pages) * 3.0},
       {static_cast<double>(pages), static_cast<double>(pages)}});
  s.fpf = std::move(curve).value();
  return s;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class StatsCatalogRobustnessTest : public testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().DisarmAll();
    // Per-test directory: ctest runs each TEST as its own process, and
    // parallel processes sharing one scratch dir would race on remove_all.
    dir_ = testing::TempDir() + "/epfis_catalog_robust_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  bool HasTmpLeak() const {
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() == ".tmp") return true;
    }
    return false;
  }

  std::string dir_;
};

TEST_F(StatsCatalogRobustnessTest, V2RoundTripCarriesHeaderAndChecksums) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("ix_a", 100));
  catalog.Put(MakeStats("ix_b", 200));
  std::string text = V2CatalogText(catalog);
  EXPECT_EQ(text.rfind("[epfis-stats-catalog-v2]", 0), 0u);
  EXPECT_NE(text.find("[end crc="), std::string::npos);
  EXPECT_EQ(text.find("[end]\n"), std::string::npos);

  StatsCatalog loaded;
  ASSERT_TRUE(loaded.LoadFromString(text).ok());
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(loaded.Get("ix_a").ok());
  EXPECT_TRUE(loaded.Get("ix_b").ok());
}

TEST_F(StatsCatalogRobustnessTest, ChecksumMismatchFailsStrictLoad) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("ix_a", 100));
  std::string text = V2CatalogText(catalog);
  // Silent bit rot in a field value, frame intact.
  size_t at = text.find("table_pages=100");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 15, "table_pages=999");

  StatsCatalog loaded;
  Status status = loaded.LoadFromString(text);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(loaded.size(), 0u);
}

TEST_F(StatsCatalogRobustnessTest, RecoverQuarantinesCorruptEntryOnly) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("ix_bad", 100));
  catalog.Put(MakeStats("ix_good", 200));
  std::string text = V2CatalogText(catalog);
  size_t at = text.find("table_pages=100");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 15, "table_pages=999");

  StatsCatalog loaded;
  auto report = loaded.RecoverFromString(text);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->format_version, 2);
  EXPECT_EQ(report->entries_loaded, 1u);
  EXPECT_EQ(report->entries_quarantined, 1u);
  EXPECT_EQ(report->checksum_failures, 1u);
  ASSERT_EQ(report->quarantine_reasons.size(), 1u);
  EXPECT_NE(report->quarantine_reasons[0].find("checksum"),
            std::string::npos);

  EXPECT_TRUE(loaded.Get("ix_good").ok());
  EXPECT_TRUE(loaded.IsQuarantined("ix_bad"));
  Status bad = loaded.Get("ix_bad").status();
  EXPECT_EQ(bad.code(), StatusCode::kCorruption);
  // A fresh Put (statistics refresh) clears the quarantine.
  loaded.Put(MakeStats("ix_bad", 100));
  EXPECT_FALSE(loaded.IsQuarantined("ix_bad"));
  EXPECT_TRUE(loaded.Get("ix_bad").ok());
}

TEST_F(StatsCatalogRobustnessTest, RecoverHandlesTornTail) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("ix_a", 100));
  catalog.Put(MakeStats("ix_b", 200));
  std::string text = V2CatalogText(catalog);
  // A torn write: the file ends mid-entry.
  size_t cut = text.rfind("[end crc=");
  ASSERT_NE(cut, std::string::npos);
  text.resize(cut);

  StatsCatalog loaded;
  auto report = loaded.RecoverFromString(text);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->entries_loaded, 1u);
  EXPECT_EQ(report->entries_quarantined, 1u);
  EXPECT_EQ(loaded.QuarantinedNames().size(), 1u);
}

TEST_F(StatsCatalogRobustnessTest, V1FilesStillLoad) {
  // The pre-checksum format: no header, plain [end] trailers.
  std::string v1 =
      "[index]\n"
      "name=ix_legacy\n"
      "table_pages=50\n"
      "table_records=500\n"
      "distinct_keys=100\n"
      "pages_accessed=50\n"
      "b_min=12\n"
      "b_max=50\n"
      "f_min=150\n"
      "clustering=0.5\n"
      "knots=12:150,50:50\n"
      "[end]\n";
  StatsCatalog strict;
  ASSERT_TRUE(strict.LoadFromString(v1).ok());
  ASSERT_TRUE(strict.Get("ix_legacy").ok());
  EXPECT_EQ(strict.Get("ix_legacy")->table_pages, 50u);

  StatsCatalog recovering;
  auto report = recovering.RecoverFromString(v1);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->format_version, 1);
  EXPECT_EQ(report->entries_loaded, 1u);
  EXPECT_EQ(report->entries_quarantined, 0u);
}

// A text value must be wholly a valid number: trailing junk, a sign on
// an unsigned field or no digits at all is a field error, not a silent 0
// or a wrapped negative. Strict loads fail; recovery quarantines the
// entry and keeps its good neighbour.
TEST_F(StatsCatalogRobustnessTest, MalformedTextNumbersAreFieldErrors) {
  auto v1_entry = [](const std::string& name, const std::string& field) {
    std::string entry =
        "[index]\n"
        "name=" + name + "\n"
        "table_pages=12\n"
        "table_records=500\n"
        "clustering=0.5\n"
        "knots=12:150,50:50\n"
        "[end]\n";
    if (!field.empty()) {
      std::string key = field.substr(0, field.find('=') + 1);
      size_t at = entry.find(key);
      entry.replace(at, entry.find('\n', at) - at, field);
    }
    return entry;
  };
  for (const char* field :
       {"table_pages=12x", "table_records=-5", "clustering=abc",
        "table_pages=", "table_records=99999999999999999999999",
        "knots=12:150,50x:50"}) {
    SCOPED_TRACE(field);
    std::string text = v1_entry("ix_good", "") + v1_entry("ix_bad", field);

    StatsCatalog strict;
    EXPECT_EQ(strict.LoadFromString(text).code(), StatusCode::kCorruption);
    EXPECT_EQ(strict.size(), 0u);

    StatsCatalog recovering;
    auto report = recovering.RecoverFromString(text);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->entries_loaded, 1u);
    EXPECT_EQ(report->entries_quarantined, 1u);
    EXPECT_EQ(report->checksum_failures, 0u);
    EXPECT_TRUE(recovering.Get("ix_good").ok());
    EXPECT_TRUE(recovering.IsQuarantined("ix_bad"));
  }
}

TEST_F(StatsCatalogRobustnessTest, UnknownFutureVersionIsRejected) {
  std::string text = "[epfis-stats-catalog-v9]\n[index]\nname=x\n[end]\n";
  StatsCatalog catalog;
  EXPECT_EQ(catalog.LoadFromString(text).code(), StatusCode::kCorruption);
  EXPECT_EQ(catalog.RecoverFromString(text).status().code(),
            StatusCode::kCorruption);
}

TEST_F(StatsCatalogRobustnessTest, V2EntryWithoutChecksumIsTorn) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("ix_a", 100));
  std::string text = V2CatalogText(catalog);
  size_t at = text.find("[end crc=");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, text.find(']', at) - at + 1, "[end]");
  StatsCatalog loaded;
  EXPECT_EQ(loaded.LoadFromString(text).code(), StatusCode::kCorruption);
}

TEST_F(StatsCatalogRobustnessTest, FileRoundTripIsAtomicAndDurable) {
  std::string path = dir_ + "/stats.cat";
  StatsCatalog catalog;
  catalog.Put(MakeStats("ix_a", 100));
  ASSERT_TRUE(catalog.SaveToFileV3(path).ok());
  EXPECT_FALSE(HasTmpLeak());

  StatsCatalog loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  EXPECT_TRUE(loaded.Get("ix_a").ok());
}

// The torn-write regression: an injected failure mid-save must leave the
// previous on-disk catalog byte-identical and loadable, with no tmp file
// left behind.
TEST_F(StatsCatalogRobustnessTest, InjectedWriteFailurePreservesOldCatalog) {
  std::string path = dir_ + "/stats.cat";
  StatsCatalog old_catalog;
  old_catalog.Put(MakeStats("ix_old", 100));
  ASSERT_TRUE(old_catalog.SaveToFileV3(path).ok());
  std::string old_bytes = Slurp(path);

  StatsCatalog new_catalog;
  new_catalog.Put(MakeStats("ix_old", 100));
  new_catalog.Put(MakeStats("ix_new", 200));
  for (const char* point :
       {"catalog.save.open", "catalog.save.write", "catalog.save.fsync",
        "catalog.save.rename"}) {
    SCOPED_TRACE(point);
    FaultSpec spec;
    spec.skip_calls = 0;
    spec.max_fires = 1;
    FaultInjector::Global().Arm(point, spec);
    Status status = new_catalog.SaveToFileV3(path);
    EXPECT_EQ(status.code(), StatusCode::kIoError);
    FaultInjector::Global().Disarm(point);

    EXPECT_EQ(Slurp(path), old_bytes) << "old catalog must survive";
    EXPECT_FALSE(HasTmpLeak()) << "tmp file leaked";
    StatsCatalog check;
    ASSERT_TRUE(check.LoadFromFile(path).ok());
    EXPECT_TRUE(check.Get("ix_old").ok());
    EXPECT_FALSE(check.Contains("ix_new"));
  }

  // Recovery on the next clean call: the save goes through untouched.
  ASSERT_TRUE(new_catalog.SaveToFileV3(path).ok());
  StatsCatalog check;
  ASSERT_TRUE(check.LoadFromFile(path).ok());
  EXPECT_TRUE(check.Get("ix_new").ok());
}

TEST_F(StatsCatalogRobustnessTest, LoadFaultPointsSurfaceAsErrors) {
  std::string path = dir_ + "/stats.cat";
  StatsCatalog catalog;
  catalog.Put(MakeStats("ix_a", 100));
  ASSERT_TRUE(catalog.SaveToFileV3(path).ok());

  for (const char* point : {"catalog.load.open", "catalog.load.read"}) {
    SCOPED_TRACE(point);
    FaultSpec spec;
    spec.max_fires = 1;
    FaultInjector::Global().Arm(point, spec);
    StatsCatalog loaded;
    EXPECT_EQ(loaded.LoadFromFile(path).code(), StatusCode::kIoError);
    FaultInjector::Global().Disarm(point);
    // Clean retry succeeds.
    EXPECT_TRUE(loaded.LoadFromFile(path).ok());
  }
}

TEST_F(StatsCatalogRobustnessTest, RemoveClearsQuarantine) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("ix_a", 100));
  std::string text = V2CatalogText(catalog);
  size_t at = text.find("table_pages=100");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 15, "table_pages=999");
  StatsCatalog loaded;
  ASSERT_TRUE(loaded.RecoverFromString(text).ok());
  ASSERT_TRUE(loaded.IsQuarantined("ix_a"));
  loaded.Remove("ix_a");
  EXPECT_FALSE(loaded.IsQuarantined("ix_a"));
  EXPECT_EQ(loaded.Get("ix_a").status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace epfis
