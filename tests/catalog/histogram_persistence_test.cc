#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

class HistogramPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.num_records = 3000;
    spec.num_distinct = 100;
    spec.records_per_page = 20;
    spec.theta = 0.86;
    spec.seed = 141;
    auto dataset = GenerateSynthetic(spec);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();
    ASSERT_TRUE(catalog_.RegisterTable("t", dataset_->table()).ok());
    ASSERT_TRUE(
        catalog_.RegisterIndex("t.key", "t", 0, dataset_->index()).ok());
    // Per-test path: ctest runs each TEST as its own process, and
    // parallel processes sharing one file would race on it.
    path_ = testing::TempDir() + "/epfis_histograms_test_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".txt";
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<Dataset> dataset_;
  Catalog catalog_;
  std::string path_;
};

TEST_F(HistogramPersistenceTest, RoundTripPreservesEstimates) {
  auto hist = EquiDepthHistogram::Build(dataset_->key_counts(), 12);
  ASSERT_TRUE(hist.ok());
  ASSERT_TRUE(catalog_.PutHistogram("t.key", *hist).ok());
  ASSERT_TRUE(catalog_.SaveHistogramsToFile(path_).ok());

  Catalog fresh;
  ASSERT_TRUE(fresh.RegisterTable("t", dataset_->table()).ok());
  ASSERT_TRUE(fresh.RegisterIndex("t.key", "t", 0, dataset_->index()).ok());
  ASSERT_TRUE(fresh.LoadHistogramsFromFile(path_).ok());

  auto restored = fresh.GetHistogram("t.key");
  ASSERT_TRUE(restored.ok());
  for (auto [lo, hi] :
       {std::pair<int64_t, int64_t>{1, 10}, {20, 80}, {90, 100}}) {
    EXPECT_DOUBLE_EQ(
        restored->EstimateSelectivity(KeyRange::Closed(lo, hi)),
        hist->EstimateSelectivity(KeyRange::Closed(lo, hi)));
  }
}

TEST_F(HistogramPersistenceTest, EmptySaveLoads) {
  ASSERT_TRUE(catalog_.SaveHistogramsToFile(path_).ok());
  Catalog fresh;
  ASSERT_TRUE(fresh.RegisterTable("t", dataset_->table()).ok());
  ASSERT_TRUE(fresh.RegisterIndex("t.key", "t", 0, dataset_->index()).ok());
  ASSERT_TRUE(fresh.LoadHistogramsFromFile(path_).ok());
  EXPECT_FALSE(fresh.GetHistogram("t.key").ok());
}

TEST_F(HistogramPersistenceTest, LoadRejectsUnknownIndex) {
  auto hist = EquiDepthHistogram::Build(dataset_->key_counts(), 4);
  ASSERT_TRUE(hist.ok());
  ASSERT_TRUE(catalog_.PutHistogram("t.key", *hist).ok());
  ASSERT_TRUE(catalog_.SaveHistogramsToFile(path_).ok());

  Catalog stranger;  // No such index registered.
  Status s = stranger.LoadHistogramsFromFile(path_);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(HistogramPersistenceTest, LoadRejectsCorruptFile) {
  {
    std::ofstream out(path_);
    out << "[histogram-for]\nt.key\ngarbage\n[end]\n";
  }
  EXPECT_FALSE(catalog_.LoadHistogramsFromFile(path_).ok());
  {
    std::ofstream out(path_);
    out << "[histogram-for]\nt.key\nhistogram total=5\n1 5 5 3\n";  // No end.
  }
  EXPECT_FALSE(catalog_.LoadHistogramsFromFile(path_).ok());
  EXPECT_FALSE(catalog_.LoadHistogramsFromFile("/no/such/file").ok());
}

}  // namespace
}  // namespace epfis
