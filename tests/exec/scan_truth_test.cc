// Shared truth for the executed scan: the fetch count RunIndexScan measures
// through a real LRU BufferPool must equal both trace replays (LruSimulator
// at one size, the Mattson kernel at every size) on the paper's §5.2
// synthetic datasets, and record verification must still catch a record
// corrupted on the data disk.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "buffer/lru_simulator.h"
#include "buffer/stack_distance_kernel.h"
#include "exec/index_scan.h"
#include "exec/predicate.h"
#include "index/btree_iterator.h"
#include "storage/record.h"
#include "storage/slotted_page.h"
#include "workload/data_gen.h"

namespace epfis {
namespace {

/// One §5.2 dataset per window fraction K (0 = clustered, 1 = uniform).
class ExecTruthTest : public ::testing::TestWithParam<double> {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.num_records = 8000;
    spec.num_distinct = 400;
    spec.records_per_page = 40;
    spec.theta = 0.86;
    spec.window_fraction = GetParam();
    spec.seed = 1401;
    auto dataset = GenerateSynthetic(spec);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    dataset_ = std::move(dataset).value();
  }

  /// Buffer sizes 1, 5% of T, T and T+1.
  std::vector<size_t> BufferSizes() const {
    const size_t t = dataset_->num_pages();
    return {1, std::max<size_t>(1, t / 20), t, t + 1};
  }

  std::vector<KeyRange> Ranges() const {
    const int64_t keys = static_cast<int64_t>(dataset_->num_distinct());
    return {KeyRange::All(), KeyRange::Closed(1, keys / 10),
            KeyRange::Closed(keys / 3, 2 * keys / 3),
            KeyRange::Closed(keys / 2, keys / 2)};
  }

  /// Rewrites the data-disk copy of the page holding the first record with
  /// key `key`; `edit` receives the page bytes and the record's rid.
  template <typename Edit>
  void CorruptRecordOnDisk(int64_t key, Edit edit) {
    auto it = dataset_->index()->SeekGE(BTree::MinEntryForKey(key));
    ASSERT_TRUE(it.ok());
    ASSERT_TRUE(it->Valid());
    const Rid rid = it->entry().rid;
    std::vector<char> page(kPageSize);
    DiskManager* disk = dataset_->data_disk();
    ASSERT_TRUE(disk->ReadPage(rid.page_id, page.data()).ok());
    edit(page.data(), rid);
    ASSERT_TRUE(disk->WritePage(rid.page_id, page.data()).ok());
  }

  std::unique_ptr<Dataset> dataset_;
};

TEST_P(ExecTruthTest, PoolFetchesEqualLruReplayAndKernel) {
  const SargableFilter filter(0.3, 77);
  for (const KeyRange& range : Ranges()) {
    for (const SargableFilter* f : {static_cast<const SargableFilter*>(nullptr),
                                    &filter}) {
      auto trace = CollectScanTrace(*dataset_->index(), range, f);
      ASSERT_TRUE(trace.ok());
      StackDistanceKernel kernel(trace->size());
      kernel.AccessAll(*trace);
      const std::unordered_set<PageId> distinct(trace->begin(),
                                                trace->end());
      for (size_t b : BufferSizes()) {
        const std::string where = "range=" + range.ToString() +
                                  " filtered=" + std::to_string(f != nullptr) +
                                  " B=" + std::to_string(b);
        auto pool = dataset_->MakeDataPool(b);
        auto result = RunIndexScan(*dataset_->index(), *dataset_->table(),
                                   pool.get(), range, f);
        ASSERT_TRUE(result.ok()) << where << ": "
                                 << result.status().ToString();
        EXPECT_EQ(result->records_fetched, trace->size()) << where;
        EXPECT_EQ(result->data_page_fetches, CountLruFetches(*trace, b))
            << where;
        EXPECT_EQ(result->data_page_fetches, kernel.Fetches(b)) << where;
        EXPECT_EQ(result->data_pages_accessed, distinct.size()) << where;
        EXPECT_EQ(pool->stats().requests, trace->size()) << where;
      }
    }
  }
}

TEST_P(ExecTruthTest, CorruptedKeyIsRejected) {
  const int64_t key = static_cast<int64_t>(dataset_->num_distinct()) / 2;
  CorruptRecordOnDisk(key, [](char* page, const Rid& rid) {
    auto bytes = SlottedPage(page).Get(rid.slot);
    ASSERT_TRUE(bytes.ok());
    const int64_t wrong = -1;
    std::memcpy(const_cast<char*>(bytes->data()), &wrong, sizeof(wrong));
  });
  auto pool = dataset_->MakeDataPool(dataset_->num_pages());
  auto result = RunIndexScan(*dataset_->index(), *dataset_->table(),
                             pool.get(), KeyRange::Closed(key, key));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);

  // With verification off the same scan runs and counts as before.
  IndexScanOptions unverified;
  unverified.verify_records = false;
  auto fresh = dataset_->MakeDataPool(dataset_->num_pages());
  EXPECT_TRUE(RunIndexScan(*dataset_->index(), *dataset_->table(),
                           fresh.get(), KeyRange::Closed(key, key), nullptr,
                           unverified)
                  .ok());
}

TEST_P(ExecTruthTest, CorruptedRecordSizeMatchesDeserializeStatus) {
  const int64_t key = 1;
  std::string stored;
  CorruptRecordOnDisk(key, [&](char* page, const Rid& rid) {
    // Shrink the slot's length field ([offset:u16][length:u16] after the
    // 4-byte page header) by one byte.
    char* length = page + 4 + 4 * rid.slot + 2;
    uint16_t size;
    std::memcpy(&size, length, sizeof(size));
    --size;
    std::memcpy(length, &size, sizeof(size));
    auto bytes = SlottedPage(page).Get(rid.slot);
    ASSERT_TRUE(bytes.ok());
    stored.assign(bytes->data(), bytes->size());
  });
  auto deserialized =
      Record::Deserialize(dataset_->table()->schema(), stored);
  ASSERT_FALSE(deserialized.ok());

  auto pool = dataset_->MakeDataPool(1);
  auto result = RunIndexScan(*dataset_->index(), *dataset_->table(),
                             pool.get(), KeyRange::Closed(key, key));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(result.status().message(), deserialized.status().message());
}

INSTANTIATE_TEST_SUITE_P(SectionFiveTwo, ExecTruthTest,
                         ::testing::Values(0.0, 0.1, 1.0));

}  // namespace
}  // namespace epfis
