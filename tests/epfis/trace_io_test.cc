#include "epfis/trace_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "epfis/lru_fit.h"
#include "util/random.h"

namespace epfis {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test path: ctest runs each TEST as its own process, and
    // parallel processes sharing one file would race on it.
    path_ = testing::TempDir() + "/epfis_trace_test_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(TraceIoTest, PageTraceRoundTrip) {
  Rng rng(19);
  std::vector<PageId> trace;
  for (int i = 0; i < 10000; ++i) {
    trace.push_back(static_cast<PageId>(rng.NextBounded(500)));
  }
  ASSERT_TRUE(SavePageTrace(trace, path_).ok());
  auto loaded = LoadPageTrace(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, trace);
}

TEST_F(TraceIoTest, EmptyPageTraceRoundTrip) {
  ASSERT_TRUE(SavePageTrace({}, path_).ok());
  auto loaded = LoadPageTrace(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST_F(TraceIoTest, KeyPageTraceRoundTrip) {
  std::vector<KeyPageRef> trace;
  for (int64_t k = 0; k < 3000; ++k) {
    trace.push_back(KeyPageRef{k / 3, static_cast<PageId>(k % 97)});
  }
  ASSERT_TRUE(SaveKeyPageTrace(trace, path_).ok());
  auto loaded = LoadKeyPageTrace(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ((*loaded)[i].key, trace[i].key);
    EXPECT_EQ((*loaded)[i].page, trace[i].page);
  }
}

TEST_F(TraceIoTest, WrongMagicRejected) {
  ASSERT_TRUE(SavePageTrace({1, 2, 3}, path_).ok());
  // A page trace is not a key-page trace.
  EXPECT_EQ(LoadKeyPageTrace(path_).status().code(), StatusCode::kCorruption);
}

TEST_F(TraceIoTest, TruncationDetected) {
  ASSERT_TRUE(SavePageTrace({1, 2, 3, 4, 5, 6, 7, 8}, path_).ok());
  // Chop the file mid-body.
  std::ifstream in(path_, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size() - 6));
  out.close();
  EXPECT_EQ(LoadPageTrace(path_).status().code(), StatusCode::kCorruption);
}

TEST_F(TraceIoTest, TrailingGarbageDetected) {
  ASSERT_TRUE(SavePageTrace({1, 2, 3}, path_).ok());
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  out.write("junk", 4);
  out.close();
  EXPECT_EQ(LoadPageTrace(path_).status().code(), StatusCode::kCorruption);
}

TEST_F(TraceIoTest, MissingFileIsIoError) {
  EXPECT_EQ(LoadPageTrace("/no/such/dir/file.bin").status().code(),
            StatusCode::kIoError);
}

TEST_F(TraceIoTest, OfflineLruFitFromPersistedTrace) {
  // The decoupled workflow: persist the statistics scan, replay LRU-Fit
  // offline, get identical catalog statistics.
  Rng rng(23);
  std::vector<PageId> trace;
  PageId page = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.NextBernoulli(0.8)) page = (page + 1) % 300;
    else page = static_cast<PageId>(rng.NextBounded(300));
    trace.push_back(page);
  }
  auto live = RunLruFit(trace, 300, 100, "idx").value();

  ASSERT_TRUE(SavePageTrace(trace, path_).ok());
  auto replayed_trace = LoadPageTrace(path_);
  ASSERT_TRUE(replayed_trace.ok());
  auto offline = RunLruFit(*replayed_trace, 300, 100, "idx").value();

  EXPECT_EQ(offline.f_min, live.f_min);
  EXPECT_DOUBLE_EQ(offline.clustering, live.clustering);
  EXPECT_EQ(offline.fpf->knots(), live.fpf->knots());
}

}  // namespace
}  // namespace epfis
