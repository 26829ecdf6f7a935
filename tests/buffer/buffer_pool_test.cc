#include "buffer/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "storage/disk_manager.h"

namespace epfis {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  DiskManager disk_;
};

TEST_F(BufferPoolTest, NewPagePinsAndWritesBack) {
  BufferPool pool(&disk_, 2);
  PageId pid;
  {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    pid = guard->page_id();
    std::strcpy(guard->mutable_data(), "payload");
    EXPECT_EQ(pool.num_pinned(), 1u);
  }
  EXPECT_EQ(pool.num_pinned(), 0u);
  ASSERT_TRUE(pool.FlushAll().ok());

  char buf[kPageSize];
  ASSERT_TRUE(disk_.ReadPage(pid, buf).ok());
  EXPECT_STREQ(buf, "payload");
}

TEST_F(BufferPoolTest, FetchHitAvoidsDiskRead) {
  BufferPool pool(&disk_, 2);
  PageId pid;
  {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    pid = guard->page_id();
  }
  uint64_t reads_before = disk_.num_reads();
  {
    auto guard = pool.FetchPage(pid);
    ASSERT_TRUE(guard.ok());
  }
  EXPECT_EQ(disk_.num_reads(), reads_before);  // Still resident: hit.
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().fetches, 0u);
}

TEST_F(BufferPoolTest, EvictionWritesDirtyPageAndRefetchWorks) {
  BufferPool pool(&disk_, 1);  // Single frame: every new page evicts.
  PageId p0, p1;
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    p0 = g->page_id();
    std::strcpy(g->mutable_data(), "zero");
  }
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    p1 = g->page_id();
    std::strcpy(g->mutable_data(), "one");
  }
  // p0 was evicted (written back); fetch it again.
  auto g = pool.FetchPage(p0);
  ASSERT_TRUE(g.ok());
  EXPECT_STREQ(g->data(), "zero");
  EXPECT_EQ(pool.stats().fetches, 1u);
  EXPECT_GE(pool.stats().evictions, 2u);
  (void)p1;
}

TEST_F(BufferPoolTest, AllFramesPinnedFailsGracefully) {
  BufferPool pool(&disk_, 2);
  auto g1 = pool.NewPage();
  auto g2 = pool.NewPage();
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  auto g3 = pool.NewPage();
  EXPECT_FALSE(g3.ok());
  EXPECT_EQ(g3.status().code(), StatusCode::kResourceExhausted);
  g1->Release();
  auto g4 = pool.NewPage();
  EXPECT_TRUE(g4.ok());
}

TEST_F(BufferPoolTest, FetchUnknownPageFails) {
  // A failed fetch must not evict anything: on a one-frame pool the
  // resident page still hits afterwards and no eviction is counted.
  PageId p0 = disk_.AllocatePage();
  BufferPool pool(&disk_, 1);
  { ASSERT_TRUE(pool.FetchPage(p0).ok()); }
  const BufferPoolStats before = pool.stats();
  auto g = pool.FetchPage(99);
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pool.stats().evictions, before.evictions);
  EXPECT_EQ(pool.stats().fetches, before.fetches);
  { ASSERT_TRUE(pool.FetchPage(p0).ok()); }
  EXPECT_EQ(pool.stats().hits, before.hits + 1);
  EXPECT_EQ(pool.stats().evictions, before.evictions);
  // The frame must be reusable afterwards.
  EXPECT_TRUE(pool.NewPage().ok());
}

TEST_F(BufferPoolTest, DoublePinTracksPinCount) {
  BufferPool pool(&disk_, 2);
  PageId pid;
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    pid = g->page_id();
    auto g2 = pool.FetchPage(pid);
    ASSERT_TRUE(g2.ok());
    EXPECT_EQ(pool.num_pinned(), 1u);  // One page, pinned twice.
  }
  EXPECT_EQ(pool.num_pinned(), 0u);
}

TEST_F(BufferPoolTest, MoveSemanticsOfGuard) {
  BufferPool pool(&disk_, 2);
  auto g = pool.NewPage();
  ASSERT_TRUE(g.ok());
  PageGuard moved = std::move(g).value();
  EXPECT_TRUE(moved.valid());
  PageGuard assigned;
  assigned = std::move(moved);
  EXPECT_TRUE(assigned.valid());
  EXPECT_FALSE(moved.valid());  // NOLINT(bugprone-use-after-move)
  assigned.Release();
  EXPECT_EQ(pool.num_pinned(), 0u);
}

TEST_F(BufferPoolTest, LruEvictionOrderRespected) {
  BufferPool pool(&disk_, 3);
  PageId pids[5];
  for (int i = 0; i < 3; ++i) {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    pids[i] = g->page_id();
  }
  // Touch page 0 so page 1 becomes LRU.
  { ASSERT_TRUE(pool.FetchPage(pids[0]).ok()); }
  // New page evicts pids[1].
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    pids[3] = g->page_id();
  }
  pool.ResetStats();
  { ASSERT_TRUE(pool.FetchPage(pids[0]).ok()); }  // Hit.
  { ASSERT_TRUE(pool.FetchPage(pids[2]).ok()); }  // Hit.
  EXPECT_EQ(pool.stats().fetches, 0u);
  { ASSERT_TRUE(pool.FetchPage(pids[1]).ok()); }  // Miss: was evicted.
  EXPECT_EQ(pool.stats().fetches, 1u);
}

TEST_F(BufferPoolTest, EvictionOrderWithOverlappingPins) {
  // Recency is set by the fetch, not by the unpin; pinned frames keep their
  // place in the order and are skipped; a page pinned twice stays pinned
  // until both pins are gone.
  PageId p[6];
  for (PageId& id : p) id = disk_.AllocatePage();
  BufferPool pool(&disk_, 3);
  auto a = pool.FetchPage(p[0]);
  auto b = pool.FetchPage(p[1]);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  { ASSERT_TRUE(pool.FetchPage(p[2]).ok()); }
  auto a2 = pool.FetchPage(p[0]);  // Second pin of p0; p0 is now MRU.
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(pool.num_pinned(), 2u);
  a->Release();  // p0 is still pinned through a2.
  EXPECT_EQ(pool.num_pinned(), 2u);

  // Order p1, p2, p0 (LRU first); only p2 is evictable.
  { ASSERT_TRUE(pool.FetchPage(p[3]).ok()); }
  EXPECT_EQ(pool.stats().evictions, 1u);
  // Order p1, p0, p3; p3 is the only evictable frame.
  { ASSERT_TRUE(pool.FetchPage(p[4]).ok()); }
  EXPECT_EQ(pool.stats().evictions, 2u);
  // Order p1, p0, p4: with p1 and p0 pinned only p4 can go.
  { ASSERT_TRUE(pool.FetchPage(p[5]).ok()); }
  EXPECT_EQ(pool.stats().evictions, 3u);

  b->Release();
  a2->Release();
  EXPECT_EQ(pool.num_pinned(), 0u);
  // Order p1, p0, p5, all evictable: p1 goes first, then p0.
  pool.ResetStats();
  { ASSERT_TRUE(pool.FetchPage(p[2]).ok()); }  // Evicts p1.
  { ASSERT_TRUE(pool.FetchPage(p[5]).ok()); }  // Hit.
  { ASSERT_TRUE(pool.FetchPage(p[0]).ok()); }  // Hit.
  EXPECT_EQ(pool.stats().fetches, 1u);
  EXPECT_EQ(pool.stats().hits, 2u);
  // Order p2, p5, p0.
  { ASSERT_TRUE(pool.FetchPage(p[1]).ok()); }  // Evicts p2.
  { ASSERT_TRUE(pool.FetchPage(p[5]).ok()); }  // Hit.
  { ASSERT_TRUE(pool.FetchPage(p[2]).ok()); }  // Miss: evicts p0.
  EXPECT_EQ(pool.stats().fetches, 3u);
  EXPECT_EQ(pool.stats().hits, 3u);
  EXPECT_EQ(pool.stats().evictions, 3u);

  // Every frame pinned, one page twice: a miss has no victim.
  auto x = pool.FetchPage(p[1]);
  auto y = pool.FetchPage(p[5]);
  auto z = pool.FetchPage(p[2]);
  auto z2 = pool.FetchPage(p[2]);
  ASSERT_TRUE(x.ok() && y.ok() && z.ok() && z2.ok());
  auto none = pool.FetchPage(p[3]);
  EXPECT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kResourceExhausted);
  z->Release();  // p2 is still pinned by z2.
  none = pool.FetchPage(p[3]);
  EXPECT_EQ(none.status().code(), StatusCode::kResourceExhausted);
  z2->Release();
  EXPECT_TRUE(pool.FetchPage(p[3]).ok());  // Evicts p2.
  EXPECT_EQ(pool.num_pinned(), 2u);
}

TEST_F(BufferPoolTest, StatsCountRequestsHitsFetches) {
  BufferPool pool(&disk_, 2);
  PageId pid;
  {
    auto g = pool.NewPage();
    ASSERT_TRUE(g.ok());
    pid = g->page_id();
  }
  { ASSERT_TRUE(pool.FetchPage(pid).ok()); }
  { ASSERT_TRUE(pool.FetchPage(pid).ok()); }
  EXPECT_EQ(pool.stats().requests, 2u);
  EXPECT_EQ(pool.stats().hits, 2u);
  EXPECT_EQ(pool.stats().fetches, 0u);
}

}  // namespace
}  // namespace epfis
