#include "buffer/lru_replacer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>

#include "util/random.h"

namespace epfis {
namespace {

TEST(LruReplacerTest, EvictsLeastRecentlyUsed) {
  LruReplacer replacer;
  for (FrameId f : {0u, 1u, 2u}) {
    replacer.RecordAccess(f);
    replacer.SetEvictable(f, true);
  }
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(0));
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(1));
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(2));
  EXPECT_EQ(replacer.Evict(), std::nullopt);
}

TEST(LruReplacerTest, RecordAccessMovesToMru) {
  LruReplacer replacer;
  for (FrameId f : {0u, 1u, 2u}) {
    replacer.RecordAccess(f);
    replacer.SetEvictable(f, true);
  }
  replacer.RecordAccess(0);  // 0 becomes most recent.
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(1));
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(2));
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(0));
}

TEST(LruReplacerTest, PinnedFramesSkipped) {
  LruReplacer replacer;
  for (FrameId f : {0u, 1u, 2u}) {
    replacer.RecordAccess(f);
    replacer.SetEvictable(f, true);
  }
  replacer.SetEvictable(0, false);
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(1));
  replacer.SetEvictable(0, true);
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(0));
}

TEST(LruReplacerTest, AllPinnedYieldsNullopt) {
  LruReplacer replacer;
  replacer.RecordAccess(0);
  replacer.SetEvictable(0, false);
  EXPECT_EQ(replacer.Evict(), std::nullopt);
}

TEST(LruReplacerTest, RemoveDropsFrame) {
  LruReplacer replacer;
  replacer.RecordAccess(0);
  replacer.SetEvictable(0, true);
  replacer.RecordAccess(1);
  replacer.SetEvictable(1, true);
  replacer.Remove(0);
  EXPECT_EQ(replacer.num_tracked(), 1u);
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(1));
  replacer.Remove(42);  // Unknown frame: no-op.
}

TEST(LruReplacerTest, SetEvictableOnUnknownFrameRegistersIt) {
  LruReplacer replacer;
  replacer.SetEvictable(7, true);
  EXPECT_EQ(replacer.Evict(), std::optional<FrameId>(7));
}

/// Reference model of the replacer contract, kept deliberately naive: one
/// list in recency order (front = least recent) of (frame, evictable).
class LruOracle {
 public:
  void RecordAccess(FrameId frame) {
    auto it = Find(frame);
    bool evictable = false;
    if (it != order_.end()) {
      evictable = it->second;
      order_.erase(it);
    }
    order_.emplace_back(frame, evictable);
  }

  void SetEvictable(FrameId frame, bool evictable) {
    if (Find(frame) == order_.end()) RecordAccess(frame);
    Find(frame)->second = evictable;
  }

  std::optional<FrameId> Evict() {
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      if (it->second) {
        FrameId victim = it->first;
        order_.erase(it);
        return victim;
      }
    }
    return std::nullopt;
  }

  void Remove(FrameId frame) {
    auto it = Find(frame);
    if (it != order_.end()) order_.erase(it);
  }

  size_t size() const { return order_.size(); }

 private:
  std::list<std::pair<FrameId, bool>>::iterator Find(FrameId frame) {
    return std::find_if(order_.begin(), order_.end(),
                        [frame](const auto& e) { return e.first == frame; });
  }

  std::list<std::pair<FrameId, bool>> order_;
};

TEST(LruReplacerTest, MatchesReferenceModelOnRandomOperations) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    LruReplacer replacer;
    LruOracle oracle;
    // Few frames, so operations collide on the same frame often; the
    // frame range grows with the seed to exercise sparse frame ids.
    const uint64_t frames = 2 + seed % 11;
    for (int step = 0; step < 2000; ++step) {
      const FrameId frame = rng.NextBounded(frames);
      const std::string where =
          "seed=" + std::to_string(seed) + " step=" + std::to_string(step);
      switch (rng.NextBounded(8)) {
        case 0:
        case 1:
        case 2:
          replacer.RecordAccess(frame);
          oracle.RecordAccess(frame);
          break;
        case 3:
        case 4: {
          const bool evictable = rng.NextBernoulli(0.7);
          replacer.SetEvictable(frame, evictable);
          oracle.SetEvictable(frame, evictable);
          break;
        }
        case 5:
        case 6:
          ASSERT_EQ(replacer.Evict(), oracle.Evict()) << where;
          break;
        default:
          replacer.Remove(frame);
          oracle.Remove(frame);
          break;
      }
      ASSERT_EQ(replacer.num_tracked(), oracle.size()) << where;
    }
    // Drain: the remaining victims come out in the model's order.
    std::optional<FrameId> victim;
    do {
      victim = oracle.Evict();
      ASSERT_EQ(replacer.Evict(), victim) << "seed=" << seed;
    } while (victim.has_value());
  }
}

}  // namespace
}  // namespace epfis
