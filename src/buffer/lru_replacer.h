#ifndef EPFIS_BUFFER_LRU_REPLACER_H_
#define EPFIS_BUFFER_LRU_REPLACER_H_

#include <limits>
#include <vector>

#include "buffer/replacer.h"

namespace epfis {

/// Strict least-recently-used replacement: victims are chosen in order of
/// least recent access among evictable frames. O(1) per operation except
/// Evict, which skips pinned frames from the least-recent end.
///
/// The recency order is a doubly linked list threaded through per-frame
/// prev/next indices, so no operation allocates once the arrays cover every
/// frame id seen (pass the pool size to pre-size them).
class LruReplacer final : public Replacer {
 public:
  explicit LruReplacer(size_t num_frames = 0);

  void RecordAccess(FrameId frame) override;
  void SetEvictable(FrameId frame, bool evictable) override;
  std::optional<FrameId> Evict() override;
  void Remove(FrameId frame) override;

  size_t num_tracked() const { return num_tracked_; }

 private:
  static constexpr FrameId kNil = std::numeric_limits<FrameId>::max();

  struct Node {
    FrameId prev = kNil;  // Toward the least recent end.
    FrameId next = kNil;  // Toward the most recent end.
    bool tracked = false;
    bool evictable = false;
  };

  /// Appends a tracked-but-unlinked frame at the most recent end.
  void PushBack(FrameId frame);
  /// Detaches a tracked frame from the order (it stays tracked).
  void Unlink(FrameId frame);

  std::vector<Node> nodes_;  // Indexed by frame id; grows on demand.
  FrameId head_ = kNil;      // Least recently used.
  FrameId tail_ = kNil;      // Most recently used.
  size_t num_tracked_ = 0;
};

}  // namespace epfis

#endif  // EPFIS_BUFFER_LRU_REPLACER_H_
