#include "buffer/lru_replacer.h"

namespace epfis {

LruReplacer::LruReplacer(size_t num_frames) : nodes_(num_frames) {}

void LruReplacer::PushBack(FrameId frame) {
  Node& node = nodes_[frame];
  node.prev = tail_;
  node.next = kNil;
  if (tail_ == kNil) {
    head_ = frame;
  } else {
    nodes_[tail_].next = frame;
  }
  tail_ = frame;
}

void LruReplacer::Unlink(FrameId frame) {
  Node& node = nodes_[frame];
  if (node.prev == kNil) {
    head_ = node.next;
  } else {
    nodes_[node.prev].next = node.next;
  }
  if (node.next == kNil) {
    tail_ = node.prev;
  } else {
    nodes_[node.next].prev = node.prev;
  }
}

void LruReplacer::RecordAccess(FrameId frame) {
  if (frame >= nodes_.size()) nodes_.resize(frame + 1);
  Node& node = nodes_[frame];
  if (node.tracked) {
    if (tail_ == frame) return;  // Already the most recent.
    Unlink(frame);
  } else {
    node.tracked = true;
    node.evictable = false;
    ++num_tracked_;
  }
  PushBack(frame);
}

void LruReplacer::SetEvictable(FrameId frame, bool evictable) {
  // Unknown frame: treat as an access first so SetEvictable is safe to call
  // in any order.
  if (frame >= nodes_.size() || !nodes_[frame].tracked) RecordAccess(frame);
  nodes_[frame].evictable = evictable;
}

std::optional<FrameId> LruReplacer::Evict() {
  for (FrameId frame = head_; frame != kNil; frame = nodes_[frame].next) {
    if (nodes_[frame].evictable) {
      Remove(frame);
      return frame;
    }
  }
  return std::nullopt;
}

void LruReplacer::Remove(FrameId frame) {
  if (frame >= nodes_.size() || !nodes_[frame].tracked) return;
  Unlink(frame);
  nodes_[frame] = Node{};
  --num_tracked_;
}

}  // namespace epfis
