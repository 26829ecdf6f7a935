#include "buffer/buffer_pool.h"

#include <cstring>
#include <string>

#include "buffer/lru_replacer.h"

namespace epfis {

BufferPool::BufferPool(DiskManager* disk, size_t pool_size,
                       std::unique_ptr<Replacer> replacer)
    : disk_(disk),
      replacer_(std::move(replacer)),
      data_(std::make_unique_for_overwrite<char[]>(pool_size * kPageSize)),
      frames_(pool_size),
      page_table_(disk->num_pages(), kNoFrame) {
  if (replacer_ == nullptr) {
    replacer_ = std::make_unique<LruReplacer>(pool_size);
  }
  free_list_.reserve(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    // Hand out low frame indices first.
    free_list_.push_back(pool_size - 1 - i);
  }
}

BufferPool::~BufferPool() {
  // Best-effort flush so tests that re-open data through a fresh pool see
  // the latest contents.
  (void)FlushAll();
}

Result<FrameId> BufferPool::GetVictimFrame() {
  if (!free_list_.empty()) {
    FrameId frame = free_list_.back();
    free_list_.pop_back();
    return frame;
  }
  std::optional<FrameId> victim = replacer_->Evict();
  if (!victim.has_value()) {
    return Status::ResourceExhausted("all buffer frames are pinned");
  }
  Frame& frame = frames_[*victim];
  ++stats_.evictions;
  if (frame.dirty) {
    EPFIS_RETURN_IF_ERROR(disk_->WritePage(frame.page_id, FrameData(*victim)));
    ++stats_.writebacks;
    frame.dirty = false;
  }
  page_table_[frame.page_id] = kNoFrame;
  frame.page_id = kInvalidPageId;
  return *victim;
}

void BufferPool::CoverDiskPages() {
  // The disk grows through NewPage, or through another pool over it.
  if (page_table_.size() < disk_->num_pages()) {
    page_table_.resize(disk_->num_pages(), kNoFrame);
  }
}

PageGuard BufferPool::Install(PageId page_id, FrameId frame_id, bool dirty) {
  Frame& frame = frames_[frame_id];
  frame.page_id = page_id;
  frame.pin_count = 1;
  frame.dirty = dirty;
  page_table_[page_id] = frame_id;
  replacer_->RecordAccess(frame_id);
  replacer_->SetEvictable(frame_id, false);
  return PageGuard(this, frame_id, page_id, FrameData(frame_id));
}

Result<PageGuard> BufferPool::FetchPage(PageId page_id) {
  ++stats_.requests;
  if (page_id < page_table_.size() && page_table_[page_id] != kNoFrame) {
    const FrameId frame_id = page_table_[page_id];
    ++stats_.hits;
    ++frames_[frame_id].pin_count;
    replacer_->RecordAccess(frame_id);
    replacer_->SetEvictable(frame_id, false);
    return PageGuard(this, frame_id, page_id, FrameData(frame_id));
  }

  // Bounds first: a fetch that cannot succeed must not evict a victim.
  const uint32_t disk_pages = disk_->num_pages();
  if (page_id >= disk_pages) {
    return Status::OutOfRange("FetchPage: page " + std::to_string(page_id) +
                              " beyond disk size " +
                              std::to_string(disk_pages));
  }
  CoverDiskPages();
  EPFIS_ASSIGN_OR_RETURN(FrameId frame_id, GetVictimFrame());
  Status read = disk_->ReadPage(page_id, FrameData(frame_id));
  if (!read.ok()) {
    free_list_.push_back(frame_id);
    return read;
  }
  ++stats_.fetches;
  return Install(page_id, frame_id, /*dirty=*/false);
}

Result<PageGuard> BufferPool::NewPage() {
  EPFIS_ASSIGN_OR_RETURN(FrameId frame_id, GetVictimFrame());
  PageId page_id = disk_->AllocatePage();
  CoverDiskPages();
  std::memset(FrameData(frame_id), 0, kPageSize);
  // Dirty: must be written back even if never modified again.
  return Install(page_id, frame_id, /*dirty=*/true);
}

void BufferPool::Unpin(FrameId frame_id, bool dirty) {
  Frame& frame = frames_[frame_id];
  if (frame.pin_count == 0) return;
  frame.dirty = frame.dirty || dirty;
  if (--frame.pin_count == 0) {
    replacer_->SetEvictable(frame_id, true);
  }
}

Status BufferPool::FlushAll() {
  for (FrameId f = 0; f < frames_.size(); ++f) {
    Frame& frame = frames_[f];
    if (frame.page_id != kInvalidPageId && frame.dirty) {
      EPFIS_RETURN_IF_ERROR(disk_->WritePage(frame.page_id, FrameData(f)));
      ++stats_.writebacks;
      frame.dirty = false;
    }
  }
  return Status::Ok();
}

size_t BufferPool::num_pinned() const {
  size_t pinned = 0;
  for (const Frame& frame : frames_) {
    if (frame.page_id != kInvalidPageId && frame.pin_count > 0) ++pinned;
  }
  return pinned;
}

}  // namespace epfis
