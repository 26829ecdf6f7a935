#ifndef EPFIS_BUFFER_BUFFER_POOL_H_
#define EPFIS_BUFFER_BUFFER_POOL_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "buffer/replacer.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/result.h"

namespace epfis {

class BufferPool;

/// RAII pin on a buffered page. While alive, the page stays in its frame;
/// destruction unpins it. Move-only.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }

  const char* data() const { return data_; }
  /// Mutable access marks the page dirty (it will be written back on
  /// eviction or flush).
  char* mutable_data() {
    dirty_ = true;
    return data_;
  }

  /// Explicitly releases the pin early.
  inline void Release();

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, FrameId frame, PageId page_id, char* data)
      : pool_(pool), frame_(frame), page_id_(page_id), data_(data) {}

  BufferPool* pool_ = nullptr;
  FrameId frame_ = 0;  // Where the page sits, so unpinning needs no lookup.
  PageId page_id_ = kInvalidPageId;
  char* data_ = nullptr;
  bool dirty_ = false;
};

/// Counters describing buffer pool traffic. `fetches` is the paper's F: the
/// number of physical page reads issued to the disk manager.
struct BufferPoolStats {
  uint64_t requests = 0;  // Logical page accesses (A counts distinct pages).
  uint64_t hits = 0;      // Requests satisfied from the pool.
  uint64_t fetches = 0;   // Physical reads (misses).
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
};

/// A classic pin/unpin buffer pool over a DiskManager with a pluggable
/// replacement policy (LRU by default). This is the system the paper
/// assumes: an LRU-managed pool of B page slots; the measured "number of
/// page fetches" for a scan is exactly `stats().fetches`.
///
/// Layout: the frames' page bytes are one `pool_size * kPageSize` block
/// (left uninitialised: every frame is filled by a read or zeroed by
/// NewPage before use), frame metadata is a parallel array, and the page
/// table is a dense PageId -> frame array, which works because DiskManager
/// hands out page ids sequentially; it grows when the disk does.
class BufferPool {
 public:
  /// Creates a pool of `pool_size` frames. If `replacer` is null an
  /// LruReplacer is used.
  BufferPool(DiskManager* disk, size_t pool_size,
             std::unique_ptr<Replacer> replacer = nullptr);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins `page_id`, reading it from disk on a miss. Fails if every frame
  /// is pinned or the page does not exist; a failed fetch evicts nothing.
  Result<PageGuard> FetchPage(PageId page_id);

  /// Allocates a new page on disk and pins it (counted as neither hit nor
  /// fetch: no read happens).
  Result<PageGuard> NewPage();

  /// Writes back every dirty page (pages stay resident).
  Status FlushAll();

  size_t pool_size() const { return frames_.size(); }
  /// The disk this pool caches (its num_pages() bounds every page id).
  const DiskManager& disk() const { return *disk_; }
  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferPoolStats{}; }

  /// Number of currently pinned pages (for tests).
  size_t num_pinned() const;

 private:
  friend class PageGuard;

  static constexpr FrameId kNoFrame = std::numeric_limits<FrameId>::max();

  struct Frame {
    PageId page_id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
  };

  char* FrameData(FrameId frame) const {
    return data_.get() + frame * kPageSize;
  }
  void Unpin(FrameId frame, bool dirty);
  Result<FrameId> GetVictimFrame();
  /// Grows the page table to cover every page the disk has.
  void CoverDiskPages();
  /// Maps `page_id` to `frame` and pins it once.
  PageGuard Install(PageId page_id, FrameId frame, bool dirty);

  DiskManager* disk_;
  std::unique_ptr<Replacer> replacer_;
  std::unique_ptr<char[]> data_;  // pool_size * kPageSize bytes.
  std::vector<Frame> frames_;
  std::vector<FrameId> free_list_;
  std::vector<FrameId> page_table_;  // PageId -> frame, or kNoFrame.
  BufferPoolStats stats_;
};

// Guard moves and releases sit on every page request of a scan, so they
// are inline.
inline PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_id_ = other.page_id_;
    data_ = other.data_;
    dirty_ = other.dirty_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

inline void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_, dirty_);
    pool_ = nullptr;
    data_ = nullptr;
  }
}

}  // namespace epfis

#endif  // EPFIS_BUFFER_BUFFER_POOL_H_
