#include "epfis/uring_trace_source.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "epfis/trace_io.h"
#include "obs/metrics.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/watchdog.h"

#ifndef EPFIS_URING_ENABLED
#define EPFIS_URING_ENABLED 1
#endif

// Geometry validation needs only POSIX fds; the ring itself additionally
// needs Linux io_uring UAPI headers and the EPFIS_URING=ON build. Keeping
// the gates separate lets stub builds still hand out the correct
// Corruption verdict for a bad file (callers distinguish "bad file" from
// "missing feature").
#if defined(__unix__) || defined(__APPLE__)
#define EPFIS_URING_POSIX 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#if EPFIS_URING_ENABLED && defined(__linux__) && defined(__has_include)
#if __has_include(<linux/io_uring.h>)
#define EPFIS_URING_IMPL 1
#endif
#endif

#ifdef EPFIS_URING_IMPL
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#endif

namespace epfis {
namespace {

// 256KB blocks, four in flight: deep enough to cover device latency at
// streaming bandwidth, small enough that a Reset or teardown drains in
// one ring spin. The block size satisfies every O_DIRECT alignment rule
// (multiple of 4096), and with the 16-byte header inside block 0 and
// 4-byte entries, a trace entry never straddles a block boundary.
constexpr size_t kBlockSize = 256 * 1024;
constexpr unsigned kQueueDepth = 4;
constexpr size_t kBufAlign = 4096;

static_assert(kPageTraceHeaderSize % sizeof(PageId) == 0);
static_assert(kBlockSize % kBufAlign == 0);
static_assert(kBlockSize % sizeof(PageId) == 0);

// Eager geometry validation through a plain fd, mirroring the streaming
// reader's taxonomy byte for byte (the mmap source does the same checks
// inline). The ring never touches the file until this has passed.
Status ValidateTraceGeometry(const std::string& path, uint64_t* count_out,
                             uint64_t* file_size_out) {
#ifdef EPFIS_URING_POSIX
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat " + path);
  }
  uint64_t file_size = static_cast<uint64_t>(st.st_size);
  char header[kPageTraceHeaderSize];
  ssize_t got = ::pread(fd, header, sizeof(header), 0);
  ::close(fd);
  if (got < 8 || std::memcmp(header, kPageTraceMagic, 8) != 0) {
    return Status::Corruption("trace file: bad magic");
  }
  if (static_cast<size_t>(got) < sizeof(header)) {
    return Status::Corruption("trace file: truncated header");
  }
  uint64_t count;
  std::memcpy(&count, header + 8, sizeof(count));
  uint64_t body = file_size - kPageTraceHeaderSize;
  if (count > body / sizeof(PageId)) {
    return Status::Corruption("trace file: truncated body");
  }
  if (body > count * sizeof(PageId)) {
    return Status::Corruption("trace file: trailing bytes");
  }
  *count_out = count;
  *file_size_out = file_size;
  return Status::Ok();
#else
  (void)path;
  (void)count_out;
  (void)file_size_out;
  return Status::FailedPrecondition("POSIX I/O unavailable on this platform");
#endif
}

}  // namespace

#ifdef EPFIS_URING_IMPL

namespace {

int SysUringSetup(unsigned entries, struct io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int SysUringEnter(int fd, unsigned to_submit, unsigned min_complete,
                  unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

}  // namespace

// Ring state: the three kernel mappings, the per-slot read-ahead buffers,
// and the block cursor. Single-consumer by TraceSource contract, so ring
// index traffic is this thread against the kernel — acquire on
// kernel-written tails, release on our own head/tail stores.
struct UringTraceSource::Ring {
  int ring_fd = -1;
  int file_fd = -1;
  bool o_direct = false;

  void* sq_ptr = nullptr;
  size_t sq_len = 0;
  void* cq_ptr = nullptr;  // == sq_ptr under IORING_FEAT_SINGLE_MMAP.
  size_t cq_len = 0;
  struct io_uring_sqe* sqes = nullptr;
  size_t sqes_len = 0;

  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned* sq_mask = nullptr;
  unsigned* sq_array = nullptr;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned* cq_mask = nullptr;
  struct io_uring_cqe* cqes = nullptr;

  uint64_t file_size = 0;
  uint64_t count = 0;  // Trace entries.
  uint64_t num_blocks = 0;

  // Read-ahead slots; block b lives in slot b % kQueueDepth. The window
  // [next_consume, next_consume + kQueueDepth) never holds two blocks
  // with the same residue, so a slot is always free by the time TopUp
  // reassigns it.
  struct SlotState {
    uint64_t block = 0;   // Which block occupies the slot.
    size_t filled = 0;    // Bytes completed so far.
    size_t expected = 0;  // Bytes this block spans in the file.
    bool ready = false;
  };
  void* bufs[kQueueDepth] = {};
  SlotState slots[kQueueDepth] = {};
  uint64_t next_submit = 0;   // Next block to put in flight.
  uint64_t next_consume = 0;  // Next block the reader will drain.
  unsigned in_flight = 0;
  uint64_t pos = 0;  // Next entry index to hand out.
  Status failed;     // Sticky I/O failure; Next keeps returning it.
  // Cooperative cancellation, polled between blocking ring waits; the
  // optional heartbeat marks drain progress for an external watchdog
  // (which fires `cancel` when a drain goes silent past its budget).
  CancellationToken cancel;
  std::shared_ptr<Watchdog::Heartbeat> heartbeat;
  // Destructor drain: reads that come back short or failed are marked
  // done instead of resubmitted — the buffers are about to be freed and
  // every request must leave the kernel first.
  bool teardown = false;

  Stats stats;

  ~Ring() {
    teardown = true;
    while (in_flight > 0) {
      // !ok here means io_uring_enter itself died — the ring is gone and
      // the kernel has torn the requests down with it.
      if (!ReapOne(/*wait=*/true).ok()) break;
    }
    if (sqes != nullptr) ::munmap(sqes, sqes_len);
    if (cq_ptr != nullptr && cq_ptr != sq_ptr) ::munmap(cq_ptr, cq_len);
    if (sq_ptr != nullptr) ::munmap(sq_ptr, sq_len);
    if (ring_fd >= 0) ::close(ring_fd);
    if (file_fd >= 0) ::close(file_fd);
    for (void* b : bufs) std::free(b);
  }

  // Pushes one READ sqe for `block` starting `buf_offset` bytes in. The
  // SQ is as deep as the slot window, so a submittable block implies a
  // free sqe; no full-queue case exists.
  Status SubmitRead(uint64_t block, size_t buf_offset) {
    unsigned slot = static_cast<unsigned>(block % kQueueDepth);
    unsigned tail = *sq_tail;
    unsigned idx = tail & *sq_mask;
    struct io_uring_sqe* sqe = &sqes[idx];
    std::memset(sqe, 0, sizeof(*sqe));
    sqe->opcode = IORING_OP_READ;
    sqe->fd = file_fd;
    sqe->addr = reinterpret_cast<uint64_t>(static_cast<char*>(bufs[slot]) +
                                           buf_offset);
    // Always request to the end of the block, not just to `expected`:
    // O_DIRECT demands 512-aligned lengths, and the file's final partial
    // block almost never is. Reading past EOF just comes back short —
    // the completion path treats filled >= expected as done. Mid-file
    // short reads under O_DIRECT stop on sector boundaries, so the
    // continuation's offset/address stay aligned too.
    sqe->len = static_cast<unsigned>(kBlockSize - buf_offset);
    sqe->off = block * kBlockSize + buf_offset;
    sqe->user_data = block;
    sq_array[idx] = idx;
    __atomic_store_n(sq_tail, tail + 1, __ATOMIC_RELEASE);
    for (;;) {
      int ret = SysUringEnter(ring_fd, 1, 0, 0);
      if (ret >= 0) break;
      if (errno == EINTR || errno == EAGAIN) continue;
      return Status::IoError(std::string("io_uring_enter: ") +
                             std::strerror(errno));
    }
    ++in_flight;
    return Status::Ok();
  }

  // Starts block `block` in its slot from scratch.
  Status SubmitBlock(uint64_t block) {
    unsigned slot = static_cast<unsigned>(block % kQueueDepth);
    SlotState& s = slots[slot];
    s.block = block;
    s.filled = 0;
    s.expected = static_cast<size_t>(
        std::min<uint64_t>(kBlockSize, file_size - block * kBlockSize));
    s.ready = false;
    return SubmitRead(block, 0);
  }

  // Consumes one CQE (blocking when `wait`); resubmits continuations for
  // short reads. Returns without consuming when !wait and the CQ is empty.
  Status ReapOne(bool wait) {
    unsigned head = *cq_head;
    while (head == __atomic_load_n(cq_tail, __ATOMIC_ACQUIRE)) {
      if (!wait) return Status::Ok();
      ++stats.enter_waits;
      int ret = SysUringEnter(ring_fd, 0, 1, IORING_ENTER_GETEVENTS);
      if (ret < 0 && errno != EINTR && errno != EAGAIN) {
        return Status::IoError(std::string("io_uring_enter: ") +
                               std::strerror(errno));
      }
    }
    struct io_uring_cqe* cqe = &cqes[head & *cq_mask];
    uint64_t block = cqe->user_data;
    int res = cqe->res;
    __atomic_store_n(cq_head, head + 1, __ATOMIC_RELEASE);
    unsigned slot = static_cast<unsigned>(block % kQueueDepth);
    SlotState& s = slots[slot];
    --in_flight;
    if (teardown) {
      s.ready = true;  // Whatever its fate, it is out of the kernel.
      return Status::Ok();
    }
    if (res < 0) {
      if (res == -EINTR || res == -EAGAIN) {
        ++stats.resubmits;
        return SubmitRead(block, s.filled);
      }
      return Status::IoError(std::string("io_uring read: ") +
                             std::strerror(-res));
    }
    if (res == 0) {
      // EOF before the validated geometry said so: the file shrank
      // between Open and this read.
      return Status::IoError("trace file: shrank during read");
    }
    s.filled += static_cast<size_t>(res);
    if (s.filled < s.expected) {  // >= expected is done (EOF-short reads).
      ++stats.resubmits;
      return SubmitRead(block, s.filled);
    }
    s.ready = true;
    ++stats.blocks_read;
    return Status::Ok();
  }

  // Blocks until `block` is fully read into its slot. Polls the token
  // between ring waits and beats the drain heartbeat on every completion,
  // so a fired token (including one fired by a watchdog that saw the
  // drain stall) ends the wait at the next completion boundary.
  Status WaitForBlock(uint64_t block) {
    unsigned slot = static_cast<unsigned>(block % kQueueDepth);
    while (!(slots[slot].block == block && slots[slot].ready)) {
      EPFIS_RETURN_IF_ERROR(CheckCancel(cancel, Deadline(), "uring drain"));
      EPFIS_RETURN_IF_ERROR(ReapOne(/*wait=*/true));
      if (heartbeat != nullptr) heartbeat->Beat();
    }
    return Status::Ok();
  }

  // Fills the read-ahead window: every free slot gets the next block.
  Status TopUp() {
    while (next_submit < num_blocks &&
           next_submit < next_consume + kQueueDepth) {
      EPFIS_RETURN_IF_ERROR(SubmitBlock(next_submit));
      ++next_submit;
    }
    return Status::Ok();
  }

  Status DrainAll() {
    while (in_flight > 0) {
      EPFIS_RETURN_IF_ERROR(ReapOne(/*wait=*/true));
    }
    return Status::Ok();
  }
};

bool UringTraceSource::Supported() {
  static const bool supported = [] {
    struct io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    int fd = SysUringSetup(1, &params);
    if (fd < 0) return false;
    ::close(fd);
    return true;
  }();
  return supported;
}

Result<UringTraceSource> UringTraceSource::Open(const std::string& path) {
  return Open(path, TraceOpenOptions{});
}

Result<UringTraceSource> UringTraceSource::Open(
    const std::string& path, const TraceOpenOptions& options) {
  uint64_t count = 0;
  uint64_t file_size = 0;
  EPFIS_RETURN_IF_ERROR(ValidateTraceGeometry(path, &count, &file_size));
  // Injected setup failures drill the uring → mmap degrade path the same
  // way trace.mmap.map drills mmap → streaming.
  EPFIS_RETURN_IF_ERROR(FaultPoint("trace.uring.setup"));
  if (!Supported()) {
    return Status::FailedPrecondition(
        "io_uring unavailable (kernel or seccomp)");
  }

  auto ring = std::make_unique<Ring>();
  ring->count = count;
  ring->file_size = file_size;
  ring->num_blocks = (file_size + kBlockSize - 1) / kBlockSize;
  // When a watchdog supervises the drain, cancel through a child token so
  // a tripped heartbeat fires only this source, never the caller's token.
  ring->cancel =
      options.watchdog != nullptr ? options.cancel.Child() : options.cancel;
  if (options.watchdog != nullptr) {
    ring->heartbeat = options.watchdog->Watch(
        "trace.uring.drain", options.watchdog_budget, ring->cancel);
  }

  struct io_uring_params params;
  std::memset(&params, 0, sizeof(params));
  ring->ring_fd = SysUringSetup(kQueueDepth, &params);
  if (ring->ring_fd < 0) {
    return Status::FailedPrecondition(std::string("io_uring_setup: ") +
                                      std::strerror(errno));
  }

  ring->sq_len = params.sq_off.array + params.sq_entries * sizeof(unsigned);
  ring->cq_len =
      params.cq_off.cqes + params.cq_entries * sizeof(struct io_uring_cqe);
  if (params.features & IORING_FEAT_SINGLE_MMAP) {
    ring->sq_len = ring->cq_len = std::max(ring->sq_len, ring->cq_len);
  }
  ring->sq_ptr =
      ::mmap(nullptr, ring->sq_len, PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_POPULATE, ring->ring_fd, IORING_OFF_SQ_RING);
  if (ring->sq_ptr == MAP_FAILED) {
    ring->sq_ptr = nullptr;
    return Status::FailedPrecondition("io_uring: cannot map SQ ring");
  }
  if (params.features & IORING_FEAT_SINGLE_MMAP) {
    ring->cq_ptr = ring->sq_ptr;
  } else {
    ring->cq_ptr =
        ::mmap(nullptr, ring->cq_len, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring->ring_fd, IORING_OFF_CQ_RING);
    if (ring->cq_ptr == MAP_FAILED) {
      ring->cq_ptr = nullptr;
      return Status::FailedPrecondition("io_uring: cannot map CQ ring");
    }
  }
  ring->sqes_len = params.sq_entries * sizeof(struct io_uring_sqe);
  ring->sqes = static_cast<struct io_uring_sqe*>(
      ::mmap(nullptr, ring->sqes_len, PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_POPULATE, ring->ring_fd, IORING_OFF_SQES));
  if (ring->sqes == MAP_FAILED) {
    ring->sqes = nullptr;
    return Status::FailedPrecondition("io_uring: cannot map SQE array");
  }

  char* sq = static_cast<char*>(ring->sq_ptr);
  ring->sq_head = reinterpret_cast<unsigned*>(sq + params.sq_off.head);
  ring->sq_tail = reinterpret_cast<unsigned*>(sq + params.sq_off.tail);
  ring->sq_mask = reinterpret_cast<unsigned*>(sq + params.sq_off.ring_mask);
  ring->sq_array = reinterpret_cast<unsigned*>(sq + params.sq_off.array);
  char* cq = static_cast<char*>(ring->cq_ptr);
  ring->cq_head = reinterpret_cast<unsigned*>(cq + params.cq_off.head);
  ring->cq_tail = reinterpret_cast<unsigned*>(cq + params.cq_off.tail);
  ring->cq_mask = reinterpret_cast<unsigned*>(cq + params.cq_off.ring_mask);
  ring->cqes =
      reinterpret_cast<struct io_uring_cqe*>(cq + params.cq_off.cqes);

  // O_DIRECT first; filesystems that refuse it (EINVAL — tmpfs, some
  // network mounts) still stream through the ring, just via page cache.
  ring->file_fd = ::open(path.c_str(), O_RDONLY | O_DIRECT);
  ring->o_direct = ring->file_fd >= 0;
  if (ring->file_fd < 0) {
    ring->file_fd = ::open(path.c_str(), O_RDONLY);
    if (ring->file_fd < 0) return Status::IoError("cannot open " + path);
  }

  for (void*& buf : ring->bufs) {
    buf = std::aligned_alloc(kBufAlign, kBlockSize);
    if (buf == nullptr) {
      return Status::ResourceExhausted("io_uring: cannot allocate buffers");
    }
  }

  if (count > 0) {
    // Prime the window and prove the first read end to end before
    // declaring the source open: a kernel without IORING_OP_READ, or a
    // filesystem whose O_DIRECT rules reject the geometry, surfaces here
    // as FailedPrecondition — which OpenTraceSource turns into the mmap
    // fallback — instead of as a read error halfway through a run.
    Status primed = ring->TopUp();
    if (primed.ok()) primed = ring->WaitForBlock(0);
    if (!primed.ok()) {
      return Status::FailedPrecondition("io_uring probe read failed: " +
                                        primed.message());
    }
  }

  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter uring_opens = registry.GetCounter("trace.uring_opens");
  static Counter uring_bytes = registry.GetCounter("trace.uring_bytes");
  uring_opens.Increment();
  uring_bytes.Increment(file_size);
  return UringTraceSource(std::move(ring));
}

Result<size_t> UringTraceSource::Next(PageId* buffer, size_t capacity) {
  Ring& r = *ring_;
  if (!r.failed.ok()) return r.failed;
  // Not sticky: Cancelled here leaves `failed` clear so a Reset after the
  // token is replaced can reuse the ring.
  EPFIS_RETURN_IF_ERROR(CheckCancel(r.cancel, Deadline(), "trace read"));
  size_t out = 0;
  while (out < capacity && r.pos < r.count) {
    uint64_t byte = kPageTraceHeaderSize + r.pos * sizeof(PageId);
    uint64_t block = byte / kBlockSize;
    size_t within = static_cast<size_t>(byte % kBlockSize);
    if (block > r.next_consume) {
      // Crossed a block boundary: the finished block's slot is free, so
      // refill the read-ahead window before waiting on the new one.
      r.next_consume = block;
      if (Status st = r.TopUp(); !st.ok()) return r.failed = st;
    }
    if (Status st = r.WaitForBlock(block); !st.ok()) return r.failed = st;
    unsigned slot = static_cast<unsigned>(block % kQueueDepth);
    size_t avail = (r.slots[slot].expected - within) / sizeof(PageId);
    size_t remaining = static_cast<size_t>(
        std::min<uint64_t>(r.count - r.pos, avail));
    size_t n = std::min(capacity - out, remaining);
    std::memcpy(buffer + out, static_cast<char*>(r.bufs[slot]) + within,
                n * sizeof(PageId));
    out += n;
    r.pos += n;
  }
  return out;
}

Status UringTraceSource::Reset() {
  Ring& r = *ring_;
  // A sticky failure does not block a rewind — the ring restarts from a
  // clean window — but in-flight reads must still leave the kernel first.
  // The drain runs in teardown mode: a read that completes short
  // mid-rewind must be marked done, not resubmitted as a continuation —
  // the whole window is about to be discarded, and a continuation left
  // pending against a slot cleared below would later land stale bytes in
  // the fresh window (and leak an SQE past the drain).
  r.teardown = true;
  Status drained = r.DrainAll();
  r.teardown = false;
  EPFIS_RETURN_IF_ERROR(drained);
  for (auto& s : r.slots) s = Ring::SlotState{};
  r.pos = 0;
  r.next_submit = 0;
  r.next_consume = 0;
  r.failed = Status::Ok();
  if (r.count > 0) {
    EPFIS_RETURN_IF_ERROR(r.TopUp());
  }
  return Status::Ok();
}

uint64_t UringTraceSource::count() const { return ring_->count; }
bool UringTraceSource::o_direct() const { return ring_->o_direct; }
UringTraceSource::Stats UringTraceSource::stats() const {
  return ring_->stats;
}

#else  // !EPFIS_URING_IMPL

// Stub build (EPFIS_URING=OFF, non-Linux, or no <linux/io_uring.h>): the
// class exists, Supported() says no, and Open reports FailedPrecondition
// so OpenTraceSource's fallback chain treats it like any other
// unavailable access path. Geometry is still validated first: a corrupt
// file earns its Corruption verdict in every build.
struct UringTraceSource::Ring {
  Stats stats;
};

bool UringTraceSource::Supported() { return false; }

Result<UringTraceSource> UringTraceSource::Open(const std::string& path) {
  return Open(path, TraceOpenOptions{});
}

Result<UringTraceSource> UringTraceSource::Open(const std::string& path,
                                                const TraceOpenOptions&) {
  uint64_t count = 0;
  uint64_t file_size = 0;
  EPFIS_RETURN_IF_ERROR(ValidateTraceGeometry(path, &count, &file_size));
  return Status::FailedPrecondition("io_uring trace source compiled out");
}

Result<size_t> UringTraceSource::Next(PageId*, size_t) {
  return Status::FailedPrecondition("io_uring trace source compiled out");
}

Status UringTraceSource::Reset() {
  return Status::FailedPrecondition("io_uring trace source compiled out");
}

uint64_t UringTraceSource::count() const { return 0; }
bool UringTraceSource::o_direct() const { return false; }
UringTraceSource::Stats UringTraceSource::stats() const { return {}; }

#endif  // EPFIS_URING_IMPL

UringTraceSource::UringTraceSource(std::unique_ptr<Ring> ring)
    : ring_(std::move(ring)) {}
UringTraceSource::UringTraceSource(UringTraceSource&&) noexcept = default;
UringTraceSource& UringTraceSource::operator=(UringTraceSource&&) noexcept =
    default;
UringTraceSource::~UringTraceSource() = default;

}  // namespace epfis
