#include "gat/storage/async_io.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "gat/common/check.h"

#if defined(__linux__)
#include <sys/mman.h>
#include <sys/syscall.h>

#include <linux/io_uring.h>
#endif

// io_uring via raw syscalls needs: the syscall numbers (glibc headers),
// the uapi structs, and IORING_OP_READ (kernel headers >= 5.6, matching
// the first kernel where the plain-fd READ opcode exists). Anything
// less and the pread pool is the only backend compiled in.
#if defined(__linux__) && defined(__NR_io_uring_setup) && \
    defined(__NR_io_uring_enter) && defined(IORING_OP_READ)
#define GAT_HAVE_IO_URING 1
#else
#define GAT_HAVE_IO_URING 0
#endif

namespace gat {
namespace {

uint32_t ClampPow2(uint32_t v, uint32_t lo, uint32_t hi) {
  return std::bit_ceil(std::clamp(v, lo, hi));
}

}  // namespace

const char* IoBackendName(IoBackend backend) {
  switch (backend) {
    case IoBackend::kThreadPool:
      return "pread-pool";
    case IoBackend::kIoUring:
      return "io_uring";
  }
  return "unknown";
}

bool ProbeIoUring() {
#if GAT_HAVE_IO_URING
  // One setup attempt per process: ENOSYS (old kernel) and EPERM/EACCES
  // (seccomp'd container) are both permanent answers for our lifetime.
  static const bool available = [] {
    struct io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    const long fd = syscall(__NR_io_uring_setup, 4, &params);
    if (fd < 0) return false;
    close(static_cast<int>(fd));
    return true;
  }();
  return available;
#else
  return false;
#endif
}

// --------------------------------------------------------------------------
// AsyncBlockIo — io_uring backend
// --------------------------------------------------------------------------

#if GAT_HAVE_IO_URING

/// The mmap'd ring state, liburing-free. Pointers into the shared rings
/// follow the kernel's published offsets; head/tail crossings use the
/// acquire/release protocol the uring ABI specifies (kernel releases CQ
/// tail, we release SQ tail).
struct AsyncBlockIo::UringState {
  int ring_fd = -1;
  struct io_uring_params params;

  uint8_t* sq_ring = nullptr;
  size_t sq_ring_bytes = 0;
  uint8_t* cq_ring = nullptr;  // aliases sq_ring under SINGLE_MMAP
  size_t cq_ring_bytes = 0;
  struct io_uring_sqe* sqes = nullptr;
  size_t sqes_bytes = 0;

  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned* sq_mask = nullptr;
  unsigned* sq_array = nullptr;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned* cq_mask = nullptr;
  struct io_uring_cqe* cqes = nullptr;

  UringState() { std::memset(&params, 0, sizeof(params)); }
};

bool AsyncBlockIo::SetupUring(uint32_t queue_depth) {
  auto state = std::make_unique<UringState>();
  const long fd =
      syscall(__NR_io_uring_setup, queue_depth, &state->params);
  if (fd < 0) return false;
  state->ring_fd = static_cast<int>(fd);

  const struct io_uring_params& p = state->params;
  size_t sq_bytes = p.sq_off.array + p.sq_entries * sizeof(unsigned);
  size_t cq_bytes = p.cq_off.cqes + p.cq_entries * sizeof(struct io_uring_cqe);
  const bool single_mmap = (p.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap) sq_bytes = cq_bytes = std::max(sq_bytes, cq_bytes);

  void* sq =
      mmap(nullptr, sq_bytes, PROT_READ | PROT_WRITE,
           MAP_SHARED | MAP_POPULATE, state->ring_fd, IORING_OFF_SQ_RING);
  if (sq == MAP_FAILED) {
    close(state->ring_fd);
    return false;
  }
  state->sq_ring = static_cast<uint8_t*>(sq);
  state->sq_ring_bytes = sq_bytes;

  if (single_mmap) {
    state->cq_ring = state->sq_ring;
    state->cq_ring_bytes = 0;  // no separate mapping to unmap
  } else {
    void* cq =
        mmap(nullptr, cq_bytes, PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_POPULATE, state->ring_fd, IORING_OFF_CQ_RING);
    if (cq == MAP_FAILED) {
      munmap(state->sq_ring, state->sq_ring_bytes);
      close(state->ring_fd);
      return false;
    }
    state->cq_ring = static_cast<uint8_t*>(cq);
    state->cq_ring_bytes = cq_bytes;
  }

  state->sqes_bytes = p.sq_entries * sizeof(struct io_uring_sqe);
  void* sqes =
      mmap(nullptr, state->sqes_bytes, PROT_READ | PROT_WRITE,
           MAP_SHARED | MAP_POPULATE, state->ring_fd, IORING_OFF_SQES);
  if (sqes == MAP_FAILED) {
    if (state->cq_ring_bytes != 0) munmap(state->cq_ring, state->cq_ring_bytes);
    munmap(state->sq_ring, state->sq_ring_bytes);
    close(state->ring_fd);
    return false;
  }
  state->sqes = static_cast<struct io_uring_sqe*>(sqes);

  auto at = [](uint8_t* base, uint32_t off) {
    return reinterpret_cast<unsigned*>(base + off);
  };
  state->sq_head = at(state->sq_ring, p.sq_off.head);
  state->sq_tail = at(state->sq_ring, p.sq_off.tail);
  state->sq_mask = at(state->sq_ring, p.sq_off.ring_mask);
  state->sq_array = at(state->sq_ring, p.sq_off.array);
  state->cq_head = at(state->cq_ring, p.cq_off.head);
  state->cq_tail = at(state->cq_ring, p.cq_off.tail);
  state->cq_mask = at(state->cq_ring, p.cq_off.ring_mask);
  state->cqes =
      reinterpret_cast<struct io_uring_cqe*>(state->cq_ring + p.cq_off.cqes);

  uring_ = std::move(state);
  return true;
}

void AsyncBlockIo::TeardownUring() {
  if (uring_ == nullptr) return;
  munmap(uring_->sqes, uring_->sqes_bytes);
  if (uring_->cq_ring_bytes != 0) {
    munmap(uring_->cq_ring, uring_->cq_ring_bytes);
  }
  munmap(uring_->sq_ring, uring_->sq_ring_bytes);
  close(uring_->ring_fd);
  uring_.reset();
}

void AsyncBlockIo::UringSubmitLocked(Request* request) {
  UringState& u = *uring_;
  unsigned tail = __atomic_load_n(u.sq_tail, __ATOMIC_RELAXED);
  // The in-flight bound keeps outstanding requests <= sq_entries and the
  // kernel consumes entries during io_uring_enter (no SQPOLL), so the
  // ring cannot be full here; the loop is pure defense.
  while (tail - __atomic_load_n(u.sq_head, __ATOMIC_ACQUIRE) >=
         u.params.sq_entries) {
    syscall(__NR_io_uring_enter, u.ring_fd, 0, 0, 0, nullptr, 0);
  }
  const unsigned idx = tail & *u.sq_mask;
  struct io_uring_sqe* sqe = &u.sqes[idx];
  std::memset(sqe, 0, sizeof(*sqe));
  if (request != nullptr) {
    sqe->opcode = IORING_OP_READ;
    sqe->fd = request->fd;
    sqe->off = request->offset + request->progress;
    sqe->addr = reinterpret_cast<uint64_t>(
        static_cast<char*>(request->buf) + request->progress);
    sqe->len = request->len - request->progress;
    sqe->user_data = reinterpret_cast<uint64_t>(request);
  } else {
    // Shutdown sentinel: a NOP whose user_data 0 tells the reaper to
    // exit. Only ever submitted after Drain(), so it is the final CQE.
    sqe->opcode = IORING_OP_NOP;
    sqe->user_data = 0;
  }
  u.sq_array[idx] = idx;
  __atomic_store_n(u.sq_tail, tail + 1, __ATOMIC_RELEASE);
  for (;;) {
    const long ret =
        syscall(__NR_io_uring_enter, u.ring_fd, 1, 0, 0, nullptr, 0);
    if (ret >= 0) break;
    GAT_CHECK(errno == EINTR || errno == EAGAIN || errno == EBUSY);
  }
}

void AsyncBlockIo::UringReaperLoop() {
  UringState& u = *uring_;
  for (;;) {
    const unsigned head = __atomic_load_n(u.cq_head, __ATOMIC_RELAXED);
    if (head == __atomic_load_n(u.cq_tail, __ATOMIC_ACQUIRE)) {
      const long ret = syscall(__NR_io_uring_enter, u.ring_fd, 0, 1,
                               IORING_ENTER_GETEVENTS, nullptr, 0);
      GAT_CHECK(ret >= 0 || errno == EINTR || errno == EAGAIN ||
                errno == EBUSY);
      continue;
    }
    const struct io_uring_cqe* cqe = &u.cqes[head & *u.cq_mask];
    const uint64_t user_data = cqe->user_data;
    const int32_t res = cqe->res;
    __atomic_store_n(u.cq_head, head + 1, __ATOMIC_RELEASE);
    if (user_data == 0) return;  // shutdown sentinel
    Request* request = reinterpret_cast<Request*>(user_data);
    const uint32_t wanted = request->len - request->progress;
    if (res > 0 && static_cast<uint32_t>(res) < wanted) {
      // Short read (buffered files may return early): continue where it
      // stopped. The in-flight slot stays held across the continuation.
      request->progress += static_cast<uint32_t>(res);
      std::lock_guard<std::mutex> lock(submit_mu_);
      UringSubmitLocked(request);
      continue;
    }
    const int64_t result =
        res < 0 ? res
                : static_cast<int64_t>(request->progress) + res;
    Complete(request, result);
  }
}

#else  // !GAT_HAVE_IO_URING

struct AsyncBlockIo::UringState {};

bool AsyncBlockIo::SetupUring(uint32_t) { return false; }
void AsyncBlockIo::TeardownUring() {}
void AsyncBlockIo::UringSubmitLocked(Request*) {}
void AsyncBlockIo::UringReaperLoop() {}

#endif  // GAT_HAVE_IO_URING

// --------------------------------------------------------------------------
// AsyncBlockIo — shared core + pread pool backend
// --------------------------------------------------------------------------

AsyncBlockIo::AsyncBlockIo(const AsyncIoOptions& options) {
  queue_depth_ = ClampPow2(options.queue_depth, 4, 512);

  bool want_uring = options.allow_io_uring;
  if (const char* env = std::getenv("GAT_IO_BACKEND")) {
    if (std::strcmp(env, "pool") == 0) {
      want_uring = false;
    } else if (std::strcmp(env, "uring") == 0) {
      want_uring = true;
    }
  }

  if (want_uring && ProbeIoUring() && SetupUring(queue_depth_)) {
    backend_ = IoBackend::kIoUring;
    reaper_ = std::thread([this] { UringReaperLoop(); });
    return;
  }

  backend_ = IoBackend::kThreadPool;
  const uint32_t workers = std::clamp<uint32_t>(options.workers, 1, 16);
  pool_workers_.reserve(workers);
  for (uint32_t i = 0; i < workers; ++i) {
    pool_workers_.emplace_back([this] { PoolWorkerLoop(); });
  }
}

AsyncBlockIo::~AsyncBlockIo() {
  Drain();
  if (backend_ == IoBackend::kIoUring) {
    {
      std::lock_guard<std::mutex> lock(submit_mu_);
      UringSubmitLocked(nullptr);  // NOP sentinel — the final CQE
    }
    reaper_.join();
    TeardownUring();
  } else {
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      pool_stop_ = true;
    }
    pool_cv_.notify_all();
    for (std::thread& worker : pool_workers_) worker.join();
  }
}

void AsyncBlockIo::SubmitRead(int fd, uint64_t offset, void* buf, uint32_t len,
                              std::function<void(int64_t)> done) {
  {
    std::unique_lock<std::mutex> lock(inflight_mu_);
    inflight_cv_.wait(lock, [this] { return inflight_ < queue_depth_; });
    ++inflight_;
  }
  reads_submitted_.fetch_add(1, std::memory_order_relaxed);
  Request* request = new Request{fd, offset, buf, len, std::move(done)};
  if (backend_ == IoBackend::kIoUring) {
    std::lock_guard<std::mutex> lock(submit_mu_);
    UringSubmitLocked(request);
  } else {
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      pool_queue_.push_back(request);
    }
    pool_cv_.notify_one();
  }
}

void AsyncBlockIo::Complete(Request* request, int64_t result) {
  // Run the callback before releasing the in-flight slot: once Drain()
  // observes zero, every completion callback has finished, so a caller
  // may free what its callbacks touch as soon as Drain() returns.
  std::function<void(int64_t)> done = std::move(request->done);
  delete request;
  done(result);
  reads_completed_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    --inflight_;
  }
  inflight_cv_.notify_all();
}

void AsyncBlockIo::PoolWorkerLoop() {
  for (;;) {
    Request* request = nullptr;
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      pool_cv_.wait(lock,
                    [this] { return pool_stop_ || !pool_queue_.empty(); });
      if (pool_queue_.empty()) return;  // stop requested, queue drained
      request = pool_queue_.front();
      pool_queue_.pop_front();
    }
    int64_t result = 0;
    for (;;) {
      const ssize_t n = pread(
          request->fd, static_cast<char*>(request->buf) + request->progress,
          request->len - request->progress,
          static_cast<off_t>(request->offset + request->progress));
      if (n < 0) {
        if (errno == EINTR) continue;
        result = -static_cast<int64_t>(errno);
        break;
      }
      request->progress += static_cast<uint32_t>(n);
      if (n == 0 || request->progress == request->len) {
        result = request->progress;  // full, or EOF-truncated total
        break;
      }
    }
    Complete(request, result);
  }
}

void AsyncBlockIo::Drain() {
  std::unique_lock<std::mutex> lock(inflight_mu_);
  inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
}

}  // namespace gat
