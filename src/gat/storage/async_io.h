#ifndef GAT_STORAGE_ASYNC_IO_H_
#define GAT_STORAGE_ASYNC_IO_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace gat {

/// How AsyncBlockIo physically issues its reads.
enum class IoBackend : uint8_t {
  /// Portable fallback: a small pool of worker threads doing pread(2).
  /// Exercises the exact same submission/completion scheduling path as
  /// the io_uring backend, so CI containers that seccomp-block io_uring
  /// still cover every layer above the syscall.
  kThreadPool = 0,
  /// io_uring via raw syscalls (no liburing dependency): one SQ/CQ ring
  /// pair, submissions batched under a mutex, one reaper thread waiting
  /// on completions.
  kIoUring = 1,
};

const char* IoBackendName(IoBackend backend);

/// Runtime probe: can this process set up an io_uring instance at all?
/// False on pre-5.1 kernels (ENOSYS) and in sandboxes/containers whose
/// seccomp policy blocks the syscall (EPERM/EACCES). Probed once per
/// process and cached — the answer cannot change while we run.
bool ProbeIoUring();

/// AsyncBlockIo knobs.
struct AsyncIoOptions {
  /// Worker threads of the pread fallback pool (clamped to [1, 16]).
  uint32_t workers = 2;
  /// In-flight request bound; also the io_uring queue depth (rounded to
  /// a power of two, clamped to [4, 512]). Submissions past the bound
  /// block until completions free a slot.
  uint32_t queue_depth = 64;
  /// False forces the thread-pool backend even where io_uring probes
  /// available (tests, A/B benches). The GAT_IO_BACKEND environment
  /// variable overrides both directions: "pool" forces the fallback,
  /// "uring" insists on io_uring (falling back, with the probe's
  /// verdict logged through backend(), when unavailable).
  bool allow_io_uring = true;
};

/// An asynchronous block-read engine over plain file descriptors. Callers
/// submit positioned reads with a completion callback; the backend
/// (io_uring where the kernel and sandbox allow it, a pread worker pool
/// everywhere else) runs them off the submitting thread and invokes the
/// callback from its completion context. No disk tier reads through
/// it: it backs `gat_io_probe` and the backend stamp of the end-to-end
/// benchmark's results.
///
/// Completion callbacks must be fast and non-blocking: they run on the
/// reaper/worker threads that every other in-flight read shares.
///
/// Thread-safety: fully internally synchronized; `SubmitRead` may be
/// called from any thread EXCEPT a completion callback — at the
/// in-flight bound a submit-from-callback would deadlock the very
/// completion context the bound waits on.
class AsyncBlockIo {
 public:
  explicit AsyncBlockIo(const AsyncIoOptions& options = {});
  /// Drains every in-flight read (their callbacks run) before tearing
  /// the backend down.
  ~AsyncBlockIo();

  AsyncBlockIo(const AsyncBlockIo&) = delete;
  AsyncBlockIo& operator=(const AsyncBlockIo&) = delete;

  /// Reads `len` bytes at `offset` of `fd` into `buf`, then invokes
  /// `done(result)` from the completion context: `result` is the byte
  /// count pread would return (short at EOF) or a negative errno.
  /// `buf` must stay valid until `done` runs. Blocks only when the
  /// in-flight bound is reached.
  void SubmitRead(int fd, uint64_t offset, void* buf, uint32_t len,
                  std::function<void(int64_t)> done);

  /// Blocks until every read submitted so far has completed.
  void Drain();

  IoBackend backend() const { return backend_; }
  const char* backend_name() const { return IoBackendName(backend_); }

  uint64_t reads_submitted() const {
    return reads_submitted_.load(std::memory_order_relaxed);
  }
  uint64_t reads_completed() const {
    return reads_completed_.load(std::memory_order_relaxed);
  }

 private:
  struct Request {
    int fd = -1;
    uint64_t offset = 0;
    void* buf = nullptr;
    uint32_t len = 0;
    std::function<void(int64_t)> done;
    // Bytes already read: both backends continue short reads from here
    // until the request is full, at EOF, or errored — callers always
    // see either `len`, the EOF-truncated total, or a negative errno.
    uint32_t progress = 0;
  };
  struct UringState;  // defined in async_io.cc (raw ring bookkeeping)

  void Complete(Request* request, int64_t result);
  void PoolWorkerLoop();
  void UringReaperLoop();
  bool SetupUring(uint32_t queue_depth);
  void TeardownUring();
  /// Places `request` (continuing at `progress`) on the SQ ring and
  /// io_uring_enter's it; caller holds submit_mu_.
  void UringSubmitLocked(Request* request);

  IoBackend backend_ = IoBackend::kThreadPool;
  uint32_t queue_depth_ = 64;

  // In-flight accounting shared by both backends: submission blocks at
  // queue_depth_, Drain() waits for zero.
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  uint64_t inflight_ = 0;

  // Thread-pool backend.
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::deque<Request*> pool_queue_;
  bool pool_stop_ = false;
  std::vector<std::thread> pool_workers_;

  // io_uring backend.
  std::unique_ptr<UringState> uring_;
  std::mutex submit_mu_;
  std::thread reaper_;

  std::atomic<uint64_t> reads_submitted_{0};
  std::atomic<uint64_t> reads_completed_{0};
};

}  // namespace gat

#endif  // GAT_STORAGE_ASYNC_IO_H_
