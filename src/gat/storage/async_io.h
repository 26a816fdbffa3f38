#ifndef GAT_STORAGE_ASYNC_IO_H_
#define GAT_STORAGE_ASYNC_IO_H_

namespace gat {

/// Runtime probe: can this process set up an io_uring instance at all?
/// False on pre-5.1 kernels (ENOSYS), in sandboxes/containers whose
/// seccomp policy blocks the syscall (EPERM/EACCES), and in builds
/// against kernel headers without the plain-fd read opcode (< 5.6).
/// Probed once per process and cached: the answer cannot change while
/// we run.
bool ProbeIoUring();

/// Names the block-read backend this host offers an asynchronous reader:
/// "io_uring" where `ProbeIoUring()` succeeds, "pread-pool" (a pread(2)
/// worker pool, the portable fallback) everywhere else. It reads no
/// blocks: every disk tier reads through the mapping and the
/// `BlockCache`. What remains is the host description the end-to-end
/// benchmark stamps on its results.
class AsyncBlockIo {
 public:
  const char* backend_name() const {
    return ProbeIoUring() ? "io_uring" : "pread-pool";
  }
};

}  // namespace gat

#endif  // GAT_STORAGE_ASYNC_IO_H_
