#include "gat/storage/async_io.h"

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>

#include <linux/io_uring.h>
#endif

// The probe needs the setup syscall number and the uapi structs; it also
// asks for IORING_OP_READ (kernel headers >= 5.6), the first opcode a
// block reader over plain file descriptors can use. Anything less
// reports the pread fallback.
#if defined(__linux__) && defined(__NR_io_uring_setup) && \
    defined(IORING_OP_READ)
#define GAT_HAVE_IO_URING 1
#else
#define GAT_HAVE_IO_URING 0
#endif

namespace gat {

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

}  // namespace gat
