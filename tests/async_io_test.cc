// Tests for gat/storage/async_io: the raw block I/O engine (io_uring
// and pread-pool backends).
//
// The load-bearing invariant: both backends return exactly the
// requested bytes at arbitrary (unaligned) offsets and lengths,
// including short-read continuation, and Drain() implies every
// completion ran.

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "gat/storage/async_io.h"

namespace gat {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// A scratch file of pseudorandom (seed-reproducible) bytes.
std::string WritePatternFile(const std::string& name, size_t bytes,
                             std::string* contents) {
  std::mt19937_64 rng(0x5eedull + bytes);
  contents->resize(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    (*contents)[i] = static_cast<char>(rng() & 0xff);
  }
  const std::string path = TempPath(name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  EXPECT_EQ(std::fwrite(contents->data(), 1, bytes, f), bytes);
  std::fclose(f);
  return path;
}

/// Submits a pile of unaligned reads and checks every byte and every
/// completion under the given backend configuration.
void ExerciseBackend(const AsyncIoOptions& options, IoBackend expected) {
  std::string contents;
  const std::string path =
      WritePatternFile("async_io_pattern.bin", 70000, &contents);
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  AsyncBlockIo io(options);
  EXPECT_EQ(io.backend(), expected);

  // Deliberately awkward extents: odd offsets, odd lengths, a read
  // ending exactly at EOF, single bytes — nothing block-aligned.
  const std::vector<std::pair<uint64_t, uint32_t>> extents = {
      {0, 1},     {1, 1},      {0, 4096},  {4095, 2},       {12345, 6789},
      {777, 513}, {69000, 1000 /* ends at EOF */}, {65536, 4464}};
  std::vector<std::vector<char>> bufs;
  bufs.reserve(extents.size());
  for (const auto& [offset, len] : extents) {
    bufs.emplace_back(len, '\0');
  }
  std::atomic<size_t> completions{0};
  std::atomic<bool> all_full{true};
  for (size_t i = 0; i < extents.size(); ++i) {
    io.SubmitRead(fd, extents[i].first, bufs[i].data(), extents[i].second,
                  [&, i](int64_t result) {
                    if (result != static_cast<int64_t>(extents[i].second)) {
                      all_full.store(false);
                    }
                    completions.fetch_add(1);
                  });
  }
  io.Drain();  // returning implies every callback above already ran
  EXPECT_EQ(completions.load(), extents.size());
  EXPECT_TRUE(all_full.load());
  EXPECT_EQ(io.reads_submitted(), extents.size());
  EXPECT_EQ(io.reads_completed(), extents.size());
  for (size_t i = 0; i < extents.size(); ++i) {
    EXPECT_EQ(std::string(bufs[i].data(), bufs[i].size()),
              contents.substr(extents[i].first, extents[i].second))
        << "extent " << i;
  }
  ::close(fd);
  std::remove(path.c_str());
}

TEST(AsyncBlockIo, PoolBackendReadsExactBytes) {
  AsyncIoOptions options;
  options.allow_io_uring = false;  // force the pread pool
  options.workers = 3;
  ExerciseBackend(options, IoBackend::kThreadPool);
}

TEST(AsyncBlockIo, PoolSingleWorkerSmallQueueStillCompletes) {
  // queue_depth below the submission count: SubmitRead must block at
  // the in-flight bound and drain forward, never deadlock or drop.
  AsyncIoOptions options;
  options.allow_io_uring = false;
  options.workers = 1;
  options.queue_depth = 4;
  ExerciseBackend(options, IoBackend::kThreadPool);
}

TEST(AsyncBlockIo, UringBackendReadsExactBytesWhenAvailable) {
  if (!ProbeIoUring()) {
    GTEST_SKIP() << "io_uring unavailable (kernel/seccomp); pool backend "
                    "covered above";
  }
  AsyncIoOptions options;
  options.allow_io_uring = true;
  ExerciseBackend(options, IoBackend::kIoUring);
}

TEST(AsyncBlockIo, EnvOverrideForcesPool) {
  // GAT_IO_BACKEND=pool must win even where io_uring is available — the
  // CI escape hatch, and the way both backends stay testable anywhere.
  ::setenv("GAT_IO_BACKEND", "pool", 1);
  AsyncIoOptions options;
  options.allow_io_uring = true;
  AsyncBlockIo io(options);
  EXPECT_EQ(io.backend(), IoBackend::kThreadPool);
  ::unsetenv("GAT_IO_BACKEND");
}

}  // namespace
}  // namespace gat
