// Shared constants and helpers of the two roles of gatw_bench: the
// client (client.cc), which generates every input and measures, and the
// server (server.cc), which serves what it is handed.
#ifndef GATW_BENCH_H_
#define GATW_BENCH_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace gatw {

/// The serving configuration every workload runs: gat_server's stack on
/// a 2-thread executor over 2 shards, answering top-9 queries (the
/// paper's Table-V default k).
inline constexpr uint32_t kShards = 2;
inline constexpr uint32_t kExecutorThreads = 2;
inline constexpr size_t kTopK = 9;

/// The shared BlockCache budget of the mmap'd snapshot tier (mmap_cache):
/// about a fifth of the two shards' snapshot bytes.
inline constexpr uint64_t kCacheBytes = 8ull << 20;

/// Whether this binary carries the trace hooks (gatw_bench_traced).
#ifdef GATW_TRACED
inline constexpr bool kTracedBinary = true;
#else
inline constexpr bool kTracedBinary = false;
#endif

/// `--name value` lookup over argv; `fallback` when absent.
inline std::string Flag(int argc, char** argv, const char* name,
                        const std::string& fallback = std::string()) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

inline bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// The server role's entry point (server.cc).
int ServeMain(int argc, char** argv);

}  // namespace gatw

#endif  // GATW_BENCH_H_
