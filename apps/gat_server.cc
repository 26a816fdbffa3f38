// gat_server: the `GATW` wire protocol served from a real socket.
//
// Builds a synthetic city (deterministic from --seed), stands up the
// live serving stack over it — a LiveIndex (sharded base + in-memory
// delta) searched by a LiveSearcher, behind FrontDoor admission /
// deadlines / priorities and a poll(2) Server on one shared Executor —
// and serves ATSQ/OATSQ batches and check-in ingest frames. With
// --merge-interval-ms > 0 a background thread compacts the delta into a
// new base generation on that cadence (in-memory generations; the same
// executor runs the per-shard builds). Prints "LISTENING <port>" on
// stdout once bound (scripts/wire_smoke.py waits for that line), then
// runs until stdin reaches EOF — so a parent process ends it by closing
// the pipe, with no signal races.
//
// Usage: see kUsage below. An unknown flag, a flag without a value, or a
// value that is not a number in its flag's range exits 2 with the usage
// text — nothing is bound or built.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "gat/datagen/checkin_generator.h"
#include "gat/engine/executor.h"
#include "gat/engine/query_engine.h"
#include "gat/live/live_index.h"
#include "gat/live/live_searcher.h"
#include "gat/net/server.h"
#include "gat/search/gat_search.h"
#include "gat/serve/front_door.h"

namespace {

constexpr char kUsage[] =
    "usage: gat_server [--port 0-65535] [--host A.B.C.D]\n"
    "                  [--trajectories 1-4294967295] [--seed N]\n"
    "                  [--threads 0-1024 (0 = one per core)]\n"
    "                  [--shards 1-1024] [--quota-rate R] [--quota-burst B]\n"
    "                  [--ingest-rate R] [--ingest-burst B]\n"
    "                  [--merge-interval-ms 0-86400000 (0 = no merges)]\n"
    "  rates and bursts: finite numbers >= 0\n";

struct Flags {
  std::string host = "127.0.0.1";
  uint64_t port = 0;
  uint64_t trajectories = 200;
  uint64_t seed = 29;
  uint64_t threads = 4;
  uint64_t shards = 2;
  double quota_rate = 1000.0;
  double quota_burst = 100.0;
  double ingest_rate = 10000.0;
  double ingest_burst = 1000.0;
  uint64_t merge_interval_ms = 0;
};

/// Decimal digits only, no sign or blanks, within [lo, hi].
bool ParseU64(const char* text, uint64_t lo, uint64_t hi, uint64_t* out) {
  if (*text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value < lo || value > hi) return false;
  *out = value;
  return true;
}

/// A finite, non-negative token-bucket rate or burst.
bool ParseQuota(const char* text, double* out) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0 || !std::isfinite(value) ||
      value < 0.0) {
    return false;
  }
  *out = value;
  return true;
}

/// Fills `flags` from argv; false (with the reason on stderr) on any
/// unknown flag, missing value or out-of-range value.
bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; i += 2) {
    const char* name = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "gat_server: %s needs a value\n", name);
      return false;
    }
    const char* value = argv[i + 1];
    bool ok = true;
    if (std::strcmp(name, "--host") == 0) {
      flags->host = value;
    } else if (std::strcmp(name, "--port") == 0) {
      ok = ParseU64(value, 0, 65535, &flags->port);
    } else if (std::strcmp(name, "--trajectories") == 0) {
      ok = ParseU64(value, 1, UINT32_MAX, &flags->trajectories);
    } else if (std::strcmp(name, "--seed") == 0) {
      ok = ParseU64(value, 0, UINT64_MAX, &flags->seed);
    } else if (std::strcmp(name, "--threads") == 0) {
      ok = ParseU64(value, 0, 1024, &flags->threads);
    } else if (std::strcmp(name, "--shards") == 0) {
      ok = ParseU64(value, 1, 1024, &flags->shards);
    } else if (std::strcmp(name, "--quota-rate") == 0) {
      ok = ParseQuota(value, &flags->quota_rate);
    } else if (std::strcmp(name, "--quota-burst") == 0) {
      ok = ParseQuota(value, &flags->quota_burst);
    } else if (std::strcmp(name, "--ingest-rate") == 0) {
      ok = ParseQuota(value, &flags->ingest_rate);
    } else if (std::strcmp(name, "--ingest-burst") == 0) {
      ok = ParseQuota(value, &flags->ingest_burst);
    } else if (std::strcmp(name, "--merge-interval-ms") == 0) {
      ok = ParseU64(value, 0, 86400000, &flags->merge_interval_ms);
    } else {
      std::fprintf(stderr, "gat_server: unknown flag %s\n", name);
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "gat_server: bad value '%s' for %s\n", value,
                   name);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gat;

  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const auto trajectories = static_cast<uint32_t>(flags.trajectories);
  const uint64_t seed = flags.seed;
  const auto threads = static_cast<uint32_t>(flags.threads);
  const auto shards = static_cast<uint32_t>(flags.shards);
  const uint64_t merge_interval_ms = flags.merge_interval_ms;

  std::fprintf(stderr, "building city: %u trajectories, seed %llu, %u shards\n",
               trajectories, static_cast<unsigned long long>(seed), shards);
  Executor executor(threads);
  ShardOptions shard_options;
  shard_options.num_shards = shards;
  shard_options.executor = &executor;
  LiveIndex live(GenerateCity(CityProfile::Testing(trajectories, seed)),
                 GatConfig{}, shard_options);
  const LiveSearcher searcher(live, {}, &executor);
  QueryEngine engine(searcher, EngineOptions{.executor = &executor});

  FrontDoorOptions door_options;
  door_options.default_quota = TenantQuota{flags.quota_rate, flags.quota_burst};
  door_options.default_write_quota =
      TenantQuota{flags.ingest_rate, flags.ingest_burst};
  FrontDoor door(engine, door_options);
  door.AttachLiveIndex(&live);

  wire::ServerOptions server_options;
  server_options.host = flags.host;
  server_options.port = static_cast<uint16_t>(flags.port);
  server_options.executor = &executor;
  wire::Server server(door, server_options);
  if (!server.Start()) {
    std::fprintf(stderr, "FATAL: bind/listen on %s:%u failed\n",
                 server_options.host.c_str(), server_options.port);
    return 1;
  }

  // Background merge: compact the delta into the next generation (same
  // shard count, in-memory) on a fixed cadence. Builds run off the
  // serving path as tasks on the shared executor; a failed merge only
  // means the delta keeps serving, so it is logged, not fatal.
  std::mutex merge_mu;
  std::condition_variable merge_cv;
  bool merge_stop = false;
  std::thread merger;
  if (merge_interval_ms > 0) {
    merger = std::thread([&] {
      std::unique_lock<std::mutex> lock(merge_mu);
      while (!merge_cv.wait_for(lock,
                                std::chrono::milliseconds(merge_interval_ms),
                                [&] { return merge_stop; })) {
        lock.unlock();
        if (live.delta_trajectories() == 0) {
          lock.lock();
          continue;  // nothing to compact; keep the generation
        }
        if (!live.MergeDelta(shards, "", &executor)) {
          std::fprintf(stderr, "merge refused (generation %llu kept)\n",
                       static_cast<unsigned long long>(
                           live.sharded().generation_number()));
        }
        lock.lock();
      }
    });
  }

  std::printf("LISTENING %u\n", server.port());
  std::fflush(stdout);

  // Park until the parent closes our stdin.
  char sink[256];
  while (std::fgets(sink, sizeof(sink), stdin) != nullptr) {
  }

  server.Stop();
  if (merger.joinable()) {
    {
      std::lock_guard<std::mutex> lock(merge_mu);
      merge_stop = true;
    }
    merge_cv.notify_one();
    merger.join();
  }
  const wire::ServerCounters net = server.counters();
  const FrontDoorCounters front = door.counters();
  std::fprintf(stderr,
               "served %llu requests + %llu ingests over %llu sessions "
               "(%llu protocol errors); admitted %llu, shed %llu, "
               "deadline misses %llu; accepted %llu check-ins "
               "(watermark %llu, %llu merges, generation %llu)\n",
               static_cast<unsigned long long>(net.requests_served),
               static_cast<unsigned long long>(net.ingests_served),
               static_cast<unsigned long long>(net.sessions_opened),
               static_cast<unsigned long long>(net.protocol_errors),
               static_cast<unsigned long long>(front.admitted),
               static_cast<unsigned long long>(front.shed),
               static_cast<unsigned long long>(front.deadline_misses),
               static_cast<unsigned long long>(front.checkins_accepted),
               static_cast<unsigned long long>(live.watermark()),
               static_cast<unsigned long long>(live.merges_completed()),
               static_cast<unsigned long long>(
                   live.sharded().generation_number()));
  return 0;
}
