// The server role of gatw_bench: apps/gat_server's serving stack —
// LiveIndex -> LiveSearcher -> QueryEngine -> FrontDoor -> wire::Server
// on one Executor — over a dataset file the client generated, with the
// client's merge cadence. It owns no inputs of its own.
//
// Control channel (stdin commands, stdout replies, one line each):
//   LISTENING <port> index_s=<s> loaded=<shards>   once, when serving
//   MARK        -> MARK key=value ...   CPU, executor, front-door, cache
//                                       and merge counters
//   TRACE 1|0   -> OK                   span recording on / off
//   QUIESCE     -> QUIESCED <n> <cut>.. stops the merger; the cuts are
//                                       the cumulative check-ins each
//                                       merge sealed into the base
//   STORAGE_AB  -> STORAGE_AB mmap_ms=<ms> ram_ms=<ms> reads=<n>
//   EOF         -> SPAN lines (traced), then BYE maxrss_kb=<kb>, exit 0

#include <sys/resource.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "gat/engine/executor.h"
#include "gat/engine/query_engine.h"
#include "gat/index/snapshot.h"
#include "gat/live/live_index.h"
#include "gat/live/live_searcher.h"
#include "gat/model/serialization.h"
#include "gat/net/server.h"
#include "gat/search/gat_search.h"
#include "gat/serve/front_door.h"
#include "request_keys.h"
#include "spans.h"

namespace gatw {
namespace {

double CpuMicros() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
             1e6 +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

/// LiveSearcher::Search is reached through the Searcher vtable, which
/// the link-time hooks cannot see, so the traced server puts this
/// decorator between the engine and the live searcher.
class TracedLiveSearcher : public gat::Searcher {
 public:
  explicit TracedLiveSearcher(const gat::LiveSearcher& inner) : inner_(inner) {}

  gat::ResultList Search(const gat::Query& query, size_t k,
                         gat::QueryKind kind, gat::SearchStats* stats,
                         const gat::QueryContext* context) const override {
    Scope scope(Layer::kLive, Op::kLiveSearch);
    if (Recording()) {
      scope.SetA(static_cast<double>(
          inner_.index().Pin()->delta->trajectories.size()));
    }
    return inner_.Search(query, k, kind, stats, context);
  }
  std::string name() const override { return inner_.name(); }

 private:
  const gat::LiveSearcher& inner_;
};

/// Calls LiveIndex::MergeDelta each time the accepted check-ins cross
/// the next threshold (a quarter of `every` first, then every `every`),
/// the way a count-triggered compaction policy would.
class Merger {
 public:
  Merger(gat::LiveIndex& live, gat::Executor& executor, uint64_t every)
      : live_(live),
        executor_(executor),
        base_trajectories_(live.base().size()),
        next_(every / 4),
        every_(every) {
    if (every_ > 0) thread_ = std::thread([this] { Loop(); });
  }
  ~Merger() { Stop(); }
  Merger(const Merger&) = delete;
  Merger& operator=(const Merger&) = delete;

  /// Lets a running merge finish, then joins.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  uint64_t merges() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cuts_.size();
  }
  double merge_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return merge_seconds_;
  }
  std::vector<uint64_t> cuts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cuts_;
  }
  bool failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (live_.watermark() < next_) {
        cv_.wait_for(lock, std::chrono::milliseconds(2));
        continue;
      }
      lock.unlock();
      const int64_t start = NowNs();
      bool merged = false;
      {
        Scope scope(Layer::kLive, Op::kMerge);
        merged = live_.MergeDelta(kShards, "", &executor_);
      }
      const double seconds = static_cast<double>(NowNs() - start) * 1e-9;
      // Only this thread merges, so base() is stable here: everything
      // past the original trajectories is sealed check-ins.
      uint64_t sealed = 0;
      const auto& trajectories = live_.base().trajectories();
      for (size_t i = base_trajectories_; i < trajectories.size(); ++i) {
        sealed += trajectories[i].size();
      }
      lock.lock();
      if (!merged) {
        std::fprintf(stderr, "server: MergeDelta refused\n");
        failed_ = true;
        stop_ = true;
        break;
      }
      cuts_.push_back(sealed);
      merge_seconds_ += seconds;
      next_ += every_;
    }
  }

  gat::LiveIndex& live_;
  gat::Executor& executor_;
  const size_t base_trajectories_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;                // guarded by mu_
  bool failed_ = false;              // guarded by mu_
  uint64_t next_;                    // guarded by mu_
  const uint64_t every_;
  std::vector<uint64_t> cuts_;       // guarded by mu_
  double merge_seconds_ = 0.0;       // guarded by mu_
  std::thread thread_;               // declared last: uses the above
};

std::string MarkLine(const gat::LiveIndex& live, const gat::Executor& executor,
                     const gat::FrontDoor& door, const Merger& merger) {
  const gat::FrontDoorCounters front = door.counters();
  gat::BlockCacheStats cache;
  if (const gat::BlockCache* block_cache = live.sharded().block_cache()) {
    cache = block_cache->Snapshot();
  }
  const Unattributed loose = UnattributedSoFar();
  char line[640];
  std::snprintf(
      line, sizeof(line),
      "MARK cpu_us=%.0f tasks=%llu admitted=%llu shed=%llu completed=%llu "
      "deadline_misses=%llu ingest_failed=%llu checkins=%llu hits=%llu "
      "misses=%llu evictions=%llu merges=%llu merge_s=%.6f merge_failed=%d "
      "loose_allocs=%llu loose_bytes=%llu",
      CpuMicros(), static_cast<unsigned long long>(executor.tasks_submitted()),
      static_cast<unsigned long long>(front.admitted),
      static_cast<unsigned long long>(front.shed),
      static_cast<unsigned long long>(front.completed),
      static_cast<unsigned long long>(front.deadline_misses),
      static_cast<unsigned long long>(front.ingest_failed +
                                      front.ingest_shed),
      static_cast<unsigned long long>(front.checkins_accepted),
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses),
      static_cast<unsigned long long>(cache.evictions),
      static_cast<unsigned long long>(merger.merges()),
      merger.merge_seconds(), merger.failed() ? 1 : 0,
      static_cast<unsigned long long>(loose.allocs),
      static_cast<unsigned long long>(loose.bytes));
  return line;
}

/// storage.self_ms: the reads the traced server answered, searched once
/// per shard through the mapped (block-cached) index and once through
/// an in-memory copy loaded from the same snapshot file. Interleaved
/// per read, so the two sides see the same machine state.
std::string StorageComparison(const gat::LiveIndex& live,
                              const std::string& snapshot_dir) {
  auto reads = ServedReads();
  if (reads.size() > 64) reads.resize(64);
  const auto generation = live.sharded().PinGeneration();
  const uint32_t shards = generation->num_shards();
  const gat::GatConfig config = live.sharded().config();
  std::vector<std::unique_ptr<gat::GatIndex>> in_memory(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    in_memory[s] = gat::LoadSnapshot(
        gat::ShardedIndex::SnapshotPath(snapshot_dir, s, shards), &config,
        gat::DatasetFingerprint(generation->shard_dataset(s)));
    if (in_memory[s] == nullptr || reads.empty()) return "STORAGE_AB error";
  }
  int64_t mapped_ns = 0;
  int64_t memory_ns = 0;
  constexpr int kRounds = 2;
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& [query, kind] : reads) {
      for (uint32_t s = 0; s < shards; ++s) {
        const auto pinned = generation->PinShard(s);
        const gat::GatSearcher mapped(generation->shard_dataset(s),
                                      *pinned->index);
        const gat::GatSearcher memory(generation->shard_dataset(s),
                                      *in_memory[s]);
        int64_t t0 = NowNs();
        const gat::ResultList a = mapped.Search(query, kTopK, kind);
        int64_t t1 = NowNs();
        const gat::ResultList b = memory.Search(query, kTopK, kind);
        int64_t t2 = NowNs();
        if (a != b) return "STORAGE_AB error";
        mapped_ns += t1 - t0;
        memory_ns += t2 - t1;
      }
    }
  }
  const double n = static_cast<double>(kRounds * reads.size());
  char line[160];
  std::snprintf(line, sizeof(line),
                "STORAGE_AB mmap_ms=%.6f ram_ms=%.6f reads=%zu",
                static_cast<double>(mapped_ns) * 1e-6 / n,
                static_cast<double>(memory_ns) * 1e-6 / n, reads.size());
  return line;
}

void PrintSpans() {
  for (const Span& s : TakeSpans()) {
    std::printf(
        "SPAN %llu %d %d %d %lld %lld %llu %llu %.9g %.9g %llu %llu %llu "
        "%llu %llu %llu %llu %llu\n",
        static_cast<unsigned long long>(s.request), s.parent,
        static_cast<int>(s.layer), static_cast<int>(s.op),
        static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
        static_cast<unsigned long long>(s.allocs),
        static_cast<unsigned long long>(s.alloc_bytes), s.a, s.b,
        static_cast<unsigned long long>(s.stats.candidates_retrieved),
        static_cast<unsigned long long>(s.stats.tas_pruned),
        static_cast<unsigned long long>(s.stats.activity_rejected),
        static_cast<unsigned long long>(s.stats.mib_rejected),
        static_cast<unsigned long long>(s.stats.distance_computations),
        static_cast<unsigned long long>(s.stats.nodes_popped),
        static_cast<unsigned long long>(s.stats.rounds),
        static_cast<unsigned long long>(s.stats.disk_reads));
  }
}

}  // namespace

int ServeMain(int argc, char** argv) {
  const std::string dataset_path = Flag(argc, argv, "--dataset");
  const std::string snapshot_dir = Flag(argc, argv, "--snapshot-dir");
  const uint64_t merge_every =
      std::stoull(Flag(argc, argv, "--merge-every", "0"));

  gat::Dataset city;
  if (!gat::LoadBinary(&city, dataset_path)) {
    std::fprintf(stderr, "server: cannot load %s\n", dataset_path.c_str());
    return 1;
  }
  gat::Executor executor(kExecutorThreads);
  gat::ShardOptions shard_options;
  shard_options.num_shards = kShards;
  shard_options.executor = &executor;
  if (!snapshot_dir.empty()) {
    shard_options.snapshot_dir = snapshot_dir;
    shard_options.mmap_disk_tier = true;
    shard_options.cache_config.capacity_bytes = kCacheBytes;
  }
  gat::LiveIndex live(std::move(city), gat::GatConfig{}, shard_options);
  const gat::LiveSearcher searcher(live, {}, &executor);
  const TracedLiveSearcher traced_searcher(searcher);
  const gat::QueryEngine engine(
      kTracedBinary ? static_cast<const gat::Searcher&>(traced_searcher)
                    : searcher,
      gat::EngineOptions{.executor = &executor});

  // Quotas far above anything the client offers: nothing is shed.
  gat::FrontDoorOptions door_options;
  door_options.default_quota = gat::TenantQuota{1e9, 1e9};
  door_options.default_write_quota = gat::TenantQuota{1e9, 1e9};
  gat::FrontDoor door(engine, door_options);
  door.AttachLiveIndex(&live);

  gat::wire::ServerOptions server_options;
  server_options.executor = &executor;
  gat::wire::Server server(door, server_options);
  if (!server.Start()) {
    std::fprintf(stderr, "server: bind/listen failed\n");
    return 1;
  }
  Merger merger(live, executor, merge_every);

  double index_seconds = 0.0;
  {
    const auto generation = live.sharded().PinGeneration();
    for (uint32_t s = 0; s < generation->num_shards(); ++s) {
      index_seconds += generation->PinShard(s)->index->build_seconds();
    }
  }
  std::printf("LISTENING %u index_s=%.6f loaded=%u\n", server.port(),
              index_seconds, live.sharded().shards_loaded_from_snapshot());
  std::fflush(stdout);

  char command[256];
  while (std::fgets(command, sizeof(command), stdin) != nullptr) {
    const std::string cmd(command, std::strcspn(command, "\r\n"));
    std::string reply;
    if (cmd == "MARK") {
      reply = MarkLine(live, executor, door, merger);
    } else if (cmd == "TRACE 1" || cmd == "TRACE 0") {
      SetRecording(kTracedBinary && cmd == "TRACE 1");
      reply = "OK";
    } else if (cmd == "QUIESCE") {
      merger.Stop();
      const std::vector<uint64_t> cuts = merger.cuts();
      reply = "QUIESCED " + std::to_string(cuts.size());
      for (const uint64_t cut : cuts) reply += " " + std::to_string(cut);
    } else if (cmd == "STORAGE_AB") {
      reply = StorageComparison(live, snapshot_dir);
    } else {
      reply = "ERROR unknown command";
    }
    std::printf("%s\n", reply.c_str());
    std::fflush(stdout);
  }

  server.Stop();
  merger.Stop();
  SetRecording(false);
  if (kTracedBinary) PrintSpans();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("BYE maxrss_kb=%ld\n", usage.ru_maxrss);
  std::fflush(stdout);
  return 0;
}

}  // namespace gatw
