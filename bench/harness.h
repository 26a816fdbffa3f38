#ifndef GAT_BENCH_HARNESS_H_
#define GAT_BENCH_HARNESS_H_

// Shared experiment harness for the figure/table benches.
//
// Every bench binary reproduces one figure or table of Zheng et al., ICDE
// 2013, Section VII, printing the same rows/series the paper plots — and
// records every measured point into a machine-readable `BENCH_<name>.json`
// (schema in docs/BENCH_PROTOCOL.md) so runs can be diffed for perf
// regressions.
//
// Measurement protocol (flags, with env fallbacks in parentheses):
//
//   --threads N      executor worker threads          (GAT_BENCH_THREADS, 1)
//   --warmup W       un-timed warmup batches          (GAT_BENCH_WARMUP, 1)
//   --target-rsd P   stop repeating when the relative standard deviation
//                    of the batch timings drops to P% (GAT_BENCH_TARGET_RSD, 5)
//   --max-repeat M   hard cap on timed batches        (GAT_BENCH_MAX_REPEAT, 5)
//   --json PATH      output path (default BENCH_<name>.json in the cwd)
//
// Open-loop serving benches (bench_serving) extend the protocol with
// append-only fields — closed-loop benches ignore them:
//
//   --arrival-rate R offered load in requests/s at 1x (GAT_BENCH_ARRIVAL_RATE)
//   --virtual-time   drive arrivals on a simulated clock, making the
//                    admission/deadline counters machine-independent
//                    (GAT_BENCH_VIRTUAL_TIME=1)
//
// Scale and query count of the workloads stay tunable via environment
// variables so the same binary covers quick smoke runs and full-size
// reproductions:
//
//   GAT_BENCH_SCALE    fraction of the Table-IV dataset sizes (default 0.04)
//   GAT_BENCH_QUERIES  queries per measurement point     (default 15; the
//                      paper uses 50 — set it for full fidelity)

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "gat/baselines/il_search.h"
#include "gat/baselines/rt_search.h"
#include "gat/core/searcher.h"
#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/query_engine.h"
#include "gat/index/gat_index.h"
#include "gat/model/dataset_stats.h"
#include "gat/search/gat_search.h"
#include "gat/storage/block_cache.h"
#include "gat/util/stopwatch.h"

namespace gat::bench {

inline double ScaleFromEnv() {
  const char* s = std::getenv("GAT_BENCH_SCALE");
  if (s == nullptr) return 0.04;
  const double v = std::atof(s);
  return v > 0.0 ? v : 0.04;
}

inline uint32_t QueriesFromEnv() {
  const char* s = std::getenv("GAT_BENCH_QUERIES");
  if (s == nullptr) return 15;
  const int v = std::atoi(s);
  return v > 0 ? static_cast<uint32_t>(v) : 15;
}

/// The measurement protocol shared by every figure/table bench. See
/// docs/BENCH_PROTOCOL.md for the full semantics.
struct BenchProtocol {
  uint32_t threads = 1;
  uint32_t warmup = 1;
  double target_rsd_pct = 5.0;
  uint32_t max_repeat = 5;
  std::string json_path;  // empty = BENCH_<name>.json in the cwd
  /// Open-loop extension (append-only): offered load at 1x in
  /// requests/s. 0 = not an open-loop bench (the field is then absent
  /// from the JSON protocol block, keeping old artifacts byte-stable).
  double arrival_rate = 0.0;
  /// Open-loop extension: arrivals ride a simulated clock instead of
  /// wall time, so admission/deadline counters are exact across
  /// machines and thread counts.
  bool virtual_time = false;

  static BenchProtocol FromArgs(int argc, char** argv) {
    BenchProtocol p;
    auto env_u32 = [](const char* name, uint32_t fallback) {
      const char* s = std::getenv(name);
      if (s == nullptr) return fallback;
      const int v = std::atoi(s);
      return v > 0 ? static_cast<uint32_t>(v) : fallback;
    };
    p.threads = env_u32("GAT_BENCH_THREADS", p.threads);
    p.warmup = env_u32("GAT_BENCH_WARMUP", p.warmup);
    p.max_repeat = env_u32("GAT_BENCH_MAX_REPEAT", p.max_repeat);
    if (const char* s = std::getenv("GAT_BENCH_TARGET_RSD")) {
      const double v = std::atof(s);
      if (v > 0.0) p.target_rsd_pct = v;
    }
    if (const char* s = std::getenv("GAT_BENCH_ARRIVAL_RATE")) {
      const double v = std::atof(s);
      if (v > 0.0) p.arrival_rate = v;
    }
    if (const char* s = std::getenv("GAT_BENCH_VIRTUAL_TIME")) {
      p.virtual_time = std::atoi(s) != 0;
    }
    for (int i = 1; i < argc; ++i) {
      auto value = [&](const char* flag) -> const char* {
        if (std::strcmp(argv[i], flag) != 0) return nullptr;
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", flag);
          std::exit(2);
        }
        return argv[++i];
      };
      // Rejects negatives before the unsigned cast can wrap them into
      // ~4-billion thread pools / repeat counts.
      auto non_negative = [](const char* flag, const char* v) {
        const int parsed = std::atoi(v);
        if (parsed < 0) {
          std::fprintf(stderr, "invalid value for %s: %s\n", flag, v);
          std::exit(2);
        }
        return static_cast<uint32_t>(parsed);
      };
      if (const char* v = value("--threads")) {
        p.threads = non_negative("--threads", v);
      } else if (const char* v = value("--warmup")) {
        p.warmup = non_negative("--warmup", v);
      } else if (const char* v = value("--target-rsd")) {
        p.target_rsd_pct = std::atof(v);
        if (p.target_rsd_pct < 0.0) {
          std::fprintf(stderr, "invalid value for --target-rsd: %s\n", v);
          std::exit(2);
        }
      } else if (const char* v = value("--max-repeat")) {
        p.max_repeat = non_negative("--max-repeat", v);
      } else if (const char* v = value("--json")) {
        p.json_path = v;
      } else if (const char* v = value("--arrival-rate")) {
        p.arrival_rate = std::atof(v);
        if (p.arrival_rate < 0.0) {
          std::fprintf(stderr, "invalid value for --arrival-rate: %s\n", v);
          std::exit(2);
        }
      } else if (std::strcmp(argv[i], "--virtual-time") == 0) {
        p.virtual_time = true;
      } else {
        std::fprintf(stderr,
                     "unknown flag %s\nusage: %s [--threads N] [--warmup W] "
                     "[--target-rsd P] [--max-repeat M] [--json PATH] "
                     "[--arrival-rate R] [--virtual-time]\n",
                     argv[i], argv[0]);
        std::exit(2);
      }
    }
    if (p.threads == 0) p.threads = 1;
    if (p.max_repeat == 0) p.max_repeat = 1;
    return p;
  }
};

/// The Table-V defaults.
inline QueryWorkloadParams DefaultWorkload(uint64_t seed) {
  QueryWorkloadParams wp;
  wp.num_query_points = 4;
  wp.activities_per_point = 3;
  wp.diameter_km = 10.0;
  wp.num_queries = QueriesFromEnv();
  wp.seed = seed;
  return wp;
}

/// One city with the paper's four competitors built over it.
class CityFixture {
 public:
  explicit CityFixture(const CityProfile& profile)
      : name_(profile.name), dataset_(GenerateCity(profile)) {
    Build();
  }

  /// Takes ownership of an already-generated dataset (Figure-7 subsets).
  CityFixture(std::string name, Dataset dataset)
      : name_(std::move(name)), dataset_(std::move(dataset)) {
    Build();
  }

  const std::string& name() const { return name_; }
  const Dataset& dataset() const { return dataset_; }
  const GatIndex& index() const { return *index_; }

  /// Searchers in the paper's plotting order: IL, RT, IRT, GAT.
  std::vector<const Searcher*> searchers() const {
    return {il_.get(), rt_.get(), irt_.get(), gat_.get()};
  }
  const GatSearcher& gat() const { return *gat_; }

 private:
  void Build() {
    index_ = std::make_unique<GatIndex>(dataset_);
    gat_ = std::make_unique<GatSearcher>(dataset_, *index_);
    il_ = std::make_unique<IlSearcher>(dataset_);
    rt_ = std::make_unique<RtSearcher>(dataset_);
    irt_ = std::make_unique<IrtSearcher>(dataset_);
  }

  std::string name_;
  Dataset dataset_;
  std::unique_ptr<GatIndex> index_;
  std::unique_ptr<GatSearcher> gat_;
  std::unique_ptr<IlSearcher> il_;
  std::unique_ptr<RtSearcher> rt_;
  std::unique_ptr<IrtSearcher> irt_;
};

struct Measurement {
  /// CPU time per query: the mean of the per-query `elapsed_ms` each
  /// searcher records. Thread-count independent (total CPU work divided
  /// by #queries), so it stays comparable across --threads settings.
  double avg_ms = 0.0;
  SearchStats totals;        ///< counters of one batch (deterministic)
  /// Throughput: mean batch wall-clock per query across timed repeats.
  /// With --threads > 1 this is smaller than avg_ms * 1e6 — it measures
  /// how fast the engine drains the batch, not per-query CPU.
  double ns_per_op = 0.0;
  /// Per-query latency percentiles over every (query, repeat) pair: the
  /// engine-observed wall-clock of the `Search` call
  /// (`QueryLatency::wall_ms`). Unlike ns_per_op these measure one
  /// query's latency, not batch throughput.
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double rsd_pct = 0.0;      ///< relative stddev of the repeat timings
  uint32_t repeats = 0;      ///< timed batches actually run
  uint32_t threads = 1;      ///< executor workers used (1 = inline)
  /// Block-cache observability (mmap disk tier only): block size of the
  /// cache behind the measured searcher, 0 when the bench passed none.
  /// The per-query block counters (`totals.block_hits` /
  /// `totals.blocks_read`) ride along either way.
  uint32_t cache_block_bytes = 0;
  /// Live-reload observability (bench_live_reload): set by the bench
  /// after MeasureWorkload when a background reloader ran alongside the
  /// measurement. `shard_reloads` = generations published during the
  /// measurement, `invalidated_blocks` = cache blocks purged by retired
  /// mappings. Both are interleaving-dependent — advisory in diffs.
  bool has_reload = false;
  uint64_t shard_reloads = 0;
  uint64_t invalidated_blocks = 0;
  /// Serving observability (bench_serving): front-door outcomes of one
  /// open-loop run. Under --virtual-time the counters are exact
  /// (machine- and thread-count-independent) and bench_diff.py gates
  /// them; goodput is completions per virtual second.
  bool has_serving = false;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t deadline_misses = 0;
  double goodput_qps = 0.0;
  /// Live-ingestion observability (bench_ingest): the delta/base state
  /// behind the measured point. At quiesced points (ingest paused at a
  /// fixed watermark) `ingested_checkins`, `delta_trajectories`,
  /// `merges_completed` and `generation` are exact and bench_diff.py
  /// gates them; `freshness_lag_ms` (ingest-ack to first queryable
  /// result) is wall-clock — advisory. Set by the bench.
  bool has_ingest = false;
  uint64_t ingested_checkins = 0;
  uint64_t delta_trajectories = 0;
  uint64_t merges_completed = 0;
  uint64_t generation = 0;
  double freshness_lag_ms = 0.0;
};

/// Nearest-rank percentile (p in [0, 100]) of an ascending-sorted sample.
inline double PercentileMs(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Runs a workload through one searcher under the measurement protocol:
/// `warmup` un-timed batches, then timed batches until the relative
/// standard deviation of the batch wall-clocks reaches `target_rsd_pct`
/// (or `max_repeat` batches). Every time it reports is measured
/// wall-clock; disk work is the `totals.disk_reads` counter.
/// `cache`, when given, is the block cache behind `searcher`; it only
/// stamps the record's `block_size`.
inline Measurement MeasureWorkload(const Searcher& searcher,
                                   const std::vector<Query>& queries, size_t k,
                                   QueryKind kind, const BenchProtocol& proto,
                                   const BlockCache* cache = nullptr) {
  Measurement m;
  if (queries.empty()) return m;
  // --threads 1 runs each batch inline, in query order.
  std::unique_ptr<Executor> executor;
  if (proto.threads > 1) executor = std::make_unique<Executor>(proto.threads);
  QueryEngine engine(searcher, EngineOptions{.executor = executor.get()});
  m.threads = engine.threads();
  if (cache != nullptr) m.cache_block_bytes = cache->block_bytes();

  for (uint32_t w = 0; w < proto.warmup; ++w) {
    (void)engine.Run(queries, k, kind);
  }

  auto mean_of = [](const std::vector<double>& xs) {
    double sum = 0.0;
    for (double v : xs) sum += v;
    return sum / static_cast<double>(xs.size());
  };
  auto rsd_of = [&](const std::vector<double>& xs) {
    const double mean = mean_of(xs);
    if (mean <= 0.0) return 0.0;
    double var = 0.0;
    for (double v : xs) var += (v - mean) * (v - mean);
    var /= static_cast<double>(xs.size());
    return 100.0 * std::sqrt(var) / mean;
  };

  std::vector<double> batch_ms;   // wall-clock per batch (throughput)
  std::vector<double> cpu_ms;     // summed per-query elapsed per batch
  std::vector<double> query_lat;  // per-(query, repeat) latency sample
  for (uint32_t r = 0; r < proto.max_repeat; ++r) {
    BatchResult batch = engine.Run(queries, k, kind);
    batch_ms.push_back(batch.wall_ms);
    cpu_ms.push_back(batch.totals.elapsed_ms);
    for (const QueryLatency& lat : batch.latencies) {
      query_lat.push_back(lat.wall_ms);
    }
    // Counters are deterministic across repeats; keep the last batch's.
    m.totals = batch.totals;
    if (batch_ms.size() >= 2) {
      m.rsd_pct = rsd_of(batch_ms);
      if (m.rsd_pct <= proto.target_rsd_pct) break;
    }
  }

  m.repeats = static_cast<uint32_t>(batch_ms.size());
  std::sort(query_lat.begin(), query_lat.end());
  m.p50_ms = PercentileMs(query_lat, 50.0);
  m.p95_ms = PercentileMs(query_lat, 95.0);
  m.p99_ms = PercentileMs(query_lat, 99.0);
  m.ns_per_op = mean_of(batch_ms) * 1e6 / static_cast<double>(queries.size());
  // CPU time from the searchers' own per-query stopwatches: the sum over a
  // batch is invariant to how the engine spread the queries over threads.
  m.avg_ms = mean_of(cpu_ms) / static_cast<double>(queries.size());
  return m;
}

/// Accumulates measured points and writes the `BENCH_<name>.json` payload
/// documented in docs/BENCH_PROTOCOL.md.
class BenchReport {
 public:
  BenchReport(std::string name, const BenchProtocol& proto)
      : name_(std::move(name)), proto_(proto) {}

  /// Replaces the protocol block the report will emit. For benches that
  /// resolve protocol defaults after construction (e.g. bench_serving
  /// substituting its default --arrival-rate), so the JSON records what
  /// actually ran.
  void OverrideProtocol(const BenchProtocol& proto) { proto_ = proto; }

  /// Records one measured point. `ops` is the number of operations behind
  /// one repeat (usually the workload's query count). `shards` > 0 stamps
  /// the record with the shard count behind it; scripts/bench_diff.py
  /// refuses to compare records measured at different shard counts.
  void Add(const std::string& point_name, const Measurement& m, size_t ops,
           uint32_t shards = 0) {
    Record rec;
    rec.name = point_name;
    rec.ns_per_op = m.ns_per_op;
    rec.rsd_pct = m.rsd_pct;
    rec.repeats = m.repeats;
    rec.ops = ops;
    rec.candidates_verified = m.totals.candidates_retrieved;
    rec.tas_pruned = m.totals.tas_pruned;
    rec.distance_computations = m.totals.distance_computations;
    rec.disk_reads = m.totals.disk_reads;
    rec.avg_ms_per_query = m.avg_ms;
    rec.p50_ms = m.p50_ms;
    rec.p95_ms = m.p95_ms;
    rec.p99_ms = m.p99_ms;
    rec.has_latency = true;
    rec.shards = shards;
    // Emit the block fields whenever there was block traffic, not only
    // when the bench passed its cache — a bench driving a mapped
    // searcher without naming the cache still wants its blocks_read
    // gated (block_size then reads 0 = "not reported").
    rec.has_cache = m.cache_block_bytes > 0 ||
                    m.totals.block_hits + m.totals.blocks_read > 0;
    rec.block_size = m.cache_block_bytes;
    rec.block_hits = m.totals.block_hits;
    rec.blocks_read = m.totals.blocks_read;
    rec.index_pins = m.totals.index_pins;
    rec.has_reload = m.has_reload;
    rec.shard_reloads = m.shard_reloads;
    rec.invalidated_blocks = m.invalidated_blocks;
    rec.has_serving = m.has_serving;
    rec.admitted = m.admitted;
    rec.shed = m.shed;
    rec.deadline_misses = m.deadline_misses;
    rec.goodput_qps = m.goodput_qps;
    rec.has_ingest = m.has_ingest;
    rec.ingested_checkins = m.ingested_checkins;
    rec.delta_trajectories = m.delta_trajectories;
    rec.merges_completed = m.merges_completed;
    rec.generation = m.generation;
    rec.freshness_lag_ms = m.freshness_lag_ms;
    records_.push_back(std::move(rec));
  }

  /// Records a point measured outside QueryEngine (kernel ablations).
  void AddRaw(const std::string& point_name, double ns_per_op, double rsd_pct,
              uint32_t repeats, size_t ops) {
    Record rec;
    rec.name = point_name;
    rec.ns_per_op = ns_per_op;
    rec.rsd_pct = rsd_pct;
    rec.repeats = repeats;
    rec.ops = ops;
    records_.push_back(std::move(rec));
  }

  /// Writes the JSON payload; returns the path written, or an empty
  /// string when the file could not be created (callers should exit
  /// non-zero so CI never mistakes a missing artifact for a clean run).
  /// Call once, at the end of main.
  std::string Write() const {
    const std::string path =
        proto_.json_path.empty() ? "BENCH_" + name_ + ".json"
                                 : proto_.json_path;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return std::string();
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"%s\",\n", Escaped(name_).c_str());
    std::fprintf(f, "  \"schema_version\": 1,\n");
    std::fprintf(f, "  \"unit\": \"ns/op\",\n");
    std::fprintf(f,
                 "  \"protocol\": {\"threads\": %u, \"warmup\": %u, "
                 "\"target_rsd_pct\": %g, \"max_repeat\": %u, "
                 "\"scale\": %g, \"queries_per_point\": %u",
                 proto_.threads, proto_.warmup, proto_.target_rsd_pct,
                 proto_.max_repeat, ScaleFromEnv(), QueriesFromEnv());
    // Open-loop extension fields, append-only: absent for closed-loop
    // benches so every pre-existing artifact stays byte-stable.
    if (proto_.arrival_rate > 0.0) {
      std::fprintf(f, ", \"arrival_rate\": %g", proto_.arrival_rate);
    }
    if (proto_.virtual_time) std::fprintf(f, ", \"virtual_time\": true");
    std::fprintf(f, "},\n");
    std::fprintf(f, "  \"results\": [");
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f, "%s\n    {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                      "\"rsd_pct\": %.3f, \"repeats\": %u, \"ops\": %zu, "
                      "\"candidates_verified\": %llu, \"tas_pruned\": %llu, "
                      "\"distance_computations\": %llu, \"disk_reads\": %llu, "
                      "\"avg_ms_per_query\": %.6f",
                   i == 0 ? "" : ",", Escaped(r.name).c_str(), r.ns_per_op,
                   r.rsd_pct, r.repeats, r.ops,
                   static_cast<unsigned long long>(r.candidates_verified),
                   static_cast<unsigned long long>(r.tas_pruned),
                   static_cast<unsigned long long>(r.distance_computations),
                   static_cast<unsigned long long>(r.disk_reads),
                   r.avg_ms_per_query);
      // Optional fields (schema is append-only; consumers must ignore
      // keys they do not know — see docs/BENCH_PROTOCOL.md).
      if (r.has_latency) {
        std::fprintf(f, ", \"p50_ms\": %.6f, \"p95_ms\": %.6f, "
                        "\"p99_ms\": %.6f",
                     r.p50_ms, r.p95_ms, r.p99_ms);
      }
      if (r.shards > 0) std::fprintf(f, ", \"shards\": %u", r.shards);
      // One per shard visit: deterministic (queries x shards), 0 for
      // single-index searchers. Sharded records emit the field even at
      // 0 — a serving path that stops visiting shards must show up as
      // counter drift against its baseline, not as a silently absent
      // field.
      if (r.index_pins > 0 || r.shards > 0) {
        std::fprintf(f, ", \"index_pins\": %llu",
                     static_cast<unsigned long long>(r.index_pins));
      }
      if (r.has_reload) {
        // Generation swaps behind the measurement — interleaving-
        // dependent, diffed advisorily (see docs/BENCH_PROTOCOL.md).
        std::fprintf(f, ", \"shard_reloads\": %llu, "
                        "\"invalidated_blocks\": %llu",
                     static_cast<unsigned long long>(r.shard_reloads),
                     static_cast<unsigned long long>(r.invalidated_blocks));
      }
      if (r.has_serving) {
        // Front-door outcomes of one open-loop point. Exact under
        // --virtual-time (bench_diff.py gates them); goodput is
        // advisory either way.
        std::fprintf(f,
                     ", \"admitted\": %llu, \"shed_count\": %llu, "
                     "\"deadline_misses\": %llu, \"goodput_qps\": %.6f",
                     static_cast<unsigned long long>(r.admitted),
                     static_cast<unsigned long long>(r.shed),
                     static_cast<unsigned long long>(r.deadline_misses),
                     r.goodput_qps);
      }
      if (r.has_ingest) {
        // Delta/base state behind the point. The counters are exact at
        // quiesced points (ingest paused at a fixed watermark —
        // bench_diff.py gates them); `freshness_lag_ms` is wall-clock,
        // advisory always.
        std::fprintf(f,
                     ", \"ingested_checkins\": %llu, "
                     "\"delta_trajectories\": %llu, "
                     "\"merges_completed\": %llu, \"generation\": %llu, "
                     "\"freshness_lag_ms\": %.6f",
                     static_cast<unsigned long long>(r.ingested_checkins),
                     static_cast<unsigned long long>(r.delta_trajectories),
                     static_cast<unsigned long long>(r.merges_completed),
                     static_cast<unsigned long long>(r.generation),
                     r.freshness_lag_ms);
      }
      if (r.has_cache) {
        // Block-cache fields (mmap disk tier): `blocks_read` is the
        // demand misses of the last timed batch — deterministic at
        // --threads 1, interleaving-dependent above (bench_diff.py
        // gates accordingly); `cache_hit_rate` = hits / lookups.
        const double hit_rate =
            CacheHitRate(r.block_hits, r.block_hits + r.blocks_read);
        std::fprintf(f,
                     ", \"block_size\": %u, \"blocks_read\": %llu, "
                     "\"cache_hit_rate\": %.6f",
                     r.block_size,
                     static_cast<unsigned long long>(r.blocks_read), hit_rate);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s (%zu records)\n", path.c_str(), records_.size());
    return path;
  }

 private:
  struct Record {
    std::string name;
    double ns_per_op = 0.0;
    double rsd_pct = 0.0;
    uint32_t repeats = 0;
    size_t ops = 0;
    uint64_t candidates_verified = 0;
    uint64_t tas_pruned = 0;
    uint64_t distance_computations = 0;
    uint64_t disk_reads = 0;
    double avg_ms_per_query = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    bool has_latency = false;  // AddRaw points have no per-query sample
    uint32_t shards = 0;       // 0 = not a sharded measurement
    bool has_cache = false;    // block-cache fields below are meaningful
    uint32_t block_size = 0;
    uint64_t block_hits = 0;
    uint64_t blocks_read = 0;
    uint64_t index_pins = 0;   // shard visits; emitted when > 0
    bool has_reload = false;   // reload fields below are meaningful
    uint64_t shard_reloads = 0;
    uint64_t invalidated_blocks = 0;
    bool has_serving = false;  // serving fields below are meaningful
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t deadline_misses = 0;
    double goodput_qps = 0.0;
    bool has_ingest = false;   // ingest fields below are meaningful
    uint64_t ingested_checkins = 0;
    uint64_t delta_trajectories = 0;
    uint64_t merges_completed = 0;
    uint64_t generation = 0;
    double freshness_lag_ms = 0.0;
  };

  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
  }

  std::string name_;
  BenchProtocol proto_;
  std::vector<Record> records_;
};

/// Shared entry point of every protocol bench: parse flags, run the
/// bench body, write the JSON artifact. Returns the process exit code
/// (non-zero when the artifact could not be written).
inline int BenchMain(int argc, char** argv, const char* name,
                     void (*run)(const BenchProtocol&, BenchReport&)) {
  const BenchProtocol proto = BenchProtocol::FromArgs(argc, argv);
  BenchReport report(name, proto);
  run(proto, report);
  return report.Write().empty() ? 1 : 0;
}

/// Paper-style table printing: one row per x-axis value, one column per
/// method, milliseconds per query.
inline void PrintPanelHeader(const std::string& title,
                             const std::string& x_label,
                             const std::vector<const Searcher*>& methods) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-10s", x_label.c_str());
  for (const auto* s : methods) std::printf("%12s", s->name().c_str());
  std::printf("   (avg ms/query, measured)\n");
}

inline void PrintPanelRow(const std::string& x_value,
                          const std::vector<double>& values) {
  std::printf("%-10s", x_value.c_str());
  for (double v : values) std::printf("%12.3f", v);
  std::printf("\n");
}

inline void PrintRunBanner(const char* figure, const char* what,
                           const BenchProtocol& proto) {
  std::printf("--------------------------------------------------------\n");
  std::printf("%s: %s\n", figure, what);
  std::printf("scale=%.3f of Table-IV sizes, %u queries/point "
              "(GAT_BENCH_SCALE / GAT_BENCH_QUERIES to change)\n",
              ScaleFromEnv(), QueriesFromEnv());
  std::printf("protocol: threads=%u warmup=%u target-rsd=%.1f%% "
              "max-repeat=%u\n",
              proto.threads, proto.warmup, proto.target_rsd_pct,
              proto.max_repeat);
  std::printf("--------------------------------------------------------\n");
}

}  // namespace gat::bench

#endif  // GAT_BENCH_HARNESS_H_
