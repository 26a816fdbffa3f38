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
// The protocol flags and the workload variables (GAT_BENCH_SCALE, the
// fraction of the Table-IV dataset sizes; GAT_BENCH_QUERIES, queries per
// point — the paper uses 50) are listed in ExitUsage's usage text and
// explained in docs/BENCH_PROTOCOL.md.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <variant>
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

/// Prints `message` and the usage text to stderr and exits 2.
[[noreturn]] inline void ExitUsage(const std::string& message) {
  std::fprintf(stderr,
               "%s\nusage: bench_* [--threads 0-1024 (default 1)] "
               "[--warmup W (1)] [--target-rsd P (5)]\n"
               "               [--max-repeat M (5)] [--json PATH "
               "(BENCH_<name>.json)]\n"
               "  P: a finite number >= 0\n"
               "  env: GAT_BENCH_SCALE (finite, > 0; default 0.04), "
               "GAT_BENCH_QUERIES (>= 1; default 15)\n",
               message.c_str());
  std::exit(2);
}

/// Decimal digits only, no sign or blanks, within [lo, hi]; otherwise
/// exits 2 naming `what`.
inline uint32_t ParseU32OrExit(const char* what, const char* text,
                               uint32_t lo, uint32_t hi) {
  errno = 0;
  char* end = nullptr;
  const bool digits = *text >= '0' && *text <= '9';
  const unsigned long long value = digits ? std::strtoull(text, &end, 10) : 0;
  if (!digits || errno != 0 || *end != '\0' || value < lo || value > hi) {
    ExitUsage(std::string("invalid value for ") + what + ": " + text);
  }
  return static_cast<uint32_t>(value);
}

/// A finite number >= `lo` (> `lo` when `exclusive`); otherwise exits 2
/// naming `what`.
inline double ParseDoubleOrExit(const char* what, const char* text, double lo,
                                bool exclusive) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0 || !std::isfinite(value) ||
      value < lo || (exclusive && value == lo)) {
    ExitUsage(std::string("invalid value for ") + what + ": " + text);
  }
  return value;
}

inline double ScaleFromEnv() {
  const char* s = std::getenv("GAT_BENCH_SCALE");
  if (s == nullptr) return 0.04;
  return ParseDoubleOrExit("GAT_BENCH_SCALE", s, 0.0, true);
}

inline uint32_t QueriesFromEnv() {
  const char* s = std::getenv("GAT_BENCH_QUERIES");
  if (s == nullptr) return 15;
  return ParseU32OrExit("GAT_BENCH_QUERIES", s, 1, UINT32_MAX);
}

/// The measurement protocol shared by every figure/table bench. See
/// docs/BENCH_PROTOCOL.md for the full semantics.
struct BenchProtocol {
  uint32_t threads = 1;
  uint32_t warmup = 1;
  double target_rsd_pct = 5.0;
  uint32_t max_repeat = 5;
  std::string json_path;  // empty = BENCH_<name>.json in the cwd

  /// Parses the protocol flags and checks the workload variables, so a
  /// bad value exits 2 before any work starts.
  static BenchProtocol FromArgs(int argc, char** argv) {
    BenchProtocol p;
    for (int i = 1; i < argc; ++i) {
      auto value = [&](const char* flag) -> const char* {
        if (std::strcmp(argv[i], flag) != 0) return nullptr;
        if (i + 1 >= argc) {
          ExitUsage(std::string("missing value for ") + flag);
        }
        return argv[++i];
      };
      if (const char* v = value("--threads")) {
        p.threads = ParseU32OrExit("--threads", v, 0, 1024);
      } else if (const char* v = value("--warmup")) {
        p.warmup = ParseU32OrExit("--warmup", v, 0, UINT32_MAX);
      } else if (const char* v = value("--target-rsd")) {
        p.target_rsd_pct = ParseDoubleOrExit("--target-rsd", v, 0.0, false);
      } else if (const char* v = value("--max-repeat")) {
        p.max_repeat = ParseU32OrExit("--max-repeat", v, 0, UINT32_MAX);
      } else if (const char* v = value("--json")) {
        p.json_path = v;
      } else {
        ExitUsage(std::string("unknown flag ") + argv[i]);
      }
    }
    if (p.threads == 0) p.threads = 1;
    if (p.max_repeat == 0) p.max_repeat = 1;
    (void)ScaleFromEnv();
    (void)QueriesFromEnv();
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
  /// Fields the bench itself owns (live-reload activity, ingest state),
  /// written in order after `index_pins`: a count prints as an integer,
  /// a value with 6 decimals. scripts/bench_diff.py's GATES table says
  /// how a diff treats each name.
  std::vector<std::pair<std::string, std::variant<uint64_t, double>>> fields;
};

/// Nearest-rank percentile (p in [0, 100]) of an ascending-sorted sample.
inline double PercentileMs(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

inline double MeanOf(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double v : xs) sum += v;
  return sum / static_cast<double>(xs.size());
}

/// The protocol's repeat loop: calls `timed` (one timed run; returns its
/// wall-clock) until the relative standard deviation of the samples so
/// far drops to `target_rsd_pct` (checked from the second sample on) or
/// `max_repeat` samples were taken. Returns the samples; `*rsd_pct` is
/// the last RSD computed (0 after a single sample).
template <typename Timed>
std::vector<double> RepeatUntilStable(const BenchProtocol& proto,
                                      double* rsd_pct, Timed&& timed) {
  std::vector<double> samples;
  *rsd_pct = 0.0;
  for (uint32_t r = 0; r < proto.max_repeat; ++r) {
    samples.push_back(timed());
    if (samples.size() < 2) continue;
    const double mean = MeanOf(samples);
    double var = 0.0;
    for (double v : samples) var += (v - mean) * (v - mean);
    var /= static_cast<double>(samples.size());
    *rsd_pct = mean > 0.0 ? 100.0 * std::sqrt(var) / mean : 0.0;
    if (*rsd_pct <= proto.target_rsd_pct) break;
  }
  return samples;
}

/// Runs a workload through one searcher under the measurement protocol:
/// `warmup` un-timed batches, then timed batches under
/// RepeatUntilStable. Every time it reports is measured wall-clock; disk
/// work is the `totals.disk_reads` counter. `cache`, when given, is the
/// block cache behind `searcher`; it only stamps the record's
/// `block_size`.
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

  std::vector<double> cpu_ms;     // summed per-query elapsed per batch
  std::vector<double> query_lat;  // per-(query, repeat) latency sample
  auto timed_batch = [&] {
    BatchResult batch = engine.Run(queries, k, kind);
    cpu_ms.push_back(batch.totals.elapsed_ms);
    for (const QueryLatency& lat : batch.latencies) {
      query_lat.push_back(lat.wall_ms);
    }
    // Counters are deterministic across repeats; keep the last batch's.
    m.totals = batch.totals;
    return batch.wall_ms;  // the RSD runs on batch wall-clock
  };
  const std::vector<double> batch_ms =
      RepeatUntilStable(proto, &m.rsd_pct, timed_batch);

  m.repeats = static_cast<uint32_t>(batch_ms.size());
  std::sort(query_lat.begin(), query_lat.end());
  m.p50_ms = PercentileMs(query_lat, 50.0);
  m.p95_ms = PercentileMs(query_lat, 95.0);
  m.p99_ms = PercentileMs(query_lat, 99.0);
  m.ns_per_op = MeanOf(batch_ms) * 1e6 / static_cast<double>(queries.size());
  // CPU time from the searchers' own per-query stopwatches: the sum over a
  // batch is invariant to how the engine spread the queries over threads.
  m.avg_ms = MeanOf(cpu_ms) / static_cast<double>(queries.size());
  return m;
}

/// Accumulates measured points and writes the `BENCH_<name>.json` payload
/// documented in docs/BENCH_PROTOCOL.md.
class BenchReport {
 public:
  BenchReport(std::string name, const BenchProtocol& proto)
      : name_(std::move(name)), proto_(proto) {}

  /// Records one measured point. `ops` is the number of operations behind
  /// one repeat (usually the workload's query count). `shards` > 0 stamps
  /// the record with the shard count behind it; scripts/bench_diff.py
  /// refuses to compare records measured at different shard counts.
  void Add(const std::string& point_name, const Measurement& m, size_t ops,
           uint32_t shards = 0) {
    points_.push_back(Point{point_name, m, ops, shards, true});
  }

  /// Records a point measured outside QueryEngine (kernel ablations):
  /// timing fields only, no per-query latency sample.
  void AddRaw(const std::string& point_name, double ns_per_op, double rsd_pct,
              uint32_t repeats, size_t ops) {
    Measurement m;
    m.ns_per_op = ns_per_op;
    m.rsd_pct = rsd_pct;
    m.repeats = repeats;
    points_.push_back(Point{point_name, m, ops, 0, false});
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
                 "\"scale\": %g, \"queries_per_point\": %u},\n",
                 proto_.threads, proto_.warmup, proto_.target_rsd_pct,
                 proto_.max_repeat, ScaleFromEnv(), QueriesFromEnv());
    std::fprintf(f, "  \"results\": [");
    for (size_t i = 0; i < points_.size(); ++i) {
      const Point& p = points_[i];
      const Measurement& m = p.m;
      const SearchStats& t = m.totals;
      std::fprintf(f, "%s\n    {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                      "\"rsd_pct\": %.3f, \"repeats\": %u, \"ops\": %zu, "
                      "\"candidates_verified\": %llu, \"tas_pruned\": %llu, "
                      "\"distance_computations\": %llu, \"disk_reads\": %llu, "
                      "\"avg_ms_per_query\": %.6f",
                   i == 0 ? "" : ",", Escaped(p.name).c_str(), m.ns_per_op,
                   m.rsd_pct, m.repeats, p.ops,
                   static_cast<unsigned long long>(t.candidates_retrieved),
                   static_cast<unsigned long long>(t.tas_pruned),
                   static_cast<unsigned long long>(t.distance_computations),
                   static_cast<unsigned long long>(t.disk_reads), m.avg_ms);
      // Optional fields (schema is append-only; consumers must ignore
      // keys they do not know — see docs/BENCH_PROTOCOL.md).
      if (p.has_latency) {
        std::fprintf(f, ", \"p50_ms\": %.6f, \"p95_ms\": %.6f, "
                        "\"p99_ms\": %.6f",
                     m.p50_ms, m.p95_ms, m.p99_ms);
      }
      if (p.shards > 0) std::fprintf(f, ", \"shards\": %u", p.shards);
      // Shard visits (queries x shards). Sharded records write it even
      // at 0, so a path that stops visiting shards shows as drift.
      if (t.index_pins > 0 || p.shards > 0) {
        std::fprintf(f, ", \"index_pins\": %llu",
                     static_cast<unsigned long long>(t.index_pins));
      }
      for (const auto& [key, value] : m.fields) {
        if (const uint64_t* count = std::get_if<uint64_t>(&value)) {
          std::fprintf(f, ", \"%s\": %llu", key.c_str(),
                       static_cast<unsigned long long>(*count));
        } else {
          std::fprintf(f, ", \"%s\": %.6f", key.c_str(),
                       std::get<double>(value));
        }
      }
      // Block-cache fields (mmap disk tier), whenever there was block
      // traffic — a bench driving a mapped searcher without naming its
      // cache still wants blocks_read gated (block_size then reads 0 =
      // "not reported"). `blocks_read` is the demand misses of the last
      // timed batch; `cache_hit_rate` = hits / lookups.
      if (m.cache_block_bytes > 0 || t.block_hits + t.blocks_read > 0) {
        std::fprintf(f,
                     ", \"block_size\": %u, \"blocks_read\": %llu, "
                     "\"cache_hit_rate\": %.6f",
                     m.cache_block_bytes,
                     static_cast<unsigned long long>(t.blocks_read),
                     CacheHitRate(t.block_hits, t.block_hits + t.blocks_read));
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s (%zu records)\n", path.c_str(), points_.size());
    return path;
  }

 private:
  struct Point {
    std::string name;
    Measurement m;
    size_t ops = 0;
    uint32_t shards = 0;       // 0 = not a sharded measurement
    bool has_latency = false;  // AddRaw points have no per-query sample
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
  std::vector<Point> points_;
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
