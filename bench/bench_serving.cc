// The serving front door under overload: open-loop Zipf-tenant load at
// 1x/2x/4x of a base arrival rate, driven through admission control,
// deadline propagation and priority classes (src/gat/serve).
//
// The driver is a virtual-time discrete-event simulation
// (serve/load_driver.h): arrivals, token-bucket refills, deadline
// expiries and queueing all happen on a ManualClock that advances only
// between work units — real batches still execute on the engine (the
// work counters are real), but the simulated timeline is a pure
// function of the schedule. That is what lets CI gate the serving
// counters exactly: `admitted` / `shed_count` / `deadline_misses` are
// bit-identical at --threads 1 and --threads 4, on any machine.
//
// What is measured and asserted per load point, split by class
// (NY/serve/<mult>x/{interactive,bulk}):
//
//   * virtual p50/p95/p99 latency (queueing + service on the simulated
//     clock) — at 4x overload interactive p95 must stay below bulk p95
//     (the priority classes actually separate), asserted fatally;
//   * goodput: at 4x the virtual servers must run >= 90% utilized —
//     shedding and deadline misses may refuse work, but must never
//     idle the capacity that admitted work could use;
//   * every completed request's answers are asserted bit-identical to
//     an unsharded quiescent GatSearcher reference (fatal on
//     divergence) — overload may drop requests, never corrupt them;
//   * the real per-class search counters ride along and are gated by
//     the committed baselines like every other bench.
//
// Open-loop protocol extensions: --arrival-rate R sets the 1x offered
// load (default 200 req/s); the JSON protocol block records it plus
// "virtual_time": true, and scripts/bench_diff.py refuses to compare
// runs across either.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

#include "gat/common/clock.h"
#include "gat/engine/executor.h"
#include "gat/serve/front_door.h"
#include "gat/serve/load_driver.h"
#include "gat/shard/sharded_index.h"
#include "gat/shard/sharded_searcher.h"

namespace gat::bench {
namespace {

constexpr uint32_t kShards = 2;
constexpr size_t kTopK = 9;
constexpr QueryKind kKind = QueryKind::kAtsq;
constexpr double kDurationMs = 2000.0;
constexpr uint32_t kVirtualSlots = 4;
constexpr double kServiceMsPerQuery = 5.0;

struct ClassPoint {
  Measurement m;
  uint64_t offered = 0;
};

ClassPoint ToPoint(const ClassOutcome& cls, double duration_ms) {
  ClassPoint point;
  point.offered = cls.offered;
  Measurement& m = point.m;
  m.totals = cls.totals;
  m.repeats = 1;
  std::vector<double> sorted = cls.latency_ms;
  std::sort(sorted.begin(), sorted.end());
  m.p50_ms = PercentileMs(sorted, 50.0);
  m.p95_ms = PercentileMs(sorted, 95.0);
  m.p99_ms = PercentileMs(sorted, 99.0);
  if (!sorted.empty()) {
    double sum = 0.0;
    for (double v : sorted) sum += v;
    // Mean virtual latency as the record's ns/op: simulated, so it is
    // machine-independent — but still advisory in diffs.
    m.ns_per_op = sum / static_cast<double>(sorted.size()) * 1e6;
  }
  m.has_serving = true;
  m.admitted = cls.admitted;
  m.shed = cls.shed;
  m.deadline_misses = cls.deadline_misses;
  m.goodput_qps =
      static_cast<double>(cls.completed) / (duration_ms / 1000.0);
  return point;
}

void Main(const BenchProtocol& proto, BenchReport& report) {
  // Resolve the open-loop defaults and re-stamp the protocol block so
  // the JSON records what actually ran.
  BenchProtocol resolved = proto;
  if (resolved.arrival_rate <= 0.0) resolved.arrival_rate = 200.0;
  resolved.virtual_time = true;
  report.OverrideProtocol(resolved);

  PrintRunBanner("Serving",
                 "front-door overload sweep: admission + deadlines + "
                 "priorities on a virtual-time open loop (NY, 2 shards)",
                 resolved);

  const Dataset city = GenerateCity(CityProfile::NewYork(ScaleFromEnv()));
  QueryGenerator qgen(city, DefaultWorkload(/*seed=*/20130715));
  const std::vector<Query> pool = qgen.Workload();

  // Unsharded quiescent reference: the bit-identity oracle for every
  // answer any completed request returns.
  const GatIndex reference_index(city);
  const GatSearcher reference(city, reference_index);
  std::vector<ResultList> want(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    want[i] = reference.Search(pool[i], kTopK, kKind);
  }

  Executor executor(resolved.threads);
  const ShardedIndex sharded(
      city, {}, ShardOptions{.num_shards = kShards, .executor = &executor});
  const ShardedSearcher searcher(
      sharded, {}, resolved.threads > 1 ? &executor : nullptr);
  const QueryEngine engine(
      searcher,
      EngineOptions{.executor = resolved.threads > 1 ? &executor : nullptr});

  std::printf("%-22s %9s %9s %9s %9s %10s %10s\n", "point", "offered",
              "admitted", "shed", "dl-miss", "p95-ms", "goodput/s");

  double interactive_p95_4x = 0.0;
  double bulk_p95_4x = 0.0;
  double busy_ms_4x = 0.0;
  for (const uint32_t mult : {1u, 2u, 4u}) {
    ManualClock clock;
    FrontDoorOptions door_options;
    door_options.clock = &clock;
    // Aggregate sustained budget 8 x 60/s against a 4-slot virtual
    // server: at 1x most traffic admits (the hottest Zipf tenant
    // already sheds a little); at 4x the buckets and the deadline
    // checks carry the overload.
    door_options.default_quota = TenantQuota{/*tokens_per_sec=*/60.0,
                                             /*burst=*/30.0};
    FrontDoor door(engine, door_options);

    LoadScheduleParams params;
    params.arrivals_per_sec = resolved.arrival_rate * mult;
    params.duration_ms = kDurationMs;
    params.seed = 20130715 + mult;
    const std::vector<ArrivalSpec> schedule = MakeOpenLoopSchedule(params);

    DriverOptions options;
    options.virtual_slots = kVirtualSlots;
    options.service_ms_per_query = kServiceMsPerQuery;
    options.k = kTopK;
    options.kind = kKind;

    // Overload may shed or expire a request — it must never corrupt
    // one: every completed answer equals the quiescent reference.
    const ServeObserver check_results =
        [&](const ArrivalSpec& spec, const ServeResult& result) {
          if (result.status != ServeStatus::kOk) return;
          for (size_t j = 0; j < result.batch.results.size(); ++j) {
            const size_t pool_idx = (spec.pool_offset + j) % pool.size();
            if (result.batch.results[j] != want[pool_idx]) {
              std::fprintf(stderr,
                           "FATAL: completed request diverged from the "
                           "quiescent reference (%ux, pool query %zu)\n",
                           mult, pool_idx);
              std::exit(1);
            }
          }
        };

    const DriveOutcome outcome =
        RunOpenLoop(door, clock, schedule, pool, options, check_results);

    const ClassPoint interactive =
        ToPoint(outcome.interactive, kDurationMs);
    const ClassPoint bulk = ToPoint(outcome.bulk, kDurationMs);
    const std::string prefix = "NY/serve/" + std::to_string(mult) + "x/";
    report.Add(prefix + "interactive", interactive.m,
               outcome.interactive.completed, kShards);
    report.Add(prefix + "bulk", bulk.m, outcome.bulk.completed, kShards);

    const struct {
      const char* label;
      const ClassPoint* point;
    } rows[] = {{"interactive", &interactive}, {"bulk", &bulk}};
    for (const auto& row : rows) {
      const ClassPoint& p = *row.point;
      std::printf("%ux/%-20s %9llu %9llu %9llu %9llu %10.2f %10.1f\n",
                  mult, row.label,
                  static_cast<unsigned long long>(p.offered),
                  static_cast<unsigned long long>(p.m.admitted),
                  static_cast<unsigned long long>(p.m.shed),
                  static_cast<unsigned long long>(p.m.deadline_misses),
                  p.m.p95_ms, p.m.goodput_qps);
    }

    if (mult == 4) {
      interactive_p95_4x = interactive.m.p95_ms;
      bulk_p95_4x = bulk.m.p95_ms;
      busy_ms_4x =
          static_cast<double>(outcome.interactive.completed) *
              kServiceMsPerQuery +
          static_cast<double>(outcome.bulk.completed) * kServiceMsPerQuery *
              4.0;
    }
  }

  // The two serving bars, on simulated time — deterministic, so a
  // violation is a scheduling bug, not machine noise.
  if (interactive_p95_4x >= bulk_p95_4x) {
    std::fprintf(stderr,
                 "FATAL: priority classes did not separate at 4x "
                 "(interactive p95 %.2f ms >= bulk p95 %.2f ms)\n",
                 interactive_p95_4x, bulk_p95_4x);
    std::exit(1);
  }
  const double utilization =
      busy_ms_4x / (static_cast<double>(kVirtualSlots) * kDurationMs);
  std::printf("\n4x overload: interactive p95 %.2f ms < bulk p95 %.2f ms; "
              "virtual-server utilization %.1f%%\n",
              interactive_p95_4x, bulk_p95_4x, 100.0 * utilization);
  if (utilization < 0.9) {
    std::fprintf(stderr,
                 "FATAL: goodput fell more than 10%% below capacity at 4x "
                 "(utilization %.1f%%) — overload is idling servers\n",
                 100.0 * utilization);
    std::exit(1);
  }
}

}  // namespace
}  // namespace gat::bench

int main(int argc, char** argv) {
  return gat::bench::BenchMain(argc, argv, "serving", gat::bench::Main);
}
