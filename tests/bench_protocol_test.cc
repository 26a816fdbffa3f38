// Tests for the bench measurement protocol (bench/harness.h): flag
// parsing, the warmup/target-RSD repeat loop, and the BENCH_*.json
// payload shape documented in docs/BENCH_PROTOCOL.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace gat::bench {
namespace {

BenchProtocol Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "bench_test");
  return BenchProtocol::FromArgs(static_cast<int>(args.size()),
                                 const_cast<char**>(args.data()));
}

TEST(BenchProtocol, Defaults) {
  const BenchProtocol p = Parse({});
  EXPECT_EQ(p.threads, 1u);
  EXPECT_EQ(p.warmup, 1u);
  EXPECT_DOUBLE_EQ(p.target_rsd_pct, 5.0);
  EXPECT_EQ(p.max_repeat, 5u);
  EXPECT_TRUE(p.json_path.empty());
}

TEST(BenchProtocol, ParsesAllFlags) {
  const BenchProtocol p = Parse({"--threads", "8", "--warmup", "2",
                                 "--target-rsd", "2.5", "--max-repeat", "9",
                                 "--json", "/tmp/out.json"});
  EXPECT_EQ(p.threads, 8u);
  EXPECT_EQ(p.warmup, 2u);
  EXPECT_DOUBLE_EQ(p.target_rsd_pct, 2.5);
  EXPECT_EQ(p.max_repeat, 9u);
  EXPECT_EQ(p.json_path, "/tmp/out.json");
}

TEST(BenchProtocol, ZeroValuesAreClamped) {
  const BenchProtocol p = Parse({"--threads", "0", "--max-repeat", "0"});
  EXPECT_EQ(p.threads, 1u);
  EXPECT_EQ(p.max_repeat, 1u);
}

TEST(BenchProtocolDeathTest, NegativeValuesRejected) {
  EXPECT_EXIT(Parse({"--threads", "-1"}), ::testing::ExitedWithCode(2),
              "invalid value for --threads");
  EXPECT_EXIT(Parse({"--max-repeat", "-3"}), ::testing::ExitedWithCode(2),
              "invalid value for --max-repeat");
  EXPECT_EXIT(Parse({"--target-rsd", "-0.5"}), ::testing::ExitedWithCode(2),
              "invalid value for --target-rsd");
}

TEST(MeasureWorkload, RespectsMaxRepeatAndReportsCounters) {
  const Dataset dataset =
      GenerateCity(CityProfile::Testing(/*trajectories=*/150, /*seed=*/3));
  const GatIndex index(dataset);
  const GatSearcher searcher(dataset, index);
  QueryWorkloadParams wp;
  wp.num_queries = 6;
  wp.seed = 17;
  const auto queries = QueryGenerator(dataset, wp).Workload();

  BenchProtocol proto;
  proto.threads = 2;
  proto.warmup = 1;
  proto.target_rsd_pct = 0.0;  // unreachable: force max_repeat batches
  proto.max_repeat = 3;
  const Measurement m =
      MeasureWorkload(searcher, queries, /*k=*/5, QueryKind::kAtsq, proto);

  EXPECT_EQ(m.repeats, 3u);
  EXPECT_EQ(m.threads, 2u);
  EXPECT_GT(m.ns_per_op, 0.0);
  EXPECT_GT(m.totals.candidates_retrieved, 0u);
}

// Reports a million logical disk reads per query and returns at once.
class DiskHeavyStub : public Searcher {
 public:
  ResultList Search(const Query&, size_t, QueryKind, SearchStats* stats,
                    const QueryContext*) const override {
    if (stats != nullptr) stats->disk_reads = 1'000'000;
    return {};
  }
  std::string name() const override { return "disk-heavy-stub"; }
};

TEST(MeasureWorkload, TimesAreMeasuredAndDiskReadsAreOnlyCounted) {
  // Disk work shows up in the disk_reads counter, never as charged
  // milliseconds: a searcher that "reads" a million blocks but returns
  // at once must measure far below a second per query.
  const DiskHeavyStub stub;
  const std::vector<Query> queries(4);
  BenchProtocol proto;
  proto.warmup = 0;
  proto.max_repeat = 2;
  const Measurement m =
      MeasureWorkload(stub, queries, /*k=*/5, QueryKind::kAtsq, proto);

  EXPECT_EQ(m.totals.disk_reads, 4'000'000u);
  EXPECT_LT(m.avg_ms, 1000.0);
  EXPECT_LT(m.p50_ms, 1000.0);
  EXPECT_LT(m.p95_ms, 1000.0);
  EXPECT_LT(m.p99_ms, 1000.0);
}

TEST(BenchReport, WritesWellFormedJson) {
  BenchProtocol proto;
  proto.threads = 4;
  proto.json_path = "/tmp/gat_bench_protocol_test.json";
  BenchReport report("protocol_test", proto);

  Measurement m;
  m.ns_per_op = 1234.5;
  m.rsd_pct = 2.25;
  m.repeats = 3;
  m.avg_ms = 0.0012345;
  m.totals.candidates_retrieved = 42;
  m.totals.tas_pruned = 7;
  m.totals.distance_computations = 11;
  m.totals.disk_reads = 9;
  report.Add("LA/ATSQ/GAT/k=5", m, /*ops=*/15);
  report.AddRaw("kernel/\"quoted\\name\"", 99.5, 0.0, 1, 100);

  const std::string path = report.Write();
  EXPECT_EQ(path, proto.json_path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  // Structural checks: balanced braces/brackets and the documented keys.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  for (const char* key :
       {"\"bench\"", "\"schema_version\"", "\"unit\"", "\"protocol\"",
        "\"results\"", "\"threads\"", "\"warmup\"", "\"target_rsd_pct\"",
        "\"max_repeat\"", "\"ns_per_op\"", "\"rsd_pct\"", "\"repeats\"",
        "\"ops\"", "\"candidates_verified\"", "\"disk_reads\"",
        "\"avg_ms_per_query\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // Quotes and backslashes in record names must be escaped.
  EXPECT_NE(json.find("kernel/\\\"quoted\\\\name\\\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(BenchReport, WriteFailureReturnsEmptyPath) {
  BenchProtocol proto;
  proto.json_path = "/nonexistent-dir/deeper/out.json";
  const BenchReport report("unwritable", proto);
  EXPECT_TRUE(report.Write().empty());
}

}  // namespace
}  // namespace gat::bench
