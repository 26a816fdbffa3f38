// Tests for the bench measurement protocol (bench/harness.h): flag and
// environment parsing, the warmup/target-RSD repeat loop, and the
// BENCH_*.json payload shape and key order documented in
// docs/BENCH_PROTOCOL.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <regex>
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

TEST(BenchProtocol, AcceptsTheThreadCeiling) {
  EXPECT_EQ(Parse({"--threads", "1024"}).threads, 1024u);
}

void ExpectRejected(const char* flag, const char* value) {
  SCOPED_TRACE(std::string(flag) + " '" + value + "'");
  EXPECT_EXIT(Parse({flag, value}), ::testing::ExitedWithCode(2),
              std::string("invalid value for ") + flag + ".*usage:");
}

TEST(BenchProtocolDeathTest, MalformedValuesRejectedWithUsage) {
  ExpectRejected("--threads", "abc");
  ExpectRejected("--threads", "1025");
  ExpectRejected("--threads", "+4");
  ExpectRejected("--threads", " 4");
  ExpectRejected("--threads", "99999999999999999999");
  ExpectRejected("--warmup", "1x");
  ExpectRejected("--warmup", "");
  ExpectRejected("--max-repeat", "4294967296");
  ExpectRejected("--target-rsd", "abc");
  ExpectRejected("--target-rsd", "inf");
  ExpectRejected("--target-rsd", "nan");
  ExpectRejected("--target-rsd", "2.5%");
  EXPECT_EXIT(Parse({"--threads"}), ::testing::ExitedWithCode(2),
              "missing value for --threads.*usage:");
  EXPECT_EXIT(Parse({"--bogus"}), ::testing::ExitedWithCode(2),
              "unknown flag --bogus.*usage:");
}

// Each runs inside a death-test child, so the parent keeps its
// environment.
void ReadScale(const char* value) {
  setenv("GAT_BENCH_SCALE", value, 1);
  (void)ScaleFromEnv();
}

void ReadQueries(const char* value) {
  setenv("GAT_BENCH_QUERIES", value, 1);
  (void)QueriesFromEnv();
}

void ParseWithBadScale() {
  setenv("GAT_BENCH_SCALE", "abc", 1);
  (void)Parse({});
}

TEST(BenchProtocolDeathTest, MalformedEnvironmentRejected) {
  for (const char* scale : {"abc", "0", "-1", "inf", "nan", "0.04x"}) {
    SCOPED_TRACE(scale);
    EXPECT_EXIT(ReadScale(scale), ::testing::ExitedWithCode(2),
                "invalid value for GAT_BENCH_SCALE");
  }
  for (const char* queries : {"abc", "0", "-5", "15x"}) {
    SCOPED_TRACE(queries);
    EXPECT_EXIT(ReadQueries(queries), ::testing::ExitedWithCode(2),
                "invalid value for GAT_BENCH_QUERIES");
  }
  // FromArgs checks the workload variables before any bench work runs.
  EXPECT_EXIT(ParseWithBadScale(), ::testing::ExitedWithCode(2),
              "invalid value for GAT_BENCH_SCALE");
}

TEST(RepeatUntilStable, StopsOnceTwoSamplesAgree) {
  BenchProtocol proto;
  proto.target_rsd_pct = 5.0;
  proto.max_repeat = 9;
  double rsd = -1.0;
  auto constant = [] { return 3.0; };
  const std::vector<double> samples = RepeatUntilStable(proto, &rsd, constant);
  EXPECT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(rsd, 0.0);
}

TEST(RepeatUntilStable, StopsAtMaxRepeatWhenSamplesKeepVarying) {
  BenchProtocol proto;
  proto.target_rsd_pct = 5.0;
  proto.max_repeat = 4;
  double rsd = -1.0;
  int calls = 0;
  auto alternating = [&calls] { return ++calls % 2 == 0 ? 2.0 : 1.0; };
  const std::vector<double> samples =
      RepeatUntilStable(proto, &rsd, alternating);
  EXPECT_EQ(samples.size(), 4u);
  EXPECT_EQ(calls, 4);
  // Samples 1, 2, 1, 2: mean 1.5, population stddev 0.5.
  EXPECT_NEAR(rsd, 100.0 / 3.0, 1e-9);
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

// The keys of the one-line record whose name starts with `name`, in
// written order, space-separated.
std::string RecordKeys(const std::string& json, const std::string& name) {
  const size_t at = json.find("{\"name\": \"" + name);
  if (at == std::string::npos) return "";
  const std::string line = json.substr(at, json.find('}', at) - at);
  std::string keys;
  const std::regex key("\"([a-z0-9_]+)\": ");
  for (auto it = std::sregex_iterator(line.begin(), line.end(), key);
       it != std::sregex_iterator(); ++it) {
    keys += (keys.empty() ? "" : " ") + (*it)[1].str();
  }
  return keys;
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

  Measurement owned = m;  // bench-owned fields ride after index_pins
  owned.fields = {{"merges_completed", uint64_t{3}}, {"freshness_lag_ms", 1.5}};
  report.Add("owned", owned, 15, /*shards=*/4);
  report.Add("sharded", m, 15, /*shards=*/2);  // index_pins 0, still written
  Measurement blocks = m;
  blocks.cache_block_bytes = 1024;
  blocks.totals.block_hits = 3;
  blocks.totals.blocks_read = 1;
  report.Add("blocks", blocks, 15);

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

  // The key order every committed baseline relies on.
  const std::string common =
      "name ns_per_op rsd_pct repeats ops candidates_verified tas_pruned "
      "distance_computations disk_reads avg_ms_per_query";
  const std::string latency = common + " p50_ms p95_ms p99_ms";
  EXPECT_EQ(RecordKeys(json, "LA/ATSQ/GAT/k=5"), latency);
  EXPECT_EQ(RecordKeys(json, "kernel/"), common);
  EXPECT_EQ(RecordKeys(json, "owned"),
            latency + " shards index_pins merges_completed freshness_lag_ms");
  EXPECT_EQ(RecordKeys(json, "sharded"), latency + " shards index_pins");
  EXPECT_EQ(RecordKeys(json, "blocks"),
            latency + " block_size blocks_read cache_hit_rate");
  // Counts print as integers, values with 6 decimals.
  EXPECT_NE(json.find("\"merges_completed\": 3,"), std::string::npos);
  EXPECT_NE(json.find("\"freshness_lag_ms\": 1.500000}"), std::string::npos);
  EXPECT_NE(json.find("\"shards\": 2, \"index_pins\": 0}"), std::string::npos);
  EXPECT_NE(json.find("\"block_size\": 1024, \"blocks_read\": 1, "
                      "\"cache_hit_rate\": 0.750000}"),
            std::string::npos);
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
