// Loopback soak for the wire layer, meant to run under TSan and ASan
// (ctest label: soak): real sockets against a poll(2) Server on a
// shared Executor, checking the properties the socket boundary must
// not bend —
//
//  1. a batch served through Client → socket → Session → FrontDoor is
//     bit-identical to an in-process FrontDoor::Serve of the same
//     request — results, per-query statuses, and every deterministic
//     SearchStats counter field by field,
//  2. requests shed at the wire path produce a zero delta in
//     Executor::tasks_submitted() (the overload invariant survives the
//     transport),
//  3. concurrent clients and pipelined frames keep per-connection
//     response order and exactness,
//  4. malformed frames close their session cleanly while the server
//     keeps serving everyone else.
//
// Determinism: the front door runs on a ManualClock that nobody
// advances — zero-rate quotas shed on token exhaustion alone, and
// requests without deadlines never expire.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gat/common/clock.h"
#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/executor.h"
#include "gat/engine/query_engine.h"
#include "gat/net/client.h"
#include "gat/net/server.h"
#include "gat/search/gat_search.h"
#include "gat/serve/front_door.h"

namespace gat {
namespace {

constexpr uint32_t kClientThreads = 6;
constexpr uint32_t kRequestsPerClient = 25;
constexpr uint32_t kQueriesPerRequest = 3;
constexpr size_t kTopK = 5;
constexpr uint32_t kSheddingTenant = 99;

class NetSoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = GenerateCity(CityProfile::Testing(/*trajectories=*/300,
                                                 /*seed=*/77));
    index_ = std::make_unique<GatIndex>(dataset_);
    searcher_ = std::make_unique<GatSearcher>(dataset_, *index_);

    QueryWorkloadParams wp;
    wp.num_queries = kClientThreads * kQueriesPerRequest;
    wp.seed = 5;
    QueryGenerator qgen(dataset_, wp);
    pool_ = qgen.Workload();
    for (uint32_t c = 0; c < kClientThreads; ++c) {
      client_queries_.emplace_back(
          pool_.begin() + c * kQueriesPerRequest,
          pool_.begin() + (c + 1) * kQueriesPerRequest);
    }

    executor_ = std::make_unique<Executor>(4);
    engine_ = std::make_unique<QueryEngine>(
        *searcher_, EngineOptions{.executor = executor_.get()});
    FrontDoorOptions options;
    options.clock = &clock_;  // frozen: no refills, no expiries
    options.default_quota = TenantQuota{/*tokens_per_sec=*/0.0,
                                        /*burst=*/1e9};
    options.tenant_quotas.push_back(
        {kSheddingTenant, TenantQuota{/*tokens_per_sec=*/0.0,
                                      /*burst=*/0.0}});
    door_ = std::make_unique<FrontDoor>(*engine_, options);

    wire::ServerOptions server_options;
    server_options.executor = executor_.get();
    server_ = std::make_unique<wire::Server>(*door_, server_options);
    ASSERT_TRUE(server_->Start());

    // The in-process reference: a second front door over the same
    // engine (so the socket path's admission spending cannot interfere)
    // serving the identical requests.
    FrontDoorOptions ref_options;
    ref_options.clock = &clock_;
    ref_options.default_quota = TenantQuota{0.0, 1e9};
    reference_door_ = std::make_unique<FrontDoor>(*engine_, ref_options);
    for (uint32_t c = 0; c < kClientThreads; ++c) {
      reference_.push_back(reference_door_->Serve(RequestFor(c)));
      ASSERT_EQ(reference_.back().status, ServeStatus::kOk);
    }
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  ServeRequest RequestFor(uint32_t client) const {
    ServeRequest request;
    request.tenant = client;
    request.queries = client_queries_[client];
    request.k = kTopK;
    return request;
  }

  // Field-by-field equality of every deterministic counter
  // (elapsed_ms is wall time and excluded by design — it is also the
  // only non-counter field the codec ships).
  static void ExpectSameCounters(const SearchStats& a, const SearchStats& b) {
    EXPECT_EQ(a.candidates_retrieved, b.candidates_retrieved);
    EXPECT_EQ(a.tas_pruned, b.tas_pruned);
    EXPECT_EQ(a.activity_rejected, b.activity_rejected);
    EXPECT_EQ(a.mib_rejected, b.mib_rejected);
    EXPECT_EQ(a.distance_computations, b.distance_computations);
    EXPECT_EQ(a.nodes_popped, b.nodes_popped);
    EXPECT_EQ(a.heap_pushes, b.heap_pushes);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.disk_reads, b.disk_reads);
    EXPECT_EQ(a.block_hits, b.block_hits);
    EXPECT_EQ(a.blocks_read, b.blocks_read);
    EXPECT_EQ(a.index_pins, b.index_pins);
    EXPECT_EQ(a.deadline_skips, b.deadline_skips);
  }

  void ExpectMatchesReference(const ServeResult& got, uint32_t client) {
    ASSERT_EQ(got.status, ServeStatus::kOk);
    EXPECT_EQ(got.shed_reason, ShedReason::kNone);
    EXPECT_EQ(got.batch.results, reference_[client].batch.results);
    EXPECT_EQ(got.batch.statuses, reference_[client].batch.statuses);
    EXPECT_EQ(got.batch.deadline_exceeded,
              reference_[client].batch.deadline_exceeded);
    ExpectSameCounters(got.batch.totals, reference_[client].batch.totals);
  }

  ManualClock clock_;
  Dataset dataset_;
  std::unique_ptr<GatIndex> index_;
  std::unique_ptr<GatSearcher> searcher_;
  std::vector<Query> pool_;
  std::vector<std::vector<Query>> client_queries_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<FrontDoor> door_;
  std::unique_ptr<FrontDoor> reference_door_;
  std::unique_ptr<wire::Server> server_;
  std::vector<ServeResult> reference_;
};

TEST_F(NetSoakTest, SocketPathIsBitIdenticalToInProcessServe) {
  wire::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()));
  for (uint32_t c = 0; c < kClientThreads; ++c) {
    ServeResult remote;
    ASSERT_TRUE(client.Call(RequestFor(c), &remote));
    ExpectMatchesReference(remote, c);
  }
}

TEST_F(NetSoakTest, WirePathShedsWithZeroExecutorTasks) {
  wire::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()));

  ServeRequest starved = RequestFor(0);
  starved.tenant = kSheddingTenant;  // zero-token bucket: always shed

  const uint64_t tasks_before = executor_->tasks_submitted();
  for (int i = 0; i < 20; ++i) {
    ServeResult result;
    ASSERT_TRUE(client.Call(starved, &result));
    EXPECT_EQ(result.status, ServeStatus::kShed);
    EXPECT_EQ(result.shed_reason, ShedReason::kTenantRateLimit);
    EXPECT_EQ(result.shed_tenant, kSheddingTenant);
    EXPECT_TRUE(result.batch.results.empty());
  }
  // The acceptance-criterion assertion: a request shed at the wire
  // path creates ZERO executor tasks — TryAdmit plus an encode on the
  // serving thread, nothing submitted.
  EXPECT_EQ(executor_->tasks_submitted() - tasks_before, 0u);

  // And expiry is equally free: a deadline in the frozen clock's past
  // is answered without engine work (admission still charges a token,
  // which the generous default quota absorbs).
  clock_.SetMicros(1'000'000);
  ServeRequest late = RequestFor(0);
  late.deadline_micros = 1;
  const uint64_t tasks_before_late = executor_->tasks_submitted();
  for (int i = 0; i < 5; ++i) {
    ServeResult result;
    ASSERT_TRUE(client.Call(late, &result));
    EXPECT_EQ(result.status, ServeStatus::kDeadlineExceeded);
    EXPECT_TRUE(result.batch.results.empty());
  }
  EXPECT_EQ(executor_->tasks_submitted() - tasks_before_late, 0u);
}

TEST_F(NetSoakTest, ConcurrentClientsStayExactUnderLoad) {
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&, c] {
      wire::Client client;
      if (!client.Connect("127.0.0.1", server_->port())) {
        failures.fetch_add(1);
        return;
      }
      ServeRequest request = RequestFor(c);
      // Alternate priority classes: scheduling may differ, answers may
      // not.
      request.priority = (c % 2 == 0) ? RequestPriority::kInteractive
                                      : RequestPriority::kBulk;
      for (uint32_t r = 0; r < kRequestsPerClient; ++r) {
        ServeResult remote;
        if (!client.Call(request, &remote) ||
            remote.status != ServeStatus::kOk ||
            remote.batch.results != reference_[c].batch.results ||
            remote.batch.statuses != reference_[c].batch.statuses) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  const wire::ServerCounters counters = server_->counters();
  EXPECT_EQ(counters.requests_served,
            uint64_t{kClientThreads} * kRequestsPerClient);
  EXPECT_EQ(counters.protocol_errors, 0u);
}

TEST_F(NetSoakTest, PipelinedRequestsAnswerInOrder) {
  wire::Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()));

  // Write every request up front — engine-bound and fast-path frames
  // interleaved (a shed between two real batches) — then read the
  // responses back; they must arrive in request order.
  std::string burst;
  ServeRequest starved = RequestFor(0);
  starved.tenant = kSheddingTenant;
  for (uint32_t c = 0; c < kClientThreads; ++c) {
    burst += wire::EncodeRequestFrame(RequestFor(c));
    burst += wire::EncodeRequestFrame(starved);
  }
  ASSERT_TRUE(client.SendRaw(burst));

  for (uint32_t c = 0; c < kClientThreads; ++c) {
    ServeResult remote;
    ASSERT_TRUE(client.ReadResponse(&remote));
    ExpectMatchesReference(remote, c);
    ASSERT_TRUE(client.ReadResponse(&remote));
    EXPECT_EQ(remote.status, ServeStatus::kShed);
    EXPECT_EQ(remote.shed_tenant, kSheddingTenant);
  }
}

TEST_F(NetSoakTest, MalformedFramesCloseOnlyTheirSession) {
  // A connection that has already earned a response gets it before the
  // poisoned byte kills the session.
  wire::Client vandal;
  ASSERT_TRUE(vandal.Connect("127.0.0.1", server_->port()));
  std::string stream = wire::EncodeRequestFrame(RequestFor(1));
  std::string bad = wire::EncodeRequestFrame(RequestFor(2));
  bad[bad.size() / 2] ^= 0x10;  // flip a payload bit → CRC reject
  stream += bad;
  ASSERT_TRUE(vandal.SendRaw(stream));
  ServeResult earned;
  ASSERT_TRUE(vandal.ReadResponse(&earned));
  ExpectMatchesReference(earned, 1);
  EXPECT_TRUE(vandal.AwaitCleanClose());

  // Garbage from the first byte: closed without a single frame.
  wire::Client gibberish;
  ASSERT_TRUE(gibberish.Connect("127.0.0.1", server_->port()));
  ASSERT_TRUE(gibberish.SendRaw(std::string(64, '\xff')));
  EXPECT_TRUE(gibberish.AwaitCleanClose());

  // The server outlives its vandals: fresh connections still serve,
  // and the bookkeeping recorded both incidents.
  wire::Client survivor;
  ASSERT_TRUE(survivor.Connect("127.0.0.1", server_->port()));
  ServeResult remote;
  ASSERT_TRUE(survivor.Call(RequestFor(3), &remote));
  ExpectMatchesReference(remote, 3);
  EXPECT_EQ(server_->counters().protocol_errors, 2u);
}

}  // namespace
}  // namespace gat
