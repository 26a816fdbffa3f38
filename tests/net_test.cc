// Tests for gat/net without sockets: codec round trips with
// encode→decode→encode byte identity, the full corruption matrix
// (truncation, oversized lengths, bad magic/version/type, flipped
// payload bits, structural inconsistencies — every case a clean
// reject, never a crash), the Session state machine on dribbled and
// batched buffers, and the zero-engine-work fast-path dispatch on a
// ManualClock front door.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gat/common/clock.h"
#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/executor.h"
#include "gat/engine/query_engine.h"
#include "gat/live/live_index.h"
#include "gat/net/client.h"
#include "gat/net/codec.h"
#include "gat/net/server.h"
#include "gat/net/session.h"
#include "gat/search/gat_search.h"
#include "gat/serve/front_door.h"

namespace gat {
namespace {

using wire::BuildFrame;
using wire::DecodeIngestAckPayload;
using wire::DecodeIngestPayload;
using wire::DecodeRequestPayload;
using wire::DecodeResultPayload;
using wire::EncodeIngestAckPayload;
using wire::EncodeIngestFrame;
using wire::EncodeIngestPayload;
using wire::EncodeRequestFrame;
using wire::EncodeRequestPayload;
using wire::EncodeResultFrame;
using wire::EncodeResultPayload;
using wire::FrameHeader;
using wire::FrameType;
using wire::InboundFrame;
using wire::ParseFrameHeader;
using wire::Session;

std::vector<Query> TestQueries(const Dataset& dataset, uint64_t seed,
                               uint32_t count) {
  QueryWorkloadParams wp;
  wp.num_queries = count;
  wp.seed = seed;
  QueryGenerator qgen(dataset, wp);
  return qgen.Workload();
}

ServeRequest MakeRequest() {
  ServeRequest request;
  request.tenant = 42;
  request.priority = RequestPriority::kBulk;
  request.deadline_micros = 123'456'789;
  request.k = 7;
  request.kind = QueryKind::kOatsq;
  request.queries.push_back(Query(std::vector<QueryPoint>{
      {{1.5, -2.25}, {3, 9, 11}}, {{0.0, 4.5}, {2}}}));
  request.queries.push_back(
      Query(std::vector<QueryPoint>{{{-7.125, 8.0}, {1, 5}}}));
  return request;
}

ServeResult MakeOkResult() {
  ServeResult result;
  result.status = ServeStatus::kOk;
  result.batch.results.push_back(
      {SearchResult{4, 0.5}, SearchResult{17, 1.25}});
  result.batch.results.push_back({SearchResult{2, 3.75}});
  result.batch.statuses = {QueryStatus::kOk, QueryStatus::kOk};
  result.batch.totals.candidates_retrieved = 31;
  result.batch.totals.tas_pruned = 7;
  result.batch.totals.distance_computations = 24;
  result.batch.totals.disk_reads = 5;
  result.batch.totals.index_pins = 2;
  result.batch.totals.elapsed_ms = 1.5;
  return result;
}

bool StatsEqual(const SearchStats& a, const SearchStats& b) {
  return a.candidates_retrieved == b.candidates_retrieved &&
         a.tas_pruned == b.tas_pruned &&
         a.activity_rejected == b.activity_rejected &&
         a.mib_rejected == b.mib_rejected &&
         a.distance_computations == b.distance_computations &&
         a.nodes_popped == b.nodes_popped &&
         a.heap_pushes == b.heap_pushes && a.rounds == b.rounds &&
         a.disk_reads == b.disk_reads && a.block_hits == b.block_hits &&
         a.blocks_read == b.blocks_read && a.index_pins == b.index_pins &&
         a.deadline_skips == b.deadline_skips &&
         a.elapsed_ms == b.elapsed_ms;
}

// ---------------------------------------------------------- round trips

TEST(WireCodec, RequestRoundTripIsByteIdentical) {
  const ServeRequest request = MakeRequest();
  const std::string payload = EncodeRequestPayload(request);

  ServeRequest decoded;
  ASSERT_TRUE(DecodeRequestPayload(payload, &decoded));
  EXPECT_EQ(decoded.tenant, request.tenant);
  EXPECT_EQ(decoded.priority, request.priority);
  EXPECT_EQ(decoded.deadline_micros, request.deadline_micros);
  EXPECT_EQ(decoded.k, request.k);
  EXPECT_EQ(decoded.kind, request.kind);
  ASSERT_EQ(decoded.queries.size(), request.queries.size());
  for (size_t q = 0; q < decoded.queries.size(); ++q) {
    ASSERT_EQ(decoded.queries[q].size(), request.queries[q].size());
    for (size_t p = 0; p < decoded.queries[q].size(); ++p) {
      EXPECT_EQ(decoded.queries[q][p].location.x,
                request.queries[q][p].location.x);
      EXPECT_EQ(decoded.queries[q][p].location.y,
                request.queries[q][p].location.y);
      EXPECT_EQ(decoded.queries[q][p].activities,
                request.queries[q][p].activities);
    }
  }
  // The second encode closes the loop: byte identity, not just field
  // equality — the discipline every determinism gate builds on.
  EXPECT_EQ(EncodeRequestPayload(decoded), payload);
  EXPECT_EQ(EncodeRequestFrame(decoded), EncodeRequestFrame(request));
}

TEST(WireCodec, OkResultRoundTripIsByteIdentical) {
  const ServeResult result = MakeOkResult();
  const std::string payload = EncodeResultPayload(result);

  ServeResult decoded;
  ASSERT_TRUE(DecodeResultPayload(payload, &decoded));
  EXPECT_EQ(decoded.status, ServeStatus::kOk);
  EXPECT_EQ(decoded.shed_reason, ShedReason::kNone);
  EXPECT_EQ(decoded.batch.results, result.batch.results);
  EXPECT_EQ(decoded.batch.statuses, result.batch.statuses);
  EXPECT_TRUE(StatsEqual(decoded.batch.totals, result.batch.totals));
  EXPECT_EQ(EncodeResultPayload(decoded), payload);
  EXPECT_EQ(EncodeResultFrame(decoded), EncodeResultFrame(result));
}

TEST(WireCodec, ShedResultRoundTripIsByteIdentical) {
  ServeResult shed;
  shed.status = ServeStatus::kShed;
  shed.shed_reason = ShedReason::kTenantRateLimit;
  shed.shed_tenant = 9;
  const std::string payload = EncodeResultPayload(shed);

  ServeResult decoded;
  ASSERT_TRUE(DecodeResultPayload(payload, &decoded));
  EXPECT_EQ(decoded.status, ServeStatus::kShed);
  EXPECT_EQ(decoded.shed_reason, ShedReason::kTenantRateLimit);
  EXPECT_EQ(decoded.shed_tenant, 9u);
  EXPECT_TRUE(decoded.batch.results.empty());
  EXPECT_EQ(EncodeResultPayload(decoded), payload);
}

TEST(WireCodec, DeadlineResultRoundTripIsByteIdentical) {
  // Mid-batch expiry: statuses are mixed, every list is cleared, the
  // stats record the burnt work.
  ServeResult expired;
  expired.status = ServeStatus::kDeadlineExceeded;
  expired.batch.results = {{}, {}};
  expired.batch.statuses = {QueryStatus::kOk, QueryStatus::kDeadlineExceeded};
  expired.batch.deadline_exceeded = 1;
  expired.batch.totals.deadline_skips = 1;
  expired.batch.totals.rounds = 3;
  const std::string payload = EncodeResultPayload(expired);

  ServeResult decoded;
  ASSERT_TRUE(DecodeResultPayload(payload, &decoded));
  EXPECT_EQ(decoded.status, ServeStatus::kDeadlineExceeded);
  EXPECT_EQ(decoded.batch.deadline_exceeded, 1u);
  EXPECT_EQ(decoded.batch.statuses,
            (std::vector<QueryStatus>{QueryStatus::kOk,
                                      QueryStatus::kDeadlineExceeded}));
  EXPECT_EQ(EncodeResultPayload(decoded), payload);
}

IngestRequest MakeIngest() {
  IngestRequest request;
  request.tenant = 42;
  request.checkins.push_back({/*user=*/7, {1.5, -2.25}, {3, 9, 11}});
  request.checkins.push_back({/*user=*/7, {0.0, 4.5}, {2}});
  request.checkins.push_back({/*user=*/8, {-7.125, 8.0}, {}});
  return request;
}

TEST(WireCodec, IngestRoundTripIsByteIdentical) {
  const IngestRequest request = MakeIngest();
  const std::string payload = EncodeIngestPayload(request);

  IngestRequest decoded;
  ASSERT_TRUE(DecodeIngestPayload(payload, &decoded));
  EXPECT_EQ(decoded.tenant, request.tenant);
  ASSERT_EQ(decoded.checkins.size(), request.checkins.size());
  for (size_t i = 0; i < decoded.checkins.size(); ++i) {
    EXPECT_EQ(decoded.checkins[i].user, request.checkins[i].user);
    EXPECT_EQ(decoded.checkins[i].location.x, request.checkins[i].location.x);
    EXPECT_EQ(decoded.checkins[i].location.y, request.checkins[i].location.y);
    EXPECT_EQ(decoded.checkins[i].activities, request.checkins[i].activities);
  }
  EXPECT_EQ(EncodeIngestPayload(decoded), payload);
  EXPECT_EQ(EncodeIngestFrame(decoded), EncodeIngestFrame(request));
}

TEST(WireCodec, IngestAckRoundTripsEveryProducibleState) {
  // The four states FrontDoor::Ingest can produce, each byte-identical
  // through the loop.
  IngestResult ok;
  ok.status = IngestStatus::kOk;
  ok.accepted = 3;
  ok.watermark = 17;
  IngestResult shed;
  shed.status = IngestStatus::kShed;
  shed.shed_reason = ShedReason::kWriteRateLimit;
  shed.shed_tenant = 42;
  IngestResult invalid;
  invalid.status = IngestStatus::kInvalid;
  IngestResult unavailable;
  unavailable.status = IngestStatus::kUnavailable;

  for (const IngestResult& result : {ok, shed, invalid, unavailable}) {
    const std::string payload = EncodeIngestAckPayload(result);
    IngestResult decoded;
    ASSERT_TRUE(DecodeIngestAckPayload(payload, &decoded));
    EXPECT_EQ(decoded.status, result.status);
    EXPECT_EQ(decoded.shed_reason, result.shed_reason);
    EXPECT_EQ(decoded.shed_tenant, result.shed_tenant);
    EXPECT_EQ(decoded.accepted, result.accepted);
    EXPECT_EQ(decoded.watermark, result.watermark);
    EXPECT_EQ(EncodeIngestAckPayload(decoded), payload);
  }
}

// ----------------------------------------------------- header validation

TEST(WireCodec, HeaderParsesItsOwnEncoding) {
  const std::string frame = BuildFrame(FrameType::kServeRequest, "abcd");
  ASSERT_EQ(frame.size(), wire::kHeaderBytes + 4);
  FrameHeader header;
  ASSERT_TRUE(ParseFrameHeader(frame.data(), frame.size(), &header));
  EXPECT_EQ(header.type, FrameType::kServeRequest);
  EXPECT_EQ(header.payload_bytes, 4u);
  EXPECT_TRUE(wire::VerifyPayload(header, "abcd"));
  EXPECT_FALSE(wire::VerifyPayload(header, "abce"));
}

TEST(WireCodec, HeaderRejectsBadMagicVersionTypeAndLength) {
  const std::string good = BuildFrame(FrameType::kServeRequest, "abcd");
  FrameHeader header;

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(ParseFrameHeader(bad_magic.data(), bad_magic.size(), &header));

  std::string bad_version = good;
  bad_version[4] = 99;
  EXPECT_FALSE(
      ParseFrameHeader(bad_version.data(), bad_version.size(), &header));

  std::string bad_type = good;
  bad_type[8] = 77;
  EXPECT_FALSE(ParseFrameHeader(bad_type.data(), bad_type.size(), &header));

  // Declared length over the cap: rejected from the header alone,
  // before any payload byte exists (or is allocated).
  std::string oversized = good;
  const uint32_t huge = wire::kMaxPayloadBytes + 1;
  std::memcpy(&oversized[12], &huge, sizeof(huge));
  EXPECT_FALSE(ParseFrameHeader(oversized.data(), oversized.size(), &header));
}

// ----------------------------------------------------- corruption matrix

TEST(WireCodec, RequestDecodeRejectsStructuralCorruption) {
  const ServeRequest request = MakeRequest();
  const std::string payload = EncodeRequestPayload(request);
  ServeRequest out;

  // Truncation at every prefix length: reject, never a crash. (This
  // sweeps the truncated-frame case at the payload layer.)
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        DecodeRequestPayload(std::string_view(payload.data(), len), &out))
        << "accepted a " << len << "-byte prefix";
  }

  // Trailing bytes are a reject, not padding.
  EXPECT_FALSE(DecodeRequestPayload(payload + std::string(4, '\0'), &out));

  auto corrupt_u32 = [&](size_t offset, uint32_t value) {
    std::string bad = payload;
    std::memcpy(&bad[offset], &value, sizeof(value));
    return bad;
  };
  // Payload layout: tenant@0, priority@4, kind@8, k@12, deadline@16,
  // num_queries@24, then per-query data.
  EXPECT_FALSE(DecodeRequestPayload(corrupt_u32(4, 2), &out));  // priority
  EXPECT_FALSE(DecodeRequestPayload(corrupt_u32(8, 9), &out));  // kind
  EXPECT_FALSE(DecodeRequestPayload(corrupt_u32(12, 0), &out));  // k = 0
  EXPECT_FALSE(
      DecodeRequestPayload(corrupt_u32(12, wire::kMaxTopK + 1), &out));
  EXPECT_FALSE(DecodeRequestPayload(corrupt_u32(24, 0), &out));  // 0 queries
  EXPECT_FALSE(DecodeRequestPayload(
      corrupt_u32(24, wire::kMaxQueriesPerRequest + 1), &out));
  // num_points of query 0 (offset 28): zero and absurd both reject.
  EXPECT_FALSE(DecodeRequestPayload(corrupt_u32(28, 0), &out));
  EXPECT_FALSE(DecodeRequestPayload(
      corrupt_u32(28, wire::kMaxPointsPerQuery + 1), &out));

  // Non-finite coordinate (x of the first point, offset 32).
  std::string nan_payload = payload;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(&nan_payload[32], &nan, sizeof(nan));
  EXPECT_FALSE(DecodeRequestPayload(nan_payload, &out));

  // Activities must be strictly ascending: the first point of query 0
  // carries {3, 9, 11} at offset 52 (after x@32, y@40, count@48).
  EXPECT_FALSE(DecodeRequestPayload(corrupt_u32(56, 3), &out));  // 3,3,11
  EXPECT_FALSE(DecodeRequestPayload(corrupt_u32(56, 1), &out));  // 3,1,11
}

TEST(WireCodec, ResultDecodeRejectsInconsistentState) {
  ServeResult out;

  // A shed that carries batch slots, or a non-shed with shed detail.
  ServeResult shed;
  shed.status = ServeStatus::kShed;
  shed.shed_reason = ShedReason::kTenantRateLimit;
  shed.shed_tenant = 1;
  std::string payload = EncodeResultPayload(shed);
  auto corrupt_u32 = [](std::string s, size_t offset, uint32_t value) {
    std::memcpy(&s[offset], &value, sizeof(value));
    return s;
  };
  // Layout: status@0, shed_reason@4, shed_tenant@8,
  // deadline_exceeded@12 (u64), num_queries@20.
  EXPECT_FALSE(
      DecodeResultPayload(corrupt_u32(payload, 4, 0), &out));  // no reason
  EXPECT_FALSE(
      DecodeResultPayload(corrupt_u32(payload, 0, 3), &out));  // bad status
  EXPECT_FALSE(DecodeResultPayload(corrupt_u32(payload, 4, 200), &out));
  // kWriteRateLimit exists on the wire but only in ingest acks — the
  // serve path never sheds for the write bucket, so a serve response
  // claiming it is a protocol violation, not a forward-compat accept.
  EXPECT_FALSE(DecodeResultPayload(corrupt_u32(payload, 4, 2), &out));

  const ServeResult ok = MakeOkResult();
  payload = EncodeResultPayload(ok);
  EXPECT_FALSE(
      DecodeResultPayload(corrupt_u32(payload, 4, 1), &out));  // reason on ok
  EXPECT_FALSE(
      DecodeResultPayload(corrupt_u32(payload, 8, 5), &out));  // tenant on ok
  // deadline_exceeded must equal the count of expired statuses (0 here).
  EXPECT_FALSE(DecodeResultPayload(corrupt_u32(payload, 12, 1), &out));
  // Truncation sweep on the response payload too.
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        DecodeResultPayload(std::string_view(payload.data(), len), &out));
  }
  EXPECT_FALSE(DecodeResultPayload(payload + std::string(4, '\0'), &out));
}

TEST(WireCodec, IngestDecodeRejectsStructuralCorruption) {
  const IngestRequest request = MakeIngest();
  const std::string payload = EncodeIngestPayload(request);
  IngestRequest out;

  // Truncation at every prefix length: reject, never a crash.
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        DecodeIngestPayload(std::string_view(payload.data(), len), &out))
        << "accepted a " << len << "-byte prefix";
  }
  EXPECT_FALSE(DecodeIngestPayload(payload + std::string(4, '\0'), &out));

  auto corrupt_u32 = [&](size_t offset, uint32_t value) {
    std::string bad = payload;
    std::memcpy(&bad[offset], &value, sizeof(value));
    return bad;
  };
  // Payload layout: tenant@0, num_checkins@4; first check-in: user@8
  // (u64), x@16, y@24, num_activities@32, activities@36.
  EXPECT_FALSE(DecodeIngestPayload(corrupt_u32(4, 0), &out));  // empty batch
  EXPECT_FALSE(DecodeIngestPayload(
      corrupt_u32(4, wire::kMaxCheckInsPerIngest + 1), &out));
  EXPECT_FALSE(DecodeIngestPayload(
      corrupt_u32(32, wire::kMaxActivitiesPerPoint + 1), &out));

  // Non-finite coordinate (x of the first check-in, offset 16).
  std::string nan_payload = payload;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(&nan_payload[16], &nan, sizeof(nan));
  EXPECT_FALSE(DecodeIngestPayload(nan_payload, &out));

  // Activities must be strictly ascending: the first check-in carries
  // {3, 9, 11} at offset 36.
  EXPECT_FALSE(DecodeIngestPayload(corrupt_u32(40, 3), &out));  // 3,3,11
  EXPECT_FALSE(DecodeIngestPayload(corrupt_u32(40, 1), &out));  // 3,1,11
}

TEST(WireCodec, IngestAckDecodeRejectsInconsistentState) {
  IngestResult out;
  auto corrupt_u32 = [](std::string s, size_t offset, uint32_t value) {
    std::memcpy(&s[offset], &value, sizeof(value));
    return s;
  };

  // Layout: status@0, shed_reason@4, shed_tenant@8, accepted@12 (u64),
  // watermark@20 (u64).
  IngestResult ok;
  ok.status = IngestStatus::kOk;
  ok.accepted = 3;
  ok.watermark = 17;
  std::string payload = EncodeIngestAckPayload(ok);
  EXPECT_FALSE(
      DecodeIngestAckPayload(corrupt_u32(payload, 0, 7), &out));  // bad status
  EXPECT_FALSE(
      DecodeIngestAckPayload(corrupt_u32(payload, 4, 1), &out));  // reason on ok
  EXPECT_FALSE(
      DecodeIngestAckPayload(corrupt_u32(payload, 8, 5), &out));  // tenant on ok
  EXPECT_FALSE(
      DecodeIngestAckPayload(corrupt_u32(payload, 12, 0), &out));  // ok, 0 rows
  // watermark below accepted: the cumulative count cannot lag the batch.
  EXPECT_FALSE(DecodeIngestAckPayload(corrupt_u32(payload, 20, 2), &out));

  IngestResult shed;
  shed.status = IngestStatus::kShed;
  shed.shed_reason = ShedReason::kWriteRateLimit;
  shed.shed_tenant = 42;
  payload = EncodeIngestAckPayload(shed);
  // A shed ack names the one write shed policy and nothing else.
  EXPECT_FALSE(DecodeIngestAckPayload(corrupt_u32(payload, 4, 0), &out));
  EXPECT_FALSE(DecodeIngestAckPayload(corrupt_u32(payload, 4, 1), &out));
  // A shed applied nothing.
  EXPECT_FALSE(DecodeIngestAckPayload(corrupt_u32(payload, 12, 1), &out));

  // Truncation and trailing bytes.
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        DecodeIngestAckPayload(std::string_view(payload.data(), len), &out));
  }
  EXPECT_FALSE(DecodeIngestAckPayload(payload + std::string(4, '\0'), &out));
}

// ------------------------------------------------------------- session

TEST(WireSession, ReassemblesDribbledBytesAndPipelinedFrames) {
  const ServeRequest request = MakeRequest();
  const std::string frame = EncodeRequestFrame(request);

  // One byte at a time: kNeedMore until the last byte lands.
  Session session;
  InboundFrame out;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    session.Append(&frame[i], 1);
    ASSERT_EQ(session.Next(&out), Session::Event::kNeedMore);
  }
  session.Append(&frame[frame.size() - 1], 1);
  ASSERT_EQ(session.Next(&out), Session::Event::kRequest);
  ASSERT_EQ(out.kind, InboundFrame::Kind::kRequest);
  EXPECT_EQ(EncodeRequestPayload(out.request), EncodeRequestPayload(request));
  EXPECT_EQ(session.Next(&out), Session::Event::kNeedMore);

  // Two frames in one Append: two requests, in order.
  Session pipelined;
  const std::string two = frame + frame;
  pipelined.Append(two.data(), two.size());
  EXPECT_EQ(pipelined.Next(&out), Session::Event::kRequest);
  EXPECT_EQ(pipelined.Next(&out), Session::Event::kRequest);
  EXPECT_EQ(pipelined.Next(&out), Session::Event::kNeedMore);
  EXPECT_EQ(pipelined.frames_decoded(), 2u);
}

TEST(WireSession, MalformedInputClosesPermanently) {
  const std::string frame = EncodeRequestFrame(MakeRequest());
  InboundFrame out;

  // A flipped payload bit: the CRC catches it at frame level.
  {
    Session session;
    std::string bad = frame;
    bad[bad.size() - 3] ^= 0x40;
    session.Append(bad.data(), bad.size());
    EXPECT_EQ(session.Next(&out), Session::Event::kClosed);
    EXPECT_TRUE(session.closed());
    // Closed is absorbing: even a pristine frame is not read anymore.
    session.Append(frame.data(), frame.size());
    EXPECT_EQ(session.Next(&out), Session::Event::kClosed);
    EXPECT_EQ(session.frames_decoded(), 0u);
  }

  // A version-1 frame (the layout before the response lost a counter):
  // refused at the header, closed without a decoded frame.
  {
    Session session;
    std::string old = frame;
    const uint32_t version_one = 1;
    std::memcpy(&old[4], &version_one, sizeof(version_one));
    session.Append(old.data(), old.size());
    EXPECT_EQ(session.Next(&out), Session::Event::kClosed);
    EXPECT_EQ(session.frames_decoded(), 0u);
  }

  // A valid frame followed by garbage: the request is delivered, then
  // the session closes on the bad magic.
  {
    Session session;
    // (at least kHeaderBytes of junk, so the header parse actually runs)
    const std::string stream = frame + std::string(24, 'J');
    session.Append(stream.data(), stream.size());
    EXPECT_EQ(session.Next(&out), Session::Event::kRequest);
    EXPECT_EQ(session.Next(&out), Session::Event::kClosed);
  }

  // A response frame where requests belong: wrong direction, closed.
  {
    Session session;
    const std::string response = EncodeResultFrame(MakeOkResult());
    session.Append(response.data(), response.size());
    EXPECT_EQ(session.Next(&out), Session::Event::kClosed);
  }

  // A zero-query request hand-built at the frame layer (the encoder
  // refuses to produce one): protocol violation, closed.
  {
    Session session;
    std::string payload = EncodeRequestPayload(MakeRequest());
    const uint32_t zero = 0;
    std::memcpy(&payload[24], &zero, sizeof(zero));
    payload.resize(28);  // num_queries = 0, nothing after
    const std::string bad = BuildFrame(FrameType::kServeRequest, payload);
    session.Append(bad.data(), bad.size());
    EXPECT_EQ(session.Next(&out), Session::Event::kClosed);
  }

  // An ingest ack where client frames belong: wrong direction, closed.
  {
    Session session;
    IngestResult ok;
    ok.status = IngestStatus::kOk;
    ok.accepted = 1;
    ok.watermark = 1;
    const std::string ack = wire::EncodeIngestAckFrame(ok);
    session.Append(ack.data(), ack.size());
    EXPECT_EQ(session.Next(&out), Session::Event::kClosed);
  }
}

TEST(WireSession, InterleavesIngestAndServeFramesInArrivalOrder) {
  const ServeRequest request = MakeRequest();
  const IngestRequest ingest = MakeIngest();
  const std::string stream = EncodeRequestFrame(request) +
                             EncodeIngestFrame(ingest) +
                             EncodeRequestFrame(request);

  Session session;
  session.Append(stream.data(), stream.size());
  InboundFrame out;
  ASSERT_EQ(session.Next(&out), Session::Event::kRequest);
  EXPECT_EQ(out.kind, InboundFrame::Kind::kRequest);
  ASSERT_EQ(session.Next(&out), Session::Event::kRequest);
  ASSERT_EQ(out.kind, InboundFrame::Kind::kIngest);
  EXPECT_EQ(EncodeIngestPayload(out.ingest), EncodeIngestPayload(ingest));
  ASSERT_EQ(session.Next(&out), Session::Event::kRequest);
  EXPECT_EQ(out.kind, InboundFrame::Kind::kRequest);
  EXPECT_EQ(EncodeRequestPayload(out.request), EncodeRequestPayload(request));
  EXPECT_EQ(session.Next(&out), Session::Event::kNeedMore);
  EXPECT_EQ(session.frames_decoded(), 3u);

  // A corrupt ingest frame closes like a corrupt request frame.
  Session poisoned;
  std::string bad = EncodeIngestFrame(ingest);
  bad[bad.size() - 3] ^= 0x40;
  poisoned.Append(bad.data(), bad.size());
  EXPECT_EQ(poisoned.Next(&out), Session::Event::kClosed);
  EXPECT_TRUE(poisoned.closed());
}

// ----------------------------------------------- fast-path dispatch

class WireDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = GenerateCity(CityProfile::Testing(/*trajectories=*/200,
                                                 /*seed=*/29));
    index_ = std::make_unique<GatIndex>(dataset_);
    searcher_ = std::make_unique<GatSearcher>(dataset_, *index_);
    queries_ = TestQueries(dataset_, /*seed=*/7, /*count=*/8);
  }

  Dataset dataset_;
  std::unique_ptr<GatIndex> index_;
  std::unique_ptr<GatSearcher> searcher_;
  std::vector<Query> queries_;
};

TEST_F(WireDispatchTest, FastPathAnswersShedAndExpiredWithZeroTasks) {
  ManualClock clock;
  Executor executor(2);
  QueryEngine engine(*searcher_, EngineOptions{.executor = &executor});
  FrontDoorOptions options;
  options.clock = &clock;
  options.default_quota = TenantQuota{0.0, 2.0};
  FrontDoor door(engine, options);

  ServeRequest request;
  request.queries = queries_;
  request.k = 3;

  // Live and admitted: the fast path declines, no task yet.
  std::string frame;
  uint64_t before = executor.tasks_submitted();
  EXPECT_EQ(wire::TryServeFastPath(door, request, &frame),
            wire::DispatchOutcome::kNeedsEngine);
  EXPECT_EQ(executor.tasks_submitted() - before, 0u);

  // Expired at entry: answered with zero tasks.
  ServeRequest late = request;
  late.deadline_micros = 1;
  clock.SetMicros(10);
  before = executor.tasks_submitted();
  ASSERT_EQ(wire::TryServeFastPath(door, late, &frame),
            wire::DispatchOutcome::kResponded);
  EXPECT_EQ(executor.tasks_submitted() - before, 0u);
  ServeResult decoded;
  ASSERT_TRUE(DecodeResultPayload(
      std::string_view(frame).substr(wire::kHeaderBytes), &decoded));
  EXPECT_EQ(decoded.status, ServeStatus::kDeadlineExceeded);

  // Bucket empty (burst 2, both tokens above): shed with zero tasks,
  // carrying the machine-readable reason.
  before = executor.tasks_submitted();
  ASSERT_EQ(wire::TryServeFastPath(door, request, &frame),
            wire::DispatchOutcome::kResponded);
  EXPECT_EQ(executor.tasks_submitted() - before, 0u);
  ASSERT_TRUE(DecodeResultPayload(
      std::string_view(frame).substr(wire::kHeaderBytes), &decoded));
  EXPECT_EQ(decoded.status, ServeStatus::kShed);
  EXPECT_EQ(decoded.shed_reason, ShedReason::kTenantRateLimit);
  EXPECT_EQ(decoded.shed_tenant, request.tenant);
}

TEST_F(WireDispatchTest, ServerWithoutExecutorRefusesToStart) {
  // Admitted requests only ever run as executor tasks: a server given
  // no executor has no way to serve them, so it never binds.
  QueryEngine engine(*searcher_);
  FrontDoor door(engine);
  wire::Server server(door);
  EXPECT_FALSE(server.Start());
  EXPECT_EQ(server.port(), 0u);
  server.Stop();  // a refused Start leaves nothing to stop
}

TEST_F(WireDispatchTest, ServeFrameMatchesInProcessServe) {
  ManualClock clock;
  QueryEngine engine(*searcher_);
  FrontDoorOptions options;
  options.clock = &clock;
  FrontDoor door(engine, options);

  ServeRequest request;
  request.queries = queries_;
  request.k = 5;

  const std::string frame = wire::ServeFrame(door, request);
  ServeResult via_wire;
  ASSERT_TRUE(DecodeResultPayload(
      std::string_view(frame).substr(wire::kHeaderBytes), &via_wire));
  const ServeResult direct = door.Serve(request);
  ASSERT_EQ(via_wire.status, ServeStatus::kOk);
  EXPECT_EQ(via_wire.batch.results, direct.batch.results);
  EXPECT_EQ(via_wire.batch.statuses, direct.batch.statuses);
  // elapsed_ms is wall clock and differs between the two runs; every
  // deterministic counter must agree.
  SearchStats wire_totals = via_wire.batch.totals;
  SearchStats direct_totals = direct.batch.totals;
  wire_totals.elapsed_ms = direct_totals.elapsed_ms = 0.0;
  EXPECT_TRUE(StatsEqual(wire_totals, direct_totals));
}

TEST_F(WireDispatchTest, IngestFrameCarriesEveryFrontDoorOutcome) {
  ManualClock clock;
  QueryEngine engine(*searcher_);
  FrontDoorOptions options;
  options.clock = &clock;
  // Burst 9, no refill: three 3-check-in batches get through admission
  // (admission charges per check-in whether or not the batch applies),
  // the fourth sheds.
  options.default_write_quota = TenantQuota{0.0, 9.0};
  FrontDoor door(engine, options);

  // A batch the live index will accept: check-ins at locations the
  // dataset already covers, with in-vocabulary activities.
  IngestRequest request;
  request.tenant = 42;
  for (size_t i = 0; i < 3; ++i) {
    const TrajectoryPoint& p = dataset_.trajectories()[i].points().front();
    request.checkins.push_back({/*user=*/900 + i, p.location, p.activities});
  }

  auto ack_of = [](const std::string& frame) {
    IngestResult ack;
    EXPECT_TRUE(DecodeIngestAckPayload(
        std::string_view(frame).substr(wire::kHeaderBytes), &ack));
    return ack;
  };

  // No live index attached: the door is read-only, kUnavailable.
  IngestResult ack = ack_of(wire::IngestFrame(door, request));
  EXPECT_EQ(ack.status, IngestStatus::kUnavailable);
  EXPECT_EQ(door.counters().ingest_failed, 1u);

  // Dataset is move-only; an empty ExtendWith is the frame-preserving
  // copy (the fixture keeps serving dataset_ through searcher_).
  LiveIndex live(dataset_.ExtendWith({}));
  door.AttachLiveIndex(&live);

  // Accepted: the ack's watermark is the cumulative check-in count and
  // the delta grew by the batch's new users.
  ack = ack_of(wire::IngestFrame(door, request));
  EXPECT_EQ(ack.status, IngestStatus::kOk);
  EXPECT_EQ(ack.accepted, 3u);
  EXPECT_EQ(ack.watermark, 3u);
  EXPECT_EQ(live.delta_trajectories(), 3u);
  EXPECT_EQ(door.counters().checkins_accepted, 3u);

  // Invalid: one check-in outside the bounding box poisons the whole
  // batch (all-or-nothing), burning write tokens but applying nothing.
  IngestRequest bad = request;
  bad.checkins[1].location = {1.0e9, 1.0e9};
  ack = ack_of(wire::IngestFrame(door, bad));
  EXPECT_EQ(ack.status, IngestStatus::kInvalid);
  EXPECT_EQ(live.delta_trajectories(), 3u);
  EXPECT_EQ(live.batches_rejected(), 1u);

  // Shed: the write bucket is empty after three admitted batches — the
  // next one sheds with the write-specific reason, applying nothing.
  ack = ack_of(wire::IngestFrame(door, request));
  EXPECT_EQ(ack.status, IngestStatus::kShed);
  EXPECT_EQ(ack.shed_reason, ShedReason::kWriteRateLimit);
  EXPECT_EQ(ack.shed_tenant, request.tenant);
  EXPECT_EQ(live.watermark(), 3u);
  EXPECT_EQ(door.counters().ingest_shed, 1u);
  EXPECT_EQ(door.counters().ingest_admitted, 3u);
  EXPECT_EQ(door.counters().ingest_failed, 2u);
}

}  // namespace
}  // namespace gat
