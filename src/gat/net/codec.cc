#include "gat/net/codec.h"

#include <cmath>
#include <cstring>

#include "gat/common/check.h"

namespace gat::wire {

namespace {

/// Append-only little scribe over a std::string. Fixed-width host-order
/// fields, like gat/model/binary_io.h writes snapshots.
class Writer {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  std::string Take() { return std::move(out_); }

 private:
  void Raw(const void* p, size_t n) {
    out_.append(reinterpret_cast<const char*>(p), n);
  }
  std::string out_;
};

/// Bounds-checked cursor over a received payload. Every read that
/// would cross the end fails instead of touching memory — the first
/// half of the reject-or-bit-exact contract.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  /// Trailing bytes after the last field are a reject, not padding.
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  bool Raw(void* p, size_t n) {
    if (data_.size() - pos_ < n) return false;
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  std::string_view data_;
  size_t pos_ = 0;
};

bool DecodeQuery(Reader& r, Query* out) {
  uint32_t num_points = 0;
  if (!r.U32(&num_points)) return false;
  if (num_points == 0 || num_points > kMaxPointsPerQuery) return false;
  std::vector<QueryPoint> points;
  points.reserve(num_points);
  for (uint32_t p = 0; p < num_points; ++p) {
    QueryPoint point;
    if (!r.F64(&point.location.x)) return false;
    if (!r.F64(&point.location.y)) return false;
    // NaN/inf coordinates would poison every distance comparison
    // downstream; they cannot come from a correct encoder.
    if (!std::isfinite(point.location.x) ||
        !std::isfinite(point.location.y)) {
      return false;
    }
    uint32_t num_activities = 0;
    if (!r.U32(&num_activities)) return false;
    if (num_activities > kMaxActivitiesPerPoint) return false;
    point.activities.reserve(num_activities);
    for (uint32_t a = 0; a < num_activities; ++a) {
      uint32_t activity = 0;
      if (!r.U32(&activity)) return false;
      // Strictly ascending = sorted and deduplicated, exactly the
      // normal form `Query` maintains — so Query's re-normalization
      // is the identity and decode→encode is byte-exact.
      if (!point.activities.empty() && activity <= point.activities.back()) {
        return false;
      }
      point.activities.push_back(activity);
    }
    points.push_back(std::move(point));
  }
  *out = Query(std::move(points));
  return true;
}

}  // namespace

std::string EncodeRequestPayload(const ServeRequest& request) {
  GAT_CHECK(!request.queries.empty());
  GAT_CHECK(request.queries.size() <= kMaxQueriesPerRequest);
  GAT_CHECK(request.k >= 1 && request.k <= kMaxTopK);
  Writer w;
  w.U32(request.tenant);
  w.U32(static_cast<uint32_t>(request.priority));
  w.U32(static_cast<uint32_t>(request.kind));
  w.U32(static_cast<uint32_t>(request.k));
  w.U64(request.deadline_micros);
  w.U32(static_cast<uint32_t>(request.queries.size()));
  for (const Query& query : request.queries) {
    GAT_CHECK(!query.empty());
    GAT_CHECK(query.size() <= kMaxPointsPerQuery);
    w.U32(static_cast<uint32_t>(query.size()));
    for (const QueryPoint& point : query.points()) {
      w.F64(point.location.x);
      w.F64(point.location.y);
      GAT_CHECK(point.activities.size() <= kMaxActivitiesPerPoint);
      w.U32(static_cast<uint32_t>(point.activities.size()));
      for (ActivityId activity : point.activities) w.U32(activity);
    }
  }
  return w.Take();
}

bool DecodeRequestPayload(std::string_view payload, ServeRequest* out) {
  Reader r(payload);
  ServeRequest request;
  uint32_t priority = 0;
  uint32_t kind = 0;
  uint32_t k = 0;
  uint32_t num_queries = 0;
  if (!r.U32(&request.tenant)) return false;
  if (!r.U32(&priority)) return false;
  if (priority > static_cast<uint32_t>(RequestPriority::kBulk)) return false;
  request.priority = static_cast<RequestPriority>(priority);
  if (!r.U32(&kind)) return false;
  if (kind > static_cast<uint32_t>(QueryKind::kOatsq)) return false;
  request.kind = static_cast<QueryKind>(kind);
  if (!r.U32(&k)) return false;
  if (k == 0 || k > kMaxTopK) return false;
  request.k = k;
  if (!r.U64(&request.deadline_micros)) return false;
  if (!r.U32(&num_queries)) return false;
  // A request with nothing to serve is a protocol violation, not an
  // empty batch: no correct client encodes one (the encoder refuses).
  if (num_queries == 0 || num_queries > kMaxQueriesPerRequest) return false;
  request.queries.reserve(num_queries);
  for (uint32_t q = 0; q < num_queries; ++q) {
    Query query;
    if (!DecodeQuery(r, &query)) return false;
    request.queries.push_back(std::move(query));
  }
  if (!r.AtEnd()) return false;
  *out = std::move(request);
  return true;
}

std::string EncodeResultPayload(const ServeResult& result) {
  const BatchResult& batch = result.batch;
  GAT_CHECK(batch.results.size() == batch.statuses.size());
  GAT_CHECK(batch.results.size() <= kMaxQueriesPerRequest);
  Writer w;
  w.U32(static_cast<uint32_t>(result.status));
  w.U32(static_cast<uint32_t>(result.shed_reason));
  w.U32(result.shed_tenant);
  w.U64(batch.deadline_exceeded);
  w.U32(static_cast<uint32_t>(batch.results.size()));
  for (size_t i = 0; i < batch.results.size(); ++i) {
    const ResultList& results = batch.results[i];
    GAT_CHECK(results.size() <= kMaxResultsPerQuery);
    w.U32(static_cast<uint32_t>(batch.statuses[i]));
    w.U32(static_cast<uint32_t>(results.size()));
    for (const SearchResult& entry : results) {
      w.U32(entry.trajectory);
      w.F64(entry.distance);
    }
  }
  const SearchStats& t = batch.totals;
  w.U64(t.candidates_retrieved);
  w.U64(t.tas_pruned);
  w.U64(t.activity_rejected);
  w.U64(t.mib_rejected);
  w.U64(t.distance_computations);
  w.U64(t.nodes_popped);
  w.U64(t.heap_pushes);
  w.U64(t.rounds);
  w.U64(t.disk_reads);
  w.U64(t.block_hits);
  w.U64(t.blocks_read);
  w.U64(t.index_pins);
  w.U64(t.deadline_skips);
  w.F64(t.elapsed_ms);
  return w.Take();
}

bool DecodeResultPayload(std::string_view payload, ServeResult* out) {
  Reader r(payload);
  ServeResult result;
  uint32_t status = 0;
  uint32_t shed_reason = 0;
  uint32_t num_queries = 0;
  if (!r.U32(&status)) return false;
  if (status > static_cast<uint32_t>(ServeStatus::kDeadlineExceeded)) {
    return false;
  }
  result.status = static_cast<ServeStatus>(status);
  if (!r.U32(&shed_reason)) return false;
  if (shed_reason > static_cast<uint32_t>(ShedReason::kTenantRateLimit)) {
    return false;
  }
  result.shed_reason = static_cast<ShedReason>(shed_reason);
  if (!r.U32(&result.shed_tenant)) return false;
  if (!r.U64(&result.batch.deadline_exceeded)) return false;
  if (!r.U32(&num_queries)) return false;
  if (num_queries > kMaxQueriesPerRequest) return false;
  // Cross-field discipline: a shed carries no batch at all, and a
  // non-shed carries no shed detail. Violations mean a peer invented
  // state the serving side never produces — reject.
  if (result.status == ServeStatus::kShed) {
    if (result.shed_reason == ShedReason::kNone) return false;
    if (num_queries != 0 || result.batch.deadline_exceeded != 0) return false;
  } else {
    if (result.shed_reason != ShedReason::kNone) return false;
    if (result.shed_tenant != 0) return false;
  }
  result.batch.results.reserve(num_queries);
  result.batch.statuses.reserve(num_queries);
  uint64_t deadline_statuses = 0;
  for (uint32_t q = 0; q < num_queries; ++q) {
    uint32_t query_status = 0;
    uint32_t num_results = 0;
    if (!r.U32(&query_status)) return false;
    if (query_status > static_cast<uint32_t>(QueryStatus::kDeadlineExceeded)) {
      return false;
    }
    const auto qs = static_cast<QueryStatus>(query_status);
    if (!r.U32(&num_results)) return false;
    if (num_results > kMaxResultsPerQuery) return false;
    // Expired queries never carry partial answers, and an expired
    // *request* clears every list (FrontDoor contract).
    if (qs == QueryStatus::kDeadlineExceeded && num_results != 0) {
      return false;
    }
    if (result.status == ServeStatus::kDeadlineExceeded && num_results != 0) {
      return false;
    }
    if (qs == QueryStatus::kDeadlineExceeded) ++deadline_statuses;
    ResultList results;
    results.reserve(num_results);
    for (uint32_t i = 0; i < num_results; ++i) {
      SearchResult entry;
      if (!r.U32(&entry.trajectory)) return false;
      if (!r.F64(&entry.distance)) return false;
      results.push_back(entry);
    }
    result.batch.results.push_back(std::move(results));
    result.batch.statuses.push_back(qs);
  }
  // `deadline_exceeded` is definitionally the count of expired
  // queries — except for a request expired before the engine saw it,
  // which has no per-query slots at all.
  if (num_queries != 0 &&
      result.batch.deadline_exceeded != deadline_statuses) {
    return false;
  }
  SearchStats& t = result.batch.totals;
  if (!r.U64(&t.candidates_retrieved)) return false;
  if (!r.U64(&t.tas_pruned)) return false;
  if (!r.U64(&t.activity_rejected)) return false;
  if (!r.U64(&t.mib_rejected)) return false;
  if (!r.U64(&t.distance_computations)) return false;
  if (!r.U64(&t.nodes_popped)) return false;
  if (!r.U64(&t.heap_pushes)) return false;
  if (!r.U64(&t.rounds)) return false;
  if (!r.U64(&t.disk_reads)) return false;
  if (!r.U64(&t.block_hits)) return false;
  if (!r.U64(&t.blocks_read)) return false;
  if (!r.U64(&t.index_pins)) return false;
  if (!r.U64(&t.deadline_skips)) return false;
  if (!r.F64(&t.elapsed_ms)) return false;
  if (!r.AtEnd()) return false;
  *out = std::move(result);
  return true;
}

std::string EncodeIngestPayload(const IngestRequest& request) {
  GAT_CHECK(!request.checkins.empty());
  GAT_CHECK(request.checkins.size() <= kMaxCheckInsPerIngest);
  Writer w;
  w.U32(request.tenant);
  w.U32(static_cast<uint32_t>(request.checkins.size()));
  for (const CheckIn& c : request.checkins) {
    GAT_CHECK(std::isfinite(c.location.x) && std::isfinite(c.location.y));
    GAT_CHECK(c.activities.size() <= kMaxActivitiesPerPoint);
    w.U64(c.user);
    w.F64(c.location.x);
    w.F64(c.location.y);
    w.U32(static_cast<uint32_t>(c.activities.size()));
    for (size_t i = 0; i < c.activities.size(); ++i) {
      GAT_CHECK(i == 0 || c.activities[i] > c.activities[i - 1]);
      w.U32(c.activities[i]);
    }
  }
  return w.Take();
}

bool DecodeIngestPayload(std::string_view payload, IngestRequest* out) {
  Reader r(payload);
  IngestRequest request;
  uint32_t num_checkins = 0;
  if (!r.U32(&request.tenant)) return false;
  if (!r.U32(&num_checkins)) return false;
  // An ingest with nothing to apply is a protocol violation, same rule
  // as an empty query batch.
  if (num_checkins == 0 || num_checkins > kMaxCheckInsPerIngest) return false;
  request.checkins.reserve(num_checkins);
  for (uint32_t i = 0; i < num_checkins; ++i) {
    CheckIn c;
    if (!r.U64(&c.user)) return false;
    if (!r.F64(&c.location.x)) return false;
    if (!r.F64(&c.location.y)) return false;
    if (!std::isfinite(c.location.x) || !std::isfinite(c.location.y)) {
      return false;
    }
    uint32_t num_activities = 0;
    if (!r.U32(&num_activities)) return false;
    if (num_activities > kMaxActivitiesPerPoint) return false;
    c.activities.reserve(num_activities);
    for (uint32_t a = 0; a < num_activities; ++a) {
      uint32_t activity = 0;
      if (!r.U32(&activity)) return false;
      // Strictly ascending: sorted + deduplicated, so the LiveIndex's
      // normalization is the identity and decode→encode is byte-exact.
      if (!c.activities.empty() && activity <= c.activities.back()) {
        return false;
      }
      c.activities.push_back(activity);
    }
    request.checkins.push_back(std::move(c));
  }
  if (!r.AtEnd()) return false;
  *out = std::move(request);
  return true;
}

std::string EncodeIngestAckPayload(const IngestResult& result) {
  Writer w;
  w.U32(static_cast<uint32_t>(result.status));
  w.U32(static_cast<uint32_t>(result.shed_reason));
  w.U32(result.shed_tenant);
  w.U64(result.accepted);
  w.U64(result.watermark);
  return w.Take();
}

bool DecodeIngestAckPayload(std::string_view payload, IngestResult* out) {
  Reader r(payload);
  IngestResult result;
  uint32_t status = 0;
  uint32_t shed_reason = 0;
  if (!r.U32(&status)) return false;
  if (status > static_cast<uint32_t>(IngestStatus::kUnavailable)) return false;
  result.status = static_cast<IngestStatus>(status);
  if (!r.U32(&shed_reason)) return false;
  if (shed_reason > static_cast<uint32_t>(ShedReason::kWriteRateLimit)) {
    return false;
  }
  result.shed_reason = static_cast<ShedReason>(shed_reason);
  if (!r.U32(&result.shed_tenant)) return false;
  if (!r.U64(&result.accepted)) return false;
  if (!r.U64(&result.watermark)) return false;
  if (!r.AtEnd()) return false;
  // Cross-field discipline: exactly the states FrontDoor::Ingest
  // produces. The write path has one shed policy, so a shed ack names
  // it and nothing else; any non-ok ack applied nothing.
  if (result.status == IngestStatus::kShed) {
    if (result.shed_reason != ShedReason::kWriteRateLimit) return false;
  } else {
    if (result.shed_reason != ShedReason::kNone) return false;
    if (result.shed_tenant != 0) return false;
  }
  if (result.status == IngestStatus::kOk) {
    // A wire ingest carries at least one check-in, so an ok ack
    // accepted at least one and the cumulative watermark covers them.
    if (result.accepted == 0 || result.watermark < result.accepted) {
      return false;
    }
  } else {
    if (result.accepted != 0 || result.watermark != 0) return false;
  }
  *out = result;
  return true;
}

std::string BuildFrame(FrameType type, std::string_view payload) {
  GAT_CHECK(payload.size() <= kMaxPayloadBytes);
  Writer w;
  uint32_t magic = 0;
  std::memcpy(&magic, kMagic, sizeof(magic));
  w.U32(magic);
  w.U32(kVersion);
  w.U32(static_cast<uint32_t>(type));
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(snapshot_format::Crc32(payload.data(), payload.size()));
  std::string frame = w.Take();
  frame.append(payload.data(), payload.size());
  return frame;
}

std::string EncodeRequestFrame(const ServeRequest& request) {
  return BuildFrame(FrameType::kServeRequest, EncodeRequestPayload(request));
}

std::string EncodeResultFrame(const ServeResult& result) {
  return BuildFrame(FrameType::kServeResponse, EncodeResultPayload(result));
}

std::string EncodeIngestFrame(const IngestRequest& request) {
  return BuildFrame(FrameType::kIngest, EncodeIngestPayload(request));
}

std::string EncodeIngestAckFrame(const IngestResult& result) {
  return BuildFrame(FrameType::kIngestAck, EncodeIngestAckPayload(result));
}

bool ParseFrameHeader(const char* data, size_t size, FrameHeader* out) {
  GAT_CHECK(size >= kHeaderBytes);
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) return false;
  uint32_t version = 0;
  uint32_t type = 0;
  FrameHeader header;
  std::memcpy(&version, data + 4, sizeof(version));
  std::memcpy(&type, data + 8, sizeof(type));
  std::memcpy(&header.payload_bytes, data + 12, sizeof(header.payload_bytes));
  std::memcpy(&header.payload_crc32, data + 16, sizeof(header.payload_crc32));
  if (version != kVersion) return false;
  if (type != static_cast<uint32_t>(FrameType::kServeRequest) &&
      type != static_cast<uint32_t>(FrameType::kServeResponse) &&
      type != static_cast<uint32_t>(FrameType::kIngest) &&
      type != static_cast<uint32_t>(FrameType::kIngestAck)) {
    return false;
  }
  header.type = static_cast<FrameType>(type);
  if (header.payload_bytes > kMaxPayloadBytes) return false;
  *out = header;
  return true;
}

bool VerifyPayload(const FrameHeader& header, std::string_view payload) {
  GAT_CHECK(payload.size() == header.payload_bytes);
  return snapshot_format::Crc32(payload.data(), payload.size()) ==
         header.payload_crc32;
}

}  // namespace gat::wire
