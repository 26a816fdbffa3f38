#ifndef GAT_NET_CODEC_H_
#define GAT_NET_CODEC_H_

#include <string>
#include <string_view>

#include "gat/net/wire_format.h"
#include "gat/serve/front_door.h"

namespace gat::wire {

/// Serialization of the serving API (`ServeRequest`, `ServeResult` and
/// the deterministic part of its `BatchResult`) to `GATW` payloads and
/// frames. Pure byte shuffling — no sockets — so the whole codec is
/// testable on buffers and the determinism gates never depend on the
/// kernel.
///
/// The response payload carries exactly the deterministic serving
/// outcome: per-query result lists, per-query `QueryStatus`, the
/// summed `SearchStats` counters, and the request-level
/// `ServeStatus`/`ShedReason`. Wall-clock diagnostics (`latencies`,
/// `wall_ms`) are transport-local by design and decode to their
/// defaults.

/// Payload codecs. Decoders return false on any malformed input —
/// reject-or-bit-exact, never a crash; on false `*out` is
/// unspecified. Encoders GAT_CHECK the same structural envelope the
/// decoders enforce (an in-process caller violating it is a bug, not
/// a protocol event).
std::string EncodeRequestPayload(const ServeRequest& request);
bool DecodeRequestPayload(std::string_view payload, ServeRequest* out);
std::string EncodeResultPayload(const ServeResult& result);
bool DecodeResultPayload(std::string_view payload, ServeResult* out);

/// Write path: a tenant's check-in batch (kIngest) and its outcome
/// (kIngestAck). Same dialect, same discipline — per-point activity
/// lists strictly ascending, coordinates finite, the ack's cross-field
/// rules exactly the states `FrontDoor::Ingest` produces.
std::string EncodeIngestPayload(const IngestRequest& request);
bool DecodeIngestPayload(std::string_view payload, IngestRequest* out);
std::string EncodeIngestAckPayload(const IngestResult& result);
bool DecodeIngestAckPayload(std::string_view payload, IngestResult* out);

/// Wraps `payload` in a `GATW` frame header (type, length, CRC).
std::string BuildFrame(FrameType type, std::string_view payload);

/// Complete frames: BuildFrame over the payload encoders.
std::string EncodeRequestFrame(const ServeRequest& request);
std::string EncodeResultFrame(const ServeResult& result);
std::string EncodeIngestFrame(const IngestRequest& request);
std::string EncodeIngestAckFrame(const IngestResult& result);

/// Parses and validates a frame header from `data` (which must hold at
/// least kHeaderBytes). False = bad magic, wrong version, unknown
/// frame type, or declared payload over kMaxPayloadBytes; the
/// connection carrying it must close.
bool ParseFrameHeader(const char* data, size_t size, FrameHeader* out);

/// CRC check of a received payload against its header.
bool VerifyPayload(const FrameHeader& header, std::string_view payload);

}  // namespace gat::wire

#endif  // GAT_NET_CODEC_H_
