#ifndef GAT_NET_WIRE_FORMAT_H_
#define GAT_NET_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>

#include "gat/index/snapshot_format.h"

/// The `GATW` wire format: length-prefixed binary frames carrying the
/// serving front door's requests and responses across a socket. The
/// authoritative layout (field order, versioning rules, the stable
/// numeric values of every status enum) is docs/WIRE_PROTOCOL.md; this
/// header is the single in-tree home of the constants.
///
/// A frame is a fixed 20-byte header followed by the payload:
///
///   magic 'GATW' | version u32 | frame type u32 | payload len u32 |
///   payload CRC32 u32 | payload bytes...
///
/// All header fields and every payload field are 4-byte multiples —
/// the same alignment discipline as the `GATS` snapshot format, whose
/// CRC-32 machinery (`gat::snapshot_format::Crc32`) checksums the
/// payload. Byte order is host order (x86-64 little-endian), exactly
/// like the snapshots: one serialization dialect per repo.
///
/// Decoding is reject-or-bit-exact, mirroring the snapshot loaders: a
/// reader either accepts a frame whose re-encoding is byte-identical,
/// or rejects it (bad magic/version/type, oversized length, CRC
/// mismatch, short payload, trailing bytes, out-of-range enum value,
/// structural inconsistency) and the session closes cleanly — a
/// malformed peer can end its connection, never crash the server.
namespace gat::wire {

inline constexpr char kMagic[4] = {'G', 'A', 'T', 'W'};
/// 2 since the response frame went from 14 to 13 SearchStats counters
/// (docs/WIRE_PROTOCOL.md, "Versioning").
inline constexpr uint32_t kVersion = 2;

/// Frame types. Wire-stable: add at the end, never renumber. (Enum
/// growth is NOT a version bump — old peers reject unknown types and
/// close, which is the compatible failure mode; the version changes
/// only when the layout of an existing frame changes.)
enum class FrameType : uint32_t {
  kServeRequest = 1,
  kServeResponse = 2,
  kIngest = 3,     // a tenant's check-in batch (write path)
  kIngestAck = 4,  // the ingest outcome: status, accepted, watermark
};

/// magic + version + frame type + payload length + payload CRC32.
inline constexpr size_t kHeaderBytes = 20;

/// Hard ceiling on a declared payload length. A peer announcing more
/// is rejected before any allocation — the length field alone must
/// never size a buffer.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

/// Structural caps the decoder enforces (and the encoder checks), so
/// a hostile length field deep inside a CRC-valid payload still cannot
/// demand absurd allocations.
inline constexpr uint32_t kMaxQueriesPerRequest = 1u << 16;
inline constexpr uint32_t kMaxPointsPerQuery = 1u << 12;
inline constexpr uint32_t kMaxActivitiesPerPoint = 1u << 12;
inline constexpr uint32_t kMaxTopK = 1u << 20;
inline constexpr uint32_t kMaxResultsPerQuery = 1u << 20;
inline constexpr uint32_t kMaxCheckInsPerIngest = 1u << 16;

/// The parsed fixed-size frame header. `payload_crc32` is
/// `snapshot_format::Crc32` over the payload bytes.
struct FrameHeader {
  FrameType type = FrameType::kServeRequest;
  uint32_t payload_bytes = 0;
  uint32_t payload_crc32 = 0;
};

}  // namespace gat::wire

#endif  // GAT_NET_WIRE_FORMAT_H_
