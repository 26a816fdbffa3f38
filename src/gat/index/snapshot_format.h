#ifndef GAT_INDEX_SNAPSHOT_FORMAT_H_
#define GAT_INDEX_SNAPSHOT_FORMAT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

/// The on-disk `GATS` snapshot format. `gat/index/snapshot.cc` writes it,
/// parses it and runs the load's checksum sweep; the CRC helpers here also
/// serve a mapped index's block verification (gat/storage/mapped_disk_tier.h).
///
/// Layout: magic + version + payload CRC32 (12-byte header), then the
/// payload — `GatConfig` fields, dataset fingerprint, and one tagged
/// section per component (GRID, HICL, ITL_, TAS_, APL_, DONE). Every
/// field and every vector payload is a multiple of 4 bytes, so *all*
/// element arrays are 4-byte aligned at file offsets — the invariant
/// the parser relies on to hand out `std::span`s into the mapping
/// (element types are 4-byte IDs/codes; see common/types.h).
/// `Apl` and `Hicl` keep their lists in images laid out like their
/// sections, so the array helpers below serve the builders too.
namespace gat::snapshot_format {

inline constexpr char kMagic[4] = {'G', 'A', 'T', 'S'};
/// Version 2: the `TAS_` section is the Bloom activity sketch's word array
/// (version 1 stored intervals; it is refused, not converted).
inline constexpr uint32_t kVersion = 2;
/// magic + version + payload CRC32.
inline constexpr size_t kHeaderBytes = 12;

// Section tags (4 ASCII bytes each) so a reader that goes out of sync
// fails on the next tag instead of misinterpreting the stream.
inline constexpr char kTagGrid[4] = {'G', 'R', 'I', 'D'};
inline constexpr char kTagHicl[4] = {'H', 'I', 'C', 'L'};
inline constexpr char kTagItl[4] = {'I', 'T', 'L', '_'};
inline constexpr char kTagTas[4] = {'T', 'A', 'S', '_'};
inline constexpr char kTagApl[4] = {'A', 'P', 'L', '_'};
inline constexpr char kTagEnd[4] = {'D', 'O', 'N', 'E'};

/// Element arrays are a u64 count, then the elements; in an image of u32
/// words the count takes two words.
inline constexpr size_t kCountWords = 2;

/// Writes an array's count at `words`; returns where its elements start.
inline uint32_t* PutCount(uint32_t* words, uint64_t count) {
  std::memcpy(words, &count, sizeof(count));
  return words + kCountWords;
}

/// The bytes of the consecutive arrays `first` through `last` of one
/// image: from `first`'s count through `last`'s final element. One
/// logical fetch of them reads this extent.
inline std::span<const char> ArrayExtent(std::span<const uint32_t> first,
                                         std::span<const uint32_t> last) {
  const char* begin =
      reinterpret_cast<const char*>(first.data()) - sizeof(uint64_t);
  const char* end = reinterpret_cast<const char*>(last.data() + last.size());
  return {begin, end};
}

/// CRC-32 (IEEE 802.3, table-driven). The header carries the payload
/// checksum so any bit corruption — not just truncation — fails the load
/// instead of producing a subtly different index. Table lookup keeps the
/// verify pass from dominating warm-start time on large snapshots.
inline const uint32_t* Crc32Table() {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t byte = 0; byte < 256; ++byte) {
      uint32_t crc = byte;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
      }
      t[byte] = crc;
    }
    return t;
  }();
  return table.data();
}

inline uint32_t Crc32Update(uint32_t crc, const char* data, size_t size) {
  const uint32_t* table = Crc32Table();
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<unsigned char>(data[i])) & 0xFF];
  }
  return crc;
}

inline uint32_t Crc32(const char* data, size_t size) {
  return Crc32Update(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

/// GF(2) matrix-times-vector over the CRC-32 state space: each matrix
/// column is the image of one state bit under some number of zero bits
/// appended to the message.
inline uint32_t Crc32Gf2Times(const std::array<uint32_t, 32>& mat,
                              uint32_t vec) {
  uint32_t sum = 0;
  for (int i = 0; vec != 0; vec >>= 1, ++i) {
    if (vec & 1u) sum ^= mat[i];
  }
  return sum;
}

/// Crc32(AB) from Crc32(A), Crc32(B) and |B| — the zlib crc32_combine
/// construction: advance crc1 through |B| zero bytes by repeated
/// squaring of the one-zero-bit operator matrix, then xor in crc2.
/// This is what lets a snapshot load compute its whole-payload CRC
/// from independently checksummed chunks, bit-identical to the
/// sequential sweep.
inline uint32_t Crc32Combine(uint32_t crc1, uint32_t crc2, uint64_t len2) {
  if (len2 == 0) return crc1;
  std::array<uint32_t, 32> even;  // operator for 2^k zero bits (even k)
  std::array<uint32_t, 32> odd;   // ... and odd k
  // One zero *bit*: shift the state down and fold the polynomial back
  // in where bit 0 fell out (reflected representation).
  odd[0] = 0xEDB88320u;
  for (int n = 1; n < 32; ++n) odd[n] = 1u << (n - 1);
  auto square = [](std::array<uint32_t, 32>& dst,
                   const std::array<uint32_t, 32>& src) {
    for (int n = 0; n < 32; ++n) dst[n] = Crc32Gf2Times(src, src[n]);
  };
  square(even, odd);  // 2 zero bits
  square(odd, even);  // 4 zero bits
  // Apply the operators for len2 * 8 zero bits = len2 zero bytes,
  // consuming len2's binary digits from 8-zero-bits upward.
  do {
    square(even, odd);
    if (len2 & 1u) crc1 = Crc32Gf2Times(even, crc1);
    len2 >>= 1;
    if (len2 == 0) break;
    square(odd, even);
    if (len2 & 1u) crc1 = Crc32Gf2Times(odd, crc1);
    len2 >>= 1;
  } while (len2 != 0);
  return crc1 ^ crc2;
}

}  // namespace gat::snapshot_format

#endif  // GAT_INDEX_SNAPSHOT_FORMAT_H_
