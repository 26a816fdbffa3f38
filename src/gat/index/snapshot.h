#ifndef GAT_INDEX_SNAPSHOT_H_
#define GAT_INDEX_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "gat/engine/executor.h"
#include "gat/index/gat_index.h"
#include "gat/storage/disk_tier.h"
#include "gat/util/stopwatch.h"

namespace gat {

/// GAT index persistence.
///
/// A snapshot is a versioned binary image of a built `GatIndex` ("GATS"
/// magic, version 2): magic + version + payload CRC32, then the
/// `GatConfig`, the padded grid rect, and one tagged section per
/// component — HICL, ITL, TAS, APL. A loaded index answers top-k queries
/// bit-identically to the freshly built index it was saved from (the
/// grid rect is restored without re-padding and every posting list
/// byte-for-byte, so candidate retrieval, pruning and refinement all
/// replay exactly).
///
/// Corruption cannot load as a subtly different index: the CRC rejects
/// any bit damage, and structural validation (sorted lists, offset
/// tables, cell codes within 4^level, ITL trajectory IDs within the
/// TAS/APL row count) independently bounds every *intra-index* reference
/// even for a forged checksum. The byte totals in the section headers,
/// which `memory_breakdown()` reports, must equal the totals of the
/// parsed lists. APL point indices are the exception: they
/// index into the paired dataset's trajectories, which the snapshot does
/// not contain, so they are only as valid as the *pairing*. That is what
/// the dataset fingerprint guards: pass `DatasetFingerprint(dataset)` at
/// save and load time (as ShardedIndex does) and a snapshot of any other
/// dataset refuses to load. Callers that skip the fingerprint (0) own
/// the pairing contract themselves — serving a snapshot against the
/// wrong dataset can mis-answer or read out of bounds at query time.
///
/// Conventions follow gat/model/serialization.h: no exceptions; functions
/// return false / nullptr on I/O or format errors.

/// Checksum of a finalized dataset's full content (trajectory points and
/// activity IDs), for snapshot pairing. Never returns 0 (0 means "not
/// checked" in the snapshot API). O(dataset); ~milliseconds at bench
/// scale, far below an index build.
uint32_t DatasetFingerprint(const Dataset& dataset);

/// Writes a snapshot of `index` to `path`, stamping `dataset_fingerprint`
/// (0 = unknown). Returns false on I/O errors.
bool SaveSnapshot(const GatIndex& index, const std::string& path,
                  uint32_t dataset_fingerprint = 0);

/// Loads a snapshot. When `expected` is non-null, the stored `GatConfig`
/// must equal `*expected`; when `expected_fingerprint` is non-zero and
/// the snapshot was stamped (non-zero), the fingerprints must match —
/// together these refuse snapshots built under different index
/// parameters or over a different dataset. The returned index's
/// `build_seconds()` reports the load time. Returns nullptr on any
/// error.
///
/// `executor` (optional, non-owning) fans the structural validation of
/// the big HICL/APL sections out as tasks — the warm-start accelerator
/// for callers that already run a pool, e.g. `ShardedIndex` restoring
/// every shard on the serving executor. The accept/reject decision is
/// identical with or without it.
///
/// The file is mapped, checksummed and handed to `ParseSnapshot` with
/// no tier, so each section's bytes are copied into the index once: the
/// HICL lists and the APL rows each into one heap image laid out like
/// their section. The mapping is dropped on return.
std::unique_ptr<GatIndex> LoadSnapshot(const std::string& path,
                                       const GatConfig* expected = nullptr,
                                       uint32_t expected_fingerprint = 0,
                                       Executor* executor = nullptr);

/// The one `GATS` parser, behind both `LoadSnapshot` and
/// `MappedSnapshot::Load` (gat/storage). `file` is the whole snapshot,
/// header included; `payload_crc` is the CRC32 of the bytes after the
/// 12-byte header, computed by the caller (each sweeps the file its own
/// way). It makes every accept/reject decision: magic, version,
/// checksum, config and fingerprint gating as in `LoadSnapshot`,
/// section tags, count bounds, structural and cross-section checks.
///
/// `tier` decides only where the disk-resident sections (HICL levels
/// past `memory_levels`, APL rows) live. nullptr copies them into the
/// index's heap images, served through the simulated tier. Non-null
/// keeps them as spans into `file`, whose fetches read their file
/// extents through `tier`, so `file` must outlive the index. The
/// RAM-resident sections are always copied. The index's
/// `build_seconds()` is `timer`'s elapsed time when the parse ends.
std::unique_ptr<GatIndex> ParseSnapshot(std::span<const char> file,
                                        uint32_t payload_crc,
                                        const GatConfig* expected,
                                        uint32_t expected_fingerprint,
                                        Executor* executor,
                                        const DiskTier* tier,
                                        const Stopwatch& timer);

}  // namespace gat

#endif  // GAT_INDEX_SNAPSHOT_H_
