#ifndef GAT_INDEX_SNAPSHOT_H_
#define GAT_INDEX_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "gat/engine/executor.h"
#include "gat/index/gat_index.h"
#include "gat/storage/block_cache.h"

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

/// Loads a snapshot: the one loader. When `expected` is non-null, the
/// stored `GatConfig` must equal `*expected`; when `expected_fingerprint`
/// is non-zero and the snapshot was stamped (non-zero), the fingerprints
/// must match — together these refuse snapshots built under different
/// index parameters or over a different dataset. Magic, version, the
/// payload CRC, section tags, count bounds, structural and cross-section
/// checks decide the rest. The returned index's `build_seconds()`
/// reports the load time. Returns nullptr on any error.
///
/// The file is mapped and checksummed in one sweep. `executor`
/// (optional, non-owning) fans that sweep and the structural validation
/// of the big HICL/APL sections out as tasks — the warm-start
/// accelerator for callers that already run a pool, e.g. `ShardedIndex`
/// restoring every shard on the serving executor. The accept/reject
/// decision is identical with or without it.
///
/// `cache` decides only where the disk-resident sections (HICL levels
/// past `memory_levels`, APL rows) live:
///  * nullptr: every section is copied into the index once — the HICL
///    lists and the APL rows each into one heap image laid out like
///    their section — and the mapping is dropped on return;
///  * non-null: the index keeps the mapping and serves the disk sections
///    as spans into it, each fetch reading its cache blocks through
///    `cache` and verifying every filled block against the checksum the
///    sweep recorded. The RAM-resident sections are copied as above. The
///    index shares ownership of the cache and registers its file there
///    until it is destroyed; pass one cache to every index that should
///    share a budget.
/// Either way the index answers bit-identically to the built one, with
/// equal logical `disk_reads` counts.
std::unique_ptr<GatIndex> LoadSnapshot(
    const std::string& path, const GatConfig* expected = nullptr,
    uint32_t expected_fingerprint = 0, Executor* executor = nullptr,
    std::shared_ptr<BlockCache> cache = nullptr);

}  // namespace gat

#endif  // GAT_INDEX_SNAPSHOT_H_
