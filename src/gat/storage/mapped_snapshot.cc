#include "gat/storage/mapped_snapshot.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <span>

#include "gat/common/check.h"
#include "gat/index/apl.h"
#include "gat/index/grid.h"
#include "gat/index/hicl.h"
#include "gat/index/itl.h"
#include "gat/index/snapshot_format.h"
#include "gat/index/snapshot_validate.h"
#include "gat/index/tas.h"
#include "gat/util/stopwatch.h"

namespace gat {
namespace {

using snapshot_format::Crc32;
using snapshot_format::Crc32Update;
using snapshot_format::kHeaderBytes;
using snapshot_format::kMagic;
using snapshot_format::kTagApl;
using snapshot_format::kTagEnd;
using snapshot_format::kTagGrid;
using snapshot_format::kTagHicl;
using snapshot_format::kTagItl;
using snapshot_format::kTagTas;
using snapshot_format::kVersion;
using snapshot_validate::OffsetsValid;
using snapshot_validate::ValidateRows;

/// Bounds-checked cursor over the mapped bytes — the in-memory analogue
/// of the stream reads in gat/index/snapshot.cc, plus the one operation
/// a stream cannot offer: handing out a zero-copy typed span of a
/// vector's payload instead of materializing it.
struct ByteReader {
  const char* data;
  size_t size;
  size_t pos;

  size_t Remaining() const { return size - pos; }

  template <typename T>
  bool ReadPod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (Remaining() < sizeof(T)) return false;
    std::memcpy(out, data + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }

  bool ExpectTag(const char (&tag)[4]) {
    if (Remaining() < 4) return false;
    const bool ok = std::memcmp(data + pos, tag, 4) == 0;
    pos += 4;
    return ok;
  }

  /// Zero-copy view of a `u64 count + raw elements` vector. The count is
  /// bounded by the remaining bytes (tighter than the stream loader's
  /// whole-payload bound, rejecting at least everything it rejects) and
  /// the element array must sit 4-byte aligned — guaranteed by the
  /// format's all-fields-multiple-of-4 invariant (snapshot_format.h).
  template <typename T>
  bool ReadSpan(std::span<const T>* out) {
    static_assert(alignof(T) <= 4);
    uint64_t count = 0;
    if (!ReadPod(&count) || count > Remaining() / sizeof(T)) return false;
    if (reinterpret_cast<uintptr_t>(data + pos) % alignof(T) != 0) {
      return false;  // malformed beyond what the writer can produce
    }
    *out = {reinterpret_cast<const T*>(data + pos), count};
    pos += static_cast<size_t>(count) * sizeof(T);
    return true;
  }

  /// Deserializing read for the RAM-resident components.
  template <typename T>
  bool ReadVec(std::vector<T>* v) {
    std::span<const T> s;
    if (!ReadSpan(&s)) return false;
    v->assign(s.begin(), s.end());
    return true;
  }
};

}  // namespace

// --------------------------------------------------------------------------
// MappedDiskTier
// --------------------------------------------------------------------------

MappedDiskTier::MappedDiskTier(const MappedFile* file, BlockCache* cache,
                               std::vector<uint32_t> block_crcs)
    : file_(file),
      cache_(cache),
      token_(cache->RegisterFile()),
      block_crcs_(std::move(block_crcs)) {}

MappedDiskTier::~MappedDiskTier() { cache_->Unregister(token_); }

void MappedDiskTier::ReadBlock(uint64_t block) const {
  const uint32_t bs = cache_->block_bytes();
  const uint64_t start = block * bs;
  GAT_CHECK(block < block_crcs_.size());
  const size_t len =
      std::min<uint64_t>(bs, static_cast<uint64_t>(file_->size()) - start);
  // The real read: every byte of the block goes through the CPU (the
  // kernel faults the pages in on first touch) and must still match the
  // checksum recorded at map time — media/bit rot under an actively
  // served mapping is a hard failure, not a subtly wrong answer.
  GAT_CHECK(Crc32(file_->data() + start, len) == block_crcs_[block]);
}

void MappedDiskTier::Fetch(uint64_t offset, uint64_t bytes,
                           DiskAccessCounter* counter) const {
  // nullptr = "this query already fetched the object" — same contract as
  // the simulated tier, no charge, no block traffic.
  if (counter == nullptr) return;
  counter->RecordRead();
  if (bytes == 0) return;
  GAT_DCHECK(offset + bytes <= file_->size());
  const uint32_t bs = cache_->block_bytes();
  const uint64_t first = offset / bs;
  const uint64_t last = (offset + bytes - 1) / bs;
  for (uint64_t b = first; b <= last; ++b) {
    if (cache_->Touch(token_, b)) {
      counter->RecordBlockHit();
    } else {
      // Verify-then-publish: the block becomes visible as resident only
      // after its bytes passed the checksum, so a concurrent hit can
      // never consume unverified data.
      ReadBlock(b);
      cache_->Publish(token_, b);
      counter->RecordBlockRead();
    }
  }
}

void MappedDiskTier::Prefetch(uint64_t offset, uint64_t bytes) const {
  if (bytes == 0) return;
  GAT_DCHECK(offset + bytes <= file_->size());
  const uint32_t bs = cache_->block_bytes();
  const uint64_t first = offset / bs;
  const uint64_t last = (offset + bytes - 1) / bs;
  for (uint64_t b = first; b <= last; ++b) {
    if (!cache_->Warm(token_, b)) {
      ReadBlock(b);
      cache_->Publish(token_, b);
    }
  }
}

// --------------------------------------------------------------------------
// MappedSnapshotIo — the zero-copy payload parser
// --------------------------------------------------------------------------

/// Befriended by GatIndex and the four components; mirrors SnapshotIo
/// (gat/index/snapshot.cc) section by section with identical config,
/// fingerprint and structural gating, differing only in storage: ITL,
/// TAS and the memory HICL levels deserialize, APL rows and disk HICL
/// levels become spans into the mapping with their byte extents wired
/// to `tier`.
struct MappedSnapshotIo {
  static std::unique_ptr<GatIndex> LoadPayload(
      ByteReader& r, const MappedSnapshotOptions& options,
      const DiskTier* tier) {
    GatConfig config;
    int32_t depth = 0, memory_levels = 0, tas_intervals = 0;
    uint32_t fingerprint = 0;
    if (!r.ReadPod(&depth) || !r.ReadPod(&memory_levels) ||
        !r.ReadPod(&tas_intervals) || !r.ReadPod(&fingerprint)) {
      return nullptr;
    }
    config.depth = depth;
    config.memory_levels = memory_levels;
    config.tas_intervals = tas_intervals;
    if (options.expected != nullptr && !(config == *options.expected)) {
      return nullptr;
    }
    if (options.expected_fingerprint != 0 && fingerprint != 0 &&
        fingerprint != options.expected_fingerprint) {
      return nullptr;
    }
    if (config.depth < 1 || config.depth > 12 || config.memory_levels < 0 ||
        config.memory_levels > config.depth || config.tas_intervals < 1) {
      return nullptr;
    }

    if (!r.ExpectTag(kTagGrid)) return nullptr;
    Rect space;
    if (!r.ReadPod(&space.min.x) || !r.ReadPod(&space.min.y) ||
        !r.ReadPod(&space.max.x) || !r.ReadPod(&space.max.y)) {
      return nullptr;
    }
    if (!(space.Width() > 0.0) || !(space.Height() > 0.0)) return nullptr;

    std::unique_ptr<GatIndex> index(
        new GatIndex(config, GridGeometry::Restore(space, config.depth)));
    index->hicl_ = LoadHicl(r, config, tier, options.executor);
    if (index->hicl_ == nullptr) return nullptr;
    uint64_t itl_rows_required = 0;
    index->itl_ = LoadItl(r, config, &itl_rows_required);
    if (index->itl_ == nullptr) return nullptr;
    index->tas_ = LoadTas(r, config);
    if (index->tas_ == nullptr) return nullptr;
    index->apl_ = LoadApl(r, tier, options.executor);
    if (index->apl_ == nullptr) return nullptr;
    if (!r.ExpectTag(kTagEnd)) return nullptr;

    const uint64_t rows = index->tas_->num_trajectories();
    if (index->apl_->num_trajectories() != rows) return nullptr;
    if (itl_rows_required > rows) return nullptr;
    return index;
  }

  static void set_build_seconds(GatIndex& index, double seconds) {
    index.build_seconds_ = seconds;
  }

 private:
  // ------------------------------------------------------------------ HICL
  static std::unique_ptr<Hicl> LoadHicl(ByteReader& r, const GatConfig& config,
                                        const DiskTier* tier,
                                        Executor* executor) {
    if (!r.ExpectTag(kTagHicl)) return nullptr;
    std::unique_ptr<Hicl> hicl(new Hicl());
    hicl->depth_ = config.depth;
    hicl->memory_levels_ = config.memory_levels;
    hicl->tier_ = tier;
    uint64_t memory_bytes = 0, disk_bytes = 0, num_activities = 0;
    // Every activity stores `depth` vectors of >= 8 bytes (the count
    // word), so any honest count satisfies this bound — and a forged
    // one fails before the resize can over-allocate.
    if (!r.ReadPod(&memory_bytes) || !r.ReadPod(&disk_bytes) ||
        !r.ReadPod(&num_activities) ||
        num_activities >
            r.Remaining() / (8u * static_cast<uint32_t>(config.depth))) {
      return nullptr;
    }
    hicl->memory_bytes_ = memory_bytes;
    hicl->disk_bytes_ = disk_bytes;
    hicl->num_activities_ = static_cast<uint32_t>(num_activities);
    // Memory levels deserialize (paper tier: RAM-resident, independent
    // of the mapping's page residency); disk levels stay in the file.
    hicl->owned_.resize(num_activities);
    hicl->views_.resize(num_activities * static_cast<size_t>(config.depth));
    for (uint64_t a = 0; a < num_activities; ++a) {
      auto& lists = hicl->owned_[a];
      lists.cells.resize(config.depth);
      for (int level = 1; level <= config.depth; ++level) {
        Hicl::LevelView& view =
            hicl->views_[a * static_cast<size_t>(config.depth) + (level - 1)];
        if (level <= config.memory_levels) {
          if (!r.ReadVec(&lists.cells[level - 1])) return nullptr;
          const auto& cells = lists.cells[level - 1];
          view.cells = {cells.data(), cells.size()};
          view.tier_bytes = cells.size() * sizeof(uint32_t);
        } else {
          const uint64_t list_start = r.pos;
          if (!r.ReadSpan(&view.cells)) return nullptr;
          view.tier_offset = list_start;
          view.tier_bytes = r.pos - list_start;  // count word + elements
        }
      }
    }
    const bool rows_ok = ValidateRows(
        executor, num_activities, [&hicl, &config](size_t row) {
          for (int level = 1; level <= config.depth; ++level) {
            const auto cells =
                hicl->views_[row * static_cast<size_t>(config.depth) +
                             (level - 1)]
                    .cells;
            const uint64_t cell_count = uint64_t{1} << (2 * level);
            if (!std::is_sorted(cells.begin(), cells.end()) ||
                (!cells.empty() && cells.back() >= cell_count)) {
              return false;
            }
          }
          return true;
        });
    return rows_ok ? std::move(hicl) : nullptr;
  }

  // ------------------------------------------------------------------- ITL
  static std::unique_ptr<Itl> LoadItl(ByteReader& r, const GatConfig& config,
                                      uint64_t* rows_required) {
    if (!r.ExpectTag(kTagItl)) return nullptr;
    std::unique_ptr<Itl> itl(new Itl());
    uint64_t memory_bytes = 0, num_cells = 0;
    // Per cell: a 4-byte code plus three 8-byte count words, minimum.
    if (!r.ReadPod(&memory_bytes) || !r.ReadPod(&num_cells) ||
        num_cells > r.Remaining() / 28u) {
      return nullptr;
    }
    const uint64_t leaf_cell_count = uint64_t{1} << (2 * config.depth);
    itl->memory_bytes_ = memory_bytes;
    itl->cells_.reserve(num_cells);
    *rows_required = 0;
    for (uint64_t c = 0; c < num_cells; ++c) {
      uint32_t code = 0;
      Itl::CellPostings cell;
      if (!r.ReadPod(&code) || code >= leaf_cell_count ||
          !r.ReadVec(&cell.activities) || !r.ReadVec(&cell.offsets) ||
          !r.ReadVec(&cell.trajectories)) {
        return nullptr;
      }
      if (!OffsetsValid(cell.offsets, cell.activities.size(),
                        cell.trajectories.size()) ||
          !std::is_sorted(cell.activities.begin(), cell.activities.end())) {
        return nullptr;
      }
      for (TrajectoryId t : cell.trajectories) {
        *rows_required = std::max<uint64_t>(*rows_required, uint64_t{t} + 1);
      }
      if (!itl->cells_.emplace(code, std::move(cell)).second) return nullptr;
    }
    return itl;
  }

  // ------------------------------------------------------------------- TAS
  static std::unique_ptr<Tas> LoadTas(ByteReader& r, const GatConfig& config) {
    if (!r.ExpectTag(kTagTas)) return nullptr;
    std::unique_ptr<Tas> tas(new Tas());
    tas->num_intervals_ = config.tas_intervals;
    if (!r.ReadVec(&tas->intervals_) || !r.ReadVec(&tas->offsets_)) {
      return nullptr;
    }
    if (tas->offsets_.empty() ||
        !OffsetsValid(tas->offsets_, tas->offsets_.size() - 1,
                      tas->intervals_.size())) {
      return nullptr;
    }
    return tas;
  }

  // ------------------------------------------------------------------- APL
  static std::unique_ptr<Apl> LoadApl(ByteReader& r, const DiskTier* tier,
                                      Executor* executor) {
    if (!r.ExpectTag(kTagApl)) return nullptr;
    std::unique_ptr<Apl> apl(new Apl());
    apl->tier_ = tier;
    uint64_t disk_bytes = 0, num_trajectories = 0;
    // Per row: three 8-byte count words, minimum.
    if (!r.ReadPod(&disk_bytes) || !r.ReadPod(&num_trajectories) ||
        num_trajectories > r.Remaining() / 24u) {
      return nullptr;
    }
    apl->disk_bytes_ = disk_bytes;
    apl->rows_.resize(num_trajectories);
    for (auto& row : apl->rows_) {
      const uint64_t row_start = r.pos;
      if (!r.ReadSpan(&row.activities) || !r.ReadSpan(&row.offsets) ||
          !r.ReadSpan(&row.points)) {
        return nullptr;
      }
      row.tier_offset = row_start;
      row.tier_bytes = r.pos - row_start;  // three count words + elements
    }
    const bool rows_ok = ValidateRows(
        executor, apl->rows_.size(), [&apl](size_t i) {
          const auto& row = apl->rows_[i];
          return OffsetsValid(row.offsets, row.activities.size(),
                              row.points.size()) &&
                 std::is_sorted(row.activities.begin(), row.activities.end());
        });
    return rows_ok ? std::move(apl) : nullptr;
  }
};

// --------------------------------------------------------------------------
// MappedSnapshot
// --------------------------------------------------------------------------

std::unique_ptr<MappedSnapshot> MappedSnapshot::Load(
    const std::string& path, const MappedSnapshotOptions& options) {
  Stopwatch timer;
  std::unique_ptr<MappedSnapshot> snap(new MappedSnapshot());
  if (!snap->file_.Open(path)) return nullptr;
  const char* data = snap->file_.data();
  const size_t size = snap->file_.size();
  if (size < kHeaderBytes) return nullptr;

  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) return nullptr;
  uint32_t version = 0, stored_crc = 0;
  std::memcpy(&version, data + 4, sizeof(version));
  std::memcpy(&stored_crc, data + 8, sizeof(stored_crc));
  if (version != kVersion) return nullptr;

  // Cache first: its block size fixes the per-block checksum granularity.
  if (options.cache != nullptr) {
    snap->cache_ = options.cache;
  } else {
    snap->owned_cache_ = std::make_unique<BlockCache>(options.cache_config);
    snap->cache_ = snap->owned_cache_.get();
  }

  // One sweep over the mapping does double duty: the whole-payload CRC
  // gate (identical to LoadSnapshot's) and the per-block checksums the
  // tier verifies on every cache fill. This is the only full read the
  // cold start performs — nothing disk-resident is materialized. With
  // an executor the sweep fans out as contiguous block-range tasks and
  // the chunk CRCs are folded with Crc32Combine: every checksum — and
  // therefore the accept/reject decision — is bit-identical to the
  // sequential pass, but the per-file load is no longer single-core.
  const uint32_t bs = snap->cache_->block_bytes();
  const uint64_t num_blocks = (static_cast<uint64_t>(size) + bs - 1) / bs;
  std::vector<uint32_t> block_crcs(num_blocks);
  auto sweep_chunk = [&](uint64_t first_block, uint64_t end_block,
                         uint64_t* payload_len) {
    // Conditioned CRC of this chunk's payload bytes (>= kHeaderBytes),
    // plus every covered block's checksum.
    uint32_t crc = 0xFFFFFFFFu;
    *payload_len = 0;
    for (uint64_t b = first_block; b < end_block; ++b) {
      const uint64_t start = b * bs;
      const size_t len = std::min<uint64_t>(bs, size - start);
      block_crcs[b] = Crc32(data + start, len);
      const uint64_t payload_start = std::max<uint64_t>(start, kHeaderBytes);
      if (start + len > payload_start) {
        crc = Crc32Update(crc, data + payload_start,
                          start + len - payload_start);
        *payload_len += start + len - payload_start;
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };

  uint32_t payload_crc;
  Executor* executor = options.executor;
  // Below ~1 MiB of blocks the task submission would rival the scan.
  constexpr uint64_t kParallelSweepMinBlocks = 256;
  if (executor != nullptr && executor->threads() > 1 &&
      num_blocks >= kParallelSweepMinBlocks) {
    const uint64_t chunks =
        std::min<uint64_t>(executor->threads(), num_blocks);
    const uint64_t per_chunk = (num_blocks + chunks - 1) / chunks;
    std::vector<uint32_t> chunk_crcs(chunks, 0);
    std::vector<uint64_t> chunk_lens(chunks, 0);
    TaskGroup group(*executor);
    for (uint64_t c = 0; c < chunks; ++c) {
      group.Submit([&, c] {
        const uint64_t first = c * per_chunk;
        const uint64_t end = std::min(num_blocks, first + per_chunk);
        chunk_crcs[c] = sweep_chunk(first, end, &chunk_lens[c]);
      });
    }
    group.Wait();
    payload_crc = chunk_crcs[0];
    for (uint64_t c = 1; c < chunks; ++c) {
      payload_crc = snapshot_format::Crc32Combine(payload_crc, chunk_crcs[c],
                                                  chunk_lens[c]);
    }
  } else {
    uint64_t payload_len = 0;
    payload_crc = sweep_chunk(0, num_blocks, &payload_len);
  }
  if (payload_crc != stored_crc) return nullptr;

  snap->tier_ = std::make_unique<MappedDiskTier>(&snap->file_, snap->cache_,
                                                 std::move(block_crcs));
  ByteReader reader{data, size, kHeaderBytes};
  snap->index_ = MappedSnapshotIo::LoadPayload(reader, options,
                                               snap->tier_.get());
  if (snap->index_ == nullptr) return nullptr;
  snap->load_seconds_ = timer.ElapsedMillis() / 1000.0;
  MappedSnapshotIo::set_build_seconds(*snap->index_, snap->load_seconds_);
  return snap;
}

}  // namespace gat
