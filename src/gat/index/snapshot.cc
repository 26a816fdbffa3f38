#include "gat/index/snapshot.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "gat/engine/executor.h"

#include "gat/index/apl.h"
#include "gat/index/grid.h"
#include "gat/index/hicl.h"
#include "gat/index/itl.h"
#include "gat/index/snapshot_format.h"
#include "gat/index/tas.h"
#include "gat/model/binary_io.h"
#include "gat/storage/mapped_disk_tier.h"
#include "gat/storage/mapped_file.h"
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

/// Forwards bytes to `dest` while folding them into a running CRC32, so
/// the save path checksums without buffering the payload.
class Crc32OStreambuf : public std::streambuf {
 public:
  explicit Crc32OStreambuf(std::streambuf* dest) : dest_(dest) {}
  uint32_t crc() const { return crc_ ^ 0xFFFFFFFFu; }

 protected:
  int overflow(int ch) override {
    if (ch == traits_type::eof()) return 0;
    const char c = static_cast<char>(ch);
    return xsputn(&c, 1) == 1 ? ch : traits_type::eof();
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    crc_ = Crc32Update(crc_, s, static_cast<size_t>(n));
    return dest_->sputn(s, n);
  }

 private:
  std::streambuf* dest_;
  uint32_t crc_ = 0xFFFFFFFFu;
};

void WriteTag(std::ostream& out, const char (&tag)[4]) {
  out.write(tag, sizeof(tag));
}

/// Trivially-copyable element vectors are stored as u64 count + raw bytes.
template <typename T>
void WriteVec(std::ostream& out, std::span<const T> v) {
  WritePod(out, static_cast<uint64_t>(v.size()));
  if (!v.empty()) {
    out.write(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  }
}

template <typename T>
void WriteVec(std::ostream& out, const std::vector<T>& v) {
  WriteVec(out, std::span<const T>{v.data(), v.size()});
}

/// Bounds-checked cursor over a whole snapshot image. Every read fails
/// instead of running past the end, so a truncated or forged file can
/// neither over-read nor over-allocate.
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
  /// bounded by the remaining bytes, and the element array must sit
  /// 4-byte aligned — guaranteed by the format's all-fields-multiple-of-4
  /// invariant (snapshot_format.h) over a page-aligned mapping.
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
};

/// Structural check shared by the ITL / APL posting layouts: `offsets`
/// must be [0, ..., payload_size] and non-decreasing, with one extra
/// entry over `keys`. A snapshot failing this would hand out-of-range
/// spans to the searchers.
bool OffsetsValid(std::span<const uint32_t> offsets, size_t num_keys,
                  size_t payload_size) {
  if (offsets.size() != num_keys + 1) return false;
  if (offsets.front() != 0 ||
      offsets.back() != static_cast<uint32_t>(payload_size)) {
    return false;
  }
  return std::is_sorted(offsets.begin(), offsets.end());
}

/// Copies `array` (count, then elements) to `*out`, advances `*out` past
/// it and re-points `array` at the copy.
void CopyArray(std::span<const uint32_t>* array, uint32_t** out) {
  uint32_t* elements = snapshot_format::PutCount(*out, array->size());
  *out = std::copy(array->begin(), array->end(), elements);
  *array = {elements, array->size()};
}

/// Rows below this count validate inline: the task-submission overhead
/// would exceed the per-row sorted/bounds checks being fanned out.
constexpr size_t kParallelValidateMinRows = 256;

/// Runs `row_ok(i)` over every row, fanned out in contiguous chunks on
/// `executor` when one is given and the section is big enough to pay for
/// it. Row checks are independent reads of already-parsed data, so the
/// only shared state is the sticky failure flag. Returns true iff every
/// row passes — the same decision the inline loop makes.
bool ValidateRows(Executor* executor, size_t rows,
                  const std::function<bool(size_t)>& row_ok) {
  const bool fan_out = executor != nullptr && executor->threads() > 1 &&
                       rows >= kParallelValidateMinRows;
  const size_t chunks =
      fan_out ? std::min<size_t>(executor->threads(), rows) : 1;
  const size_t per_chunk = (rows + chunks - 1) / chunks;
  std::atomic<bool> ok{true};
  ParallelFor(executor, chunks, TaskPriority::kHigh, [&](size_t c) {
    const size_t end = std::min(rows, (c + 1) * per_chunk);
    for (size_t i = c * per_chunk; i < end; ++i) {
      if (!ok.load(std::memory_order_relaxed)) return;  // already doomed
      if (!row_ok(i)) {
        ok.store(false, std::memory_order_relaxed);
        return;
      }
    }
  });
  return ok.load();
}

/// The sweep's block size when nothing is mapped: one page.
constexpr uint32_t kSweepBlockBytes = 4096;

/// Below this many blocks the sweep runs inline: the task submission
/// would rival the scan.
constexpr uint64_t kParallelSweepMinBlocks = 256;

/// One read of the whole file, in `block_bytes` blocks: returns the CRC32
/// of the payload (the bytes after the header), which the parser gates
/// on, and stores each block's own CRC32 in `*block_crcs` unless it is
/// null. With an executor the sweep fans out as contiguous block ranges
/// and the chunk CRCs are folded with Crc32Combine, so every checksum —
/// and therefore the accept/reject decision — equals the inline pass.
uint32_t SweepChecksums(std::span<const char> file, uint32_t block_bytes,
                        std::vector<uint32_t>* block_crcs,
                        Executor* executor) {
  const uint64_t size = file.size();
  const uint64_t num_blocks = (size + block_bytes - 1) / block_bytes;
  if (block_crcs != nullptr) block_crcs->resize(num_blocks);
  // Conditioned CRC of one chunk's payload bytes, and its length.
  auto sweep_chunk = [&](uint64_t first_block, uint64_t end_block,
                         uint64_t* payload_len) {
    uint32_t crc = 0xFFFFFFFFu;
    *payload_len = 0;
    for (uint64_t b = first_block; b < end_block; ++b) {
      const uint64_t start = b * block_bytes;
      const uint64_t end = std::min<uint64_t>(start + block_bytes, size);
      if (block_crcs != nullptr) {
        (*block_crcs)[b] = Crc32(file.data() + start, end - start);
      }
      const uint64_t payload_start = std::max<uint64_t>(start, kHeaderBytes);
      if (end > payload_start) {
        crc = Crc32Update(crc, file.data() + payload_start,
                          end - payload_start);
        *payload_len += end - payload_start;
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };

  const bool fan_out = executor != nullptr && executor->threads() > 1 &&
                       num_blocks >= kParallelSweepMinBlocks;
  const uint64_t chunks =
      fan_out ? std::min<uint64_t>(executor->threads(), num_blocks) : 1;
  const uint64_t per_chunk = (num_blocks + chunks - 1) / chunks;
  std::vector<uint32_t> chunk_crcs(chunks, 0);
  std::vector<uint64_t> chunk_lens(chunks, 0);
  ParallelFor(executor, chunks, TaskPriority::kHigh, [&](size_t c) {
    const uint64_t first = c * per_chunk;
    const uint64_t end = std::min(num_blocks, first + per_chunk);
    chunk_crcs[c] = sweep_chunk(first, end, &chunk_lens[c]);
  });
  uint32_t payload_crc = chunk_crcs[0];
  for (uint64_t c = 1; c < chunks; ++c) {
    payload_crc = snapshot_format::Crc32Combine(payload_crc, chunk_crcs[c],
                                                chunk_lens[c]);
  }
  return payload_crc;
}

}  // namespace

/// Private-state accessor for snapshot save/parse; befriended by GatIndex
/// and the four index components.
struct SnapshotIo {
  static bool SavePayload(const GatIndex& index, std::ostream& out,
                          uint32_t dataset_fingerprint) {
    const GatConfig& config = index.config();
    WritePod(out, static_cast<int32_t>(config.depth));
    WritePod(out, static_cast<int32_t>(config.memory_levels));
    WritePod(out, static_cast<int32_t>(config.tas_width));
    WritePod(out, dataset_fingerprint);

    WriteTag(out, kTagGrid);
    const Rect& space = index.grid().space();  // already padded
    WritePod(out, space.min.x);
    WritePod(out, space.min.y);
    WritePod(out, space.max.x);
    WritePod(out, space.max.y);

    SaveHicl(index.hicl(), out);
    SaveItl(index.itl(), out);
    SaveTas(index.tas(), out);
    SaveApl(index.apl(), out);
    WriteTag(out, kTagEnd);
    return out.good();
  }

  /// The one `GATS` parser. `file` is the whole snapshot, header
  /// included; `payload_crc` is the CRC32 of the bytes after the header.
  /// `disk` decides only where the disk-resident sections live: nullptr
  /// copies them into the index's heap images, non-null keeps them as
  /// spans into its mapping (which is `file`), read through it. The
  /// index owns `disk`; a rejected file drops it on return.
  static std::unique_ptr<GatIndex> Parse(std::span<const char> file,
                                         uint32_t payload_crc,
                                         const GatConfig* expected,
                                         uint32_t expected_fingerprint,
                                         Executor* executor,
                                         std::unique_ptr<MappedDiskTier> disk,
                                         const Stopwatch& timer) {
    ByteReader r{file.data(), file.size(), 0};
    uint32_t version = 0, stored_crc = 0;
    if (!r.ExpectTag(kMagic) || !r.ReadPod(&version) || version != kVersion ||
        !r.ReadPod(&stored_crc) || stored_crc != payload_crc) {
      return nullptr;
    }

    GatConfig config;
    int32_t depth = 0, memory_levels = 0, tas_width = 0;
    uint32_t fingerprint = 0;
    if (!r.ReadPod(&depth) || !r.ReadPod(&memory_levels) ||
        !r.ReadPod(&tas_width) || !r.ReadPod(&fingerprint)) {
      return nullptr;
    }
    config.depth = depth;
    config.memory_levels = memory_levels;
    config.tas_width = tas_width;
    if (expected != nullptr && !(config == *expected)) return nullptr;
    // Pairing check: both sides must have opted in (non-zero) to bind.
    if (expected_fingerprint != 0 && fingerprint != 0 &&
        fingerprint != expected_fingerprint) {
      return nullptr;
    }
    if (config.depth < 1 || config.depth > 12 || config.memory_levels < 0 ||
        config.memory_levels > config.depth || config.tas_width < 1 ||
        config.tas_width > Tas::kMaxWidth) {
      return nullptr;
    }

    if (!r.ExpectTag(kTagGrid)) return nullptr;
    Rect space;
    if (!r.ReadPod(&space.min.x) || !r.ReadPod(&space.min.y) ||
        !r.ReadPod(&space.max.x) || !r.ReadPod(&space.max.y)) {
      return nullptr;
    }
    if (!(space.Width() > 0.0) || !(space.Height() > 0.0)) return nullptr;

    // Private restore ctor; components are filled below.
    std::unique_ptr<GatIndex> index(
        new GatIndex(config, GridGeometry::Restore(space, config.depth)));
    const MappedDiskTier* tier = disk.get();
    index->disk_ = std::move(disk);
    index->hicl_ = ParseHicl(r, config, tier, executor);
    if (index->hicl_ == nullptr) return nullptr;
    uint64_t itl_rows_required = 0;  // 1 + max trajectory ID the ITL emits
    index->itl_ = ParseItl(r, config, &itl_rows_required);
    if (index->itl_ == nullptr) return nullptr;
    index->tas_ = ParseTas(r, config);
    if (index->tas_ == nullptr) return nullptr;
    index->apl_ = ParseApl(r, tier, executor);
    if (index->apl_ == nullptr) return nullptr;
    if (!r.ExpectTag(kTagEnd)) return nullptr;

    // Cross-section consistency: every trajectory ID the ITL can emit as
    // a candidate must have a TAS row and an APL row — otherwise a load
    // would succeed but the first query would index out of bounds.
    const uint64_t rows = index->tas_->num_trajectories();
    if (index->apl_->num_trajectories() != rows) return nullptr;
    if (itl_rows_required > rows) return nullptr;
    index->build_seconds_ = timer.ElapsedMillis() / 1000.0;
    return index;
  }

 private:
  // ------------------------------------------------------------------ HICL
  static void SaveHicl(const Hicl& hicl, std::ostream& out) {
    WriteTag(out, kTagHicl);
    WritePod(out, static_cast<uint64_t>(hicl.memory_bytes_));
    WritePod(out, static_cast<uint64_t>(hicl.disk_bytes_));
    WritePod(out, static_cast<uint64_t>(hicl.num_activities()));
    for (const auto& cells : hicl.lists_) WriteVec(out, cells);
  }

  static std::unique_ptr<Hicl> ParseHicl(ByteReader& r, const GatConfig& config,
                                         const MappedDiskTier* tier,
                                         Executor* executor) {
    if (!r.ExpectTag(kTagHicl)) return nullptr;
    std::unique_ptr<Hicl> hicl(new Hicl());
    hicl->depth_ = config.depth;
    hicl->memory_levels_ = config.memory_levels;
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
    const size_t depth = static_cast<size_t>(config.depth);
    // Levels 1..memory_levels are RAM-resident (the paper's tier split).
    // The header's byte totals must be the build's, 4 bytes per code on
    // each tier: `memory_breakdown()` reports them.
    const auto in_memory = [&config, depth](size_t list) {
      return static_cast<int>(list % depth) < config.memory_levels;
    };
    uint64_t memory_total = 0, disk_total = 0;
    size_t heap_words = 0;  // the lists the heap image will hold
    hicl->lists_.resize(num_activities * depth);
    for (size_t i = 0; i < hicl->lists_.size(); ++i) {
      auto& cells = hicl->lists_[i];
      if (!r.ReadSpan(&cells)) return nullptr;
      (in_memory(i) ? memory_total : disk_total) += cells.size_bytes();
      if (tier == nullptr || in_memory(i)) {
        heap_words += snapshot_format::kCountWords + cells.size();
      }
    }
    if (memory_total != memory_bytes || disk_total != disk_bytes) {
      return nullptr;
    }
    // The sorted/bounds sweeps dominate warm-start CPU on large
    // snapshots and are independent per activity, so they fan out.
    const bool rows_ok = ValidateRows(
        executor, num_activities, [&hicl, depth](size_t row) {
          for (size_t level = 1; level <= depth; ++level) {
            const auto cells = hicl->lists_[row * depth + (level - 1)];
            // Contains() binary-searches these lists; codes must be
            // sorted and addressable within the 4^level cells of the
            // level.
            const uint64_t cell_count = uint64_t{1} << (2 * level);
            if (!std::is_sorted(cells.begin(), cells.end()) ||
                (!cells.empty() && cells.back() >= cell_count)) {
              return false;
            }
          }
          return true;
        });
    if (!rows_ok) return nullptr;
    hicl->memory_bytes_ = memory_bytes;
    hicl->disk_bytes_ = disk_bytes;
    // The heap image holds every list without a tier, and the memory
    // levels with one; the disk levels then stay spans into `file`.
    hicl->image_.resize(heap_words);
    uint32_t* out = hicl->image_.data();
    for (size_t i = 0; i < hicl->lists_.size(); ++i) {
      if (tier == nullptr || in_memory(i)) {
        CopyArray(&hicl->lists_[i], &out);
      }
    }
    hicl->tier_ = tier;
    return hicl;
  }

  // ------------------------------------------------------------------- ITL
  static void SaveItl(const Itl& itl, std::ostream& out) {
    WriteTag(out, kTagItl);
    WritePod(out, static_cast<uint64_t>(itl.MemoryBytes()));
    WritePod(out, static_cast<uint64_t>(itl.num_cells()));
    // Cells in ascending code order, each as its activities, its offsets
    // relative to its own first trajectory ID, and its trajectory IDs.
    std::vector<uint32_t> offsets;
    for (size_t c = 0; c < itl.num_cells(); ++c) {
      const uint32_t first_run = itl.cell_runs_[c];
      const uint32_t end_run = itl.cell_runs_[c + 1];
      const uint32_t base = itl.run_begin_[first_run];
      offsets.clear();
      for (uint32_t r = first_run; r <= end_run; ++r) {
        offsets.push_back(itl.run_begin_[r] - base);
      }
      WritePod(out, itl.codes_[c]);
      WriteVec(out, std::span<const ActivityId>(
                        itl.run_activity_.data() + first_run,
                        end_run - first_run));
      WriteVec(out, offsets);
      WriteVec(out, std::span<const TrajectoryId>(
                        itl.trajectories_.data() + base, offsets.back()));
    }
  }

  static std::unique_ptr<Itl> ParseItl(ByteReader& r, const GatConfig& config,
                                       uint64_t* rows_required) {
    if (!r.ExpectTag(kTagItl)) return nullptr;
    uint64_t memory_bytes = 0, num_cells = 0;
    // Per cell: a 4-byte code plus three 8-byte count words, minimum.
    if (!r.ReadPod(&memory_bytes) || !r.ReadPod(&num_cells) ||
        num_cells > r.Remaining() / 28u) {
      return nullptr;
    }
    const uint64_t leaf_cell_count = uint64_t{1} << (2 * config.depth);
    struct Cell {
      uint32_t code = 0;
      std::span<const ActivityId> activities;
      std::span<const uint32_t> offsets;
      std::span<const TrajectoryId> trajectories;
    };
    auto read_cell = [&r](Cell* cell) {
      return r.ReadPod(&cell->code) && r.ReadSpan(&cell->activities) &&
             r.ReadSpan(&cell->offsets) && r.ReadSpan(&cell->trajectories);
    };
    // First pass validates every cell and sizes the flat arrays; the
    // second copies them in, so the arrays are allocated exactly once.
    const size_t section_start = r.pos;
    uint64_t num_runs = 0, num_ids = 0;
    *rows_required = 0;
    int64_t previous_code = -1;
    for (uint64_t c = 0; c < num_cells; ++c) {
      Cell cell;
      // Codes strictly ascend: the lookup's binary search relies on it,
      // and it rules out duplicate cells.
      if (!read_cell(&cell) || cell.code >= leaf_cell_count ||
          int64_t{cell.code} <= previous_code) {
        return nullptr;
      }
      previous_code = cell.code;
      if (!OffsetsValid(cell.offsets, cell.activities.size(),
                        cell.trajectories.size()) ||
          !std::is_sorted(cell.activities.begin(), cell.activities.end())) {
        return nullptr;
      }
      for (TrajectoryId t : cell.trajectories) {
        *rows_required = std::max<uint64_t>(*rows_required, uint64_t{t} + 1);
      }
      num_runs += cell.activities.size();
      num_ids += cell.trajectories.size();
    }
    if (num_ids > std::numeric_limits<uint32_t>::max()) return nullptr;

    std::unique_ptr<Itl> itl(new Itl());
    itl->Reserve(num_cells, num_runs, num_ids);
    r.pos = section_start;
    for (uint64_t c = 0; c < num_cells; ++c) {
      Cell cell;
      read_cell(&cell);
      itl->AppendCell(cell.code, cell.activities, cell.offsets,
                      cell.trajectories);
    }
    // The header's total is what `memory_breakdown()` would report.
    if (itl->MemoryBytes() != memory_bytes) return nullptr;
    return itl;
  }

  // ------------------------------------------------------------------- TAS
  static void SaveTas(const Tas& tas, std::ostream& out) {
    WriteTag(out, kTagTas);
    WriteVec(out, tas.words_);
  }

  static std::unique_ptr<Tas> ParseTas(ByteReader& r, const GatConfig& config) {
    if (!r.ExpectTag(kTagTas)) return nullptr;
    std::unique_ptr<Tas> tas(new Tas());
    tas->row_words_ = 2 * static_cast<size_t>(config.tas_width);
    // The row count is implied: a word array that is not whole rows was
    // written at another width, or is damaged.
    std::span<const uint32_t> words;
    if (!r.ReadSpan(&words) || words.size() % tas->row_words_ != 0) {
      return nullptr;
    }
    tas->words_.assign(words.begin(), words.end());
    return tas;
  }

  // ------------------------------------------------------------------- APL
  static void SaveApl(const Apl& apl, std::ostream& out) {
    WriteTag(out, kTagApl);
    WritePod(out, static_cast<uint64_t>(apl.disk_bytes_));
    WritePod(out, static_cast<uint64_t>(apl.rows_.size()));
    for (const auto& row : apl.rows_) {
      WriteVec(out, row.activities);
      WriteVec(out, row.offsets);
      WriteVec(out, row.points);
    }
  }

  static std::unique_ptr<Apl> ParseApl(ByteReader& r,
                                       const MappedDiskTier* tier,
                                       Executor* executor) {
    if (!r.ExpectTag(kTagApl)) return nullptr;
    std::unique_ptr<Apl> apl(new Apl());
    uint64_t disk_bytes = 0, num_trajectories = 0;
    // Per row: three 8-byte count words, minimum.
    if (!r.ReadPod(&disk_bytes) || !r.ReadPod(&num_trajectories) ||
        num_trajectories > r.Remaining() / 24u) {
      return nullptr;
    }
    const size_t rows_start = r.pos;
    apl->rows_.resize(num_trajectories);
    uint64_t disk_total = 0;  // the build's accounting: 4 bytes per element
    for (auto& row : apl->rows_) {
      if (!r.ReadSpan(&row.activities) || !r.ReadSpan(&row.offsets) ||
          !r.ReadSpan(&row.points)) {
        return nullptr;
      }
      disk_total += row.activities.size_bytes() + row.offsets.size_bytes() +
                    row.points.size_bytes();
    }
    if (disk_total != disk_bytes) return nullptr;
    const bool rows_ok = ValidateRows(
        executor, apl->rows_.size(), [&apl](size_t i) {
          const auto& row = apl->rows_[i];
          return OffsetsValid(row.offsets, row.activities.size(),
                              row.points.size()) &&
                 std::is_sorted(row.activities.begin(), row.activities.end());
        });
    if (!rows_ok) return nullptr;
    apl->disk_bytes_ = disk_bytes;
    if (tier != nullptr) {
      apl->tier_ = tier;
      return apl;
    }
    // No tier: the rows are copied into the heap image, once.
    apl->image_.resize((r.pos - rows_start) / sizeof(uint32_t));
    uint32_t* out = apl->image_.data();
    for (auto& row : apl->rows_) {
      CopyArray(&row.activities, &out);
      CopyArray(&row.offsets, &out);
      CopyArray(&row.points, &out);
    }
    return apl;
  }
};

uint32_t DatasetFingerprint(const Dataset& dataset) {
  uint32_t crc = 0xFFFFFFFFu;
  auto add = [&crc](const void* p, size_t n) {
    crc = Crc32Update(crc, static_cast<const char*>(p), n);
  };
  const uint64_t n = dataset.size();
  add(&n, sizeof(n));
  for (const auto& tr : dataset.trajectories()) {
    const uint32_t points = static_cast<uint32_t>(tr.size());
    add(&points, sizeof(points));
    for (const auto& p : tr.points()) {
      add(&p.location.x, sizeof(p.location.x));
      add(&p.location.y, sizeof(p.location.y));
      const uint32_t acts = static_cast<uint32_t>(p.activities.size());
      add(&acts, sizeof(acts));
      if (acts > 0) add(p.activities.data(), acts * sizeof(ActivityId));
    }
  }
  crc ^= 0xFFFFFFFFu;
  return crc == 0 ? 1u : crc;  // reserve 0 for "not checked"
}

bool SaveSnapshot(const GatIndex& index, const std::string& path,
                  uint32_t dataset_fingerprint) {
  // Write-to-temp + rename: a crash mid-save or two processes priming the
  // same cache never leave a half-written file at `path` (the rename is
  // atomic on POSIX; losers of a race overwrite with an equivalent file).
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(kMagic, sizeof(kMagic));
    WritePod(out, kVersion);
    WritePod(out, uint32_t{0});  // CRC placeholder, patched below

    // Stream the payload straight to disk through the checksumming
    // buffer — no in-memory copy of the serialized index.
    Crc32OStreambuf crc_buf(out.rdbuf());
    std::ostream payload(&crc_buf);
    if (!SnapshotIo::SavePayload(index, payload, dataset_fingerprint) ||
        !payload.good() || !out.good()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
    out.seekp(8, std::ios::beg);
    WritePod(out, crc_buf.crc());
    if (!out.good()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

std::unique_ptr<GatIndex> LoadSnapshot(const std::string& path,
                                       const GatConfig* expected,
                                       uint32_t expected_fingerprint,
                                       Executor* executor,
                                       std::shared_ptr<BlockCache> cache) {
  Stopwatch timer;
  MappedFile file;
  if (!file.Open(path)) return nullptr;
  const std::span<const char> bytes{file.data(), file.size()};
  // Block checksums are recorded only for a mapped index, at its cache's
  // block size: it verifies every filled block against them.
  std::vector<uint32_t> block_crcs;
  const uint32_t payload_crc = SweepChecksums(
      bytes, cache != nullptr ? cache->block_bytes() : kSweepBlockBytes,
      cache != nullptr ? &block_crcs : nullptr, executor);
  // The tier exists before the parse because the disk sections are
  // wired to it; a rejected file unregisters it again on return. The
  // mapping moves into it, so `bytes` stays valid.
  std::unique_ptr<MappedDiskTier> disk;
  if (cache != nullptr) {
    disk = std::make_unique<MappedDiskTier>(std::move(file), std::move(cache),
                                            std::move(block_crcs));
  }
  return SnapshotIo::Parse(bytes, payload_crc, expected, expected_fingerprint,
                           executor, std::move(disk), timer);
}

}  // namespace gat
