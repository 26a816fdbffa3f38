#include "gat/storage/mapped_snapshot.h"

#include <algorithm>
#include <span>

#include "gat/common/check.h"
#include "gat/index/snapshot.h"
#include "gat/index/snapshot_format.h"
#include "gat/util/stopwatch.h"

namespace gat {

using snapshot_format::Crc32;
using snapshot_format::Crc32Update;
using snapshot_format::kHeaderBytes;

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
// MappedSnapshot
// --------------------------------------------------------------------------

std::unique_ptr<MappedSnapshot> MappedSnapshot::Load(
    const std::string& path, const MappedSnapshotOptions& options) {
  Stopwatch timer;
  std::unique_ptr<MappedSnapshot> snap(new MappedSnapshot());
  if (!snap->file_.Open(path)) return nullptr;
  const char* data = snap->file_.data();
  const size_t size = snap->file_.size();

  // Cache first: its block size fixes the per-block checksum granularity.
  if (options.cache != nullptr) {
    snap->cache_ = options.cache;
  } else {
    snap->owned_cache_ = std::make_unique<BlockCache>(options.cache_config);
    snap->cache_ = snap->owned_cache_.get();
  }

  // One sweep over the mapping does double duty: the whole-payload CRC
  // the parser gates on (identical to LoadSnapshot's) and the per-block
  // checksums the tier verifies on every cache fill. This is the only
  // full read the cold start performs — nothing disk-resident is
  // materialized. With an executor the sweep fans out as contiguous
  // block-range tasks and the chunk CRCs are folded with Crc32Combine:
  // every checksum — and therefore the accept/reject decision — is
  // bit-identical to the sequential pass, but the per-file load is no
  // longer single-core.
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

  // The tier exists before the parse because the disk sections are
  // wired to it; a rejected file unregisters it again on return.
  snap->tier_ = std::make_unique<MappedDiskTier>(&snap->file_, snap->cache_,
                                                 std::move(block_crcs));
  snap->index_ = ParseSnapshot({data, size}, payload_crc, options.expected,
                               options.expected_fingerprint, executor,
                               snap->tier_.get(), timer);
  if (snap->index_ == nullptr) return nullptr;
  snap->load_seconds_ = snap->index_->build_seconds();
  return snap;
}

}  // namespace gat
