#include "gat/storage/mapped_disk_tier.h"

#include <algorithm>
#include <utility>

#include "gat/common/check.h"
#include "gat/index/snapshot_format.h"

namespace gat {

MappedDiskTier::MappedDiskTier(MappedFile file,
                               std::shared_ptr<BlockCache> cache,
                               std::vector<uint32_t> block_crcs)
    : file_(std::move(file)),
      cache_(std::move(cache)),
      token_(cache_->RegisterFile()),
      block_crcs_(std::move(block_crcs)) {}

MappedDiskTier::~MappedDiskTier() { cache_->Unregister(token_); }

void MappedDiskTier::ReadBlock(uint64_t block) const {
  const uint32_t bs = cache_->block_bytes();
  const uint64_t start = block * bs;
  GAT_CHECK(block < block_crcs_.size());
  const size_t len =
      std::min<uint64_t>(bs, static_cast<uint64_t>(file_.size()) - start);
  // The real read: every byte of the block goes through the CPU (the
  // kernel faults the pages in on first touch) and must still match the
  // checksum recorded at map time — media/bit rot under an actively
  // served mapping is a hard failure, not a subtly wrong answer.
  GAT_CHECK(snapshot_format::Crc32(file_.data() + start, len) ==
            block_crcs_[block]);
}

void MappedDiskTier::ReadBlocks(std::span<const char> extent,
                                DiskAccessCounter* counter) const {
  if (extent.empty()) return;
  GAT_DCHECK(extent.data() >= file_.data() &&
             extent.data() + extent.size() <= file_.data() + file_.size());
  const uint64_t offset = static_cast<uint64_t>(extent.data() - file_.data());
  const uint32_t bs = cache_->block_bytes();
  const uint64_t first = offset / bs;
  const uint64_t last = (offset + extent.size() - 1) / bs;
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

}  // namespace gat
