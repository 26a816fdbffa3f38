#include "gat/index/tas.h"

#include <array>

#include "gat/common/check.h"

namespace gat {

Tas::Tas(const std::vector<std::vector<ActivityId>>& activity_sets, int width)
    : row_words_(2 * static_cast<size_t>(width)) {
  GAT_CHECK(width >= 1 && width <= kMaxWidth);
  words_.assign(activity_sets.size() * row_words_, 0);
  for (size_t t = 0; t < activity_sets.size(); ++t) {
    for (ActivityId a : activity_sets[t]) {
      SetBits(a, words_.data() + t * row_words_);
    }
  }
}

std::array<uint32_t, 2> Tas::Bits(ActivityId a) const {
  // A fixed 64-bit multiplicative mix (splitmix64's finalizer), not
  // std::hash, so sketch bits and snapshot bytes are the same everywhere.
  // Each 32-bit half picks one of the row's 32·row_words_ bits by a
  // multiply-shift range reduction.
  uint64_t h = (uint64_t{a} + 1) * 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  h ^= h >> 31;
  const uint64_t row_bits = 32 * row_words_;
  return {static_cast<uint32_t>(((h & 0xFFFFFFFFu) * row_bits) >> 32),
          static_cast<uint32_t>(((h >> 32) * row_bits) >> 32)};
}

void Tas::SetBits(ActivityId a, uint32_t* row) const {
  for (const uint32_t bit : Bits(a)) row[bit / 32] |= uint32_t{1} << (bit % 32);
}

bool Tas::MightContain(TrajectoryId t, ActivityId a) const {
  GAT_DCHECK(t < num_trajectories());
  const uint32_t* row = words_.data() + t * row_words_;
  for (const uint32_t bit : Bits(a)) {
    if ((row[bit / 32] >> (bit % 32) & 1u) == 0) return false;
  }
  return true;
}

bool Tas::MightContainAll(TrajectoryId t,
                          const std::vector<ActivityId>& activities) const {
  for (ActivityId a : activities) {
    if (!MightContain(t, a)) return false;
  }
  return true;
}

std::vector<uint32_t> Tas::Mask(std::span<const ActivityId> activities) const {
  std::vector<uint32_t> mask(row_words_, 0);
  for (ActivityId a : activities) SetBits(a, mask.data());
  return mask;
}

}  // namespace gat
