#include "gat/storage/disk_tier.h"

namespace gat {

void SimulatedDiskTier::Fetch(uint64_t /*offset*/, uint64_t /*bytes*/,
                              DiskAccessCounter* counter) const {
  if (counter != nullptr) counter->RecordRead();
}

const SimulatedDiskTier* SimulatedDiskTier::Instance() {
  static const SimulatedDiskTier tier;
  return &tier;
}

}  // namespace gat
