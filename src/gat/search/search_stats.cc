#include "gat/search/search_stats.h"

#include <cstdio>

namespace gat {

std::string SearchStats::ToString() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "cand=%llu tas_pruned=%llu act_rej=%llu mib_rej=%llu "
                "dist=%llu popped=%llu pushed=%llu rounds=%llu disk=%llu "
                "%.3fms",
                static_cast<unsigned long long>(candidates_retrieved),
                static_cast<unsigned long long>(tas_pruned),
                static_cast<unsigned long long>(activity_rejected),
                static_cast<unsigned long long>(mib_rejected),
                static_cast<unsigned long long>(distance_computations),
                static_cast<unsigned long long>(nodes_popped),
                static_cast<unsigned long long>(heap_pushes),
                static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(disk_reads), elapsed_ms);
  std::string out = buf;
  if (index_pins > 0) {
    std::snprintf(buf, sizeof(buf), " pins=%llu",
                  static_cast<unsigned long long>(index_pins));
    out += buf;
  }
  if (deadline_skips > 0) {
    std::snprintf(buf, sizeof(buf), " dl_skips=%llu",
                  static_cast<unsigned long long>(deadline_skips));
    out += buf;
  }
  if (block_hits + blocks_read > 0) {
    std::snprintf(buf, sizeof(buf), " blocks(hit/miss)=%llu/%llu",
                  static_cast<unsigned long long>(block_hits),
                  static_cast<unsigned long long>(blocks_read));
    out += buf;
  }
  return out;
}

SearchStats& SearchStats::operator+=(const SearchStats& other) {
  candidates_retrieved += other.candidates_retrieved;
  tas_pruned += other.tas_pruned;
  activity_rejected += other.activity_rejected;
  mib_rejected += other.mib_rejected;
  distance_computations += other.distance_computations;
  nodes_popped += other.nodes_popped;
  heap_pushes += other.heap_pushes;
  rounds += other.rounds;
  disk_reads += other.disk_reads;
  block_hits += other.block_hits;
  blocks_read += other.blocks_read;
  index_pins += other.index_pins;
  deadline_skips += other.deadline_skips;
  elapsed_ms += other.elapsed_ms;
  return *this;
}

}  // namespace gat
