#include "request_keys.h"

#include <cstring>

#include "spans.h"

namespace gatw {
namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t Bits(double d) {
  uint64_t out = 0;
  std::memcpy(&out, &d, sizeof(out));
  return out;
}

// splitmix64's finalizer: every input bit reaches every output bit.
uint64_t Avalanche(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Keeps keys non-zero (0 means "no request") and clear of the ingest bit.
uint64_t ReadKey(uint64_t fingerprint, uint64_t occurrence) {
  return (Avalanche(fingerprint ^ Avalanche(occurrence)) >> 1) | 1;
}

std::mutex g_served_mu;
std::unordered_map<uint64_t, std::pair<gat::Query, gat::QueryKind>>
    g_served;  // guarded by g_served_mu

}  // namespace

uint64_t ReadFingerprint(const gat::Query& query, gat::QueryKind kind) {
  uint64_t h = Mix(0, static_cast<uint64_t>(kind));
  for (const gat::QueryPoint& point : query.points()) {
    h = Mix(h, Bits(point.location.x));
    h = Mix(h, Bits(point.location.y));
    for (const gat::ActivityId a : point.activities) h = Mix(h, a);
    h = Mix(h, point.activities.size());
  }
  return h;
}

uint64_t RequestKeys::NextRead(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  return ReadKey(fingerprint, ++sends_[fingerprint]);
}

uint64_t RequestKeys::CurrentRead(uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  return ReadKey(fingerprint, sends_[fingerprint]);
}

uint64_t RequestKeys::NextIngest() {
  std::lock_guard<std::mutex> lock(mu_);
  return (1ULL << 63) | ++ingests_;
}

void RequestKeys::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  sends_.clear();
  ingests_ = 0;
}

void NoteServedRead(const gat::Query& query, gat::QueryKind kind) {
  Untracked quiet;
  std::lock_guard<std::mutex> lock(g_served_mu);
  g_served.try_emplace(ReadFingerprint(query, kind), query, kind);
}

std::vector<std::pair<gat::Query, gat::QueryKind>> ServedReads() {
  std::lock_guard<std::mutex> lock(g_served_mu);
  std::vector<std::pair<gat::Query, gat::QueryKind>> out;
  out.reserve(g_served.size());
  for (const auto& [fingerprint, read] : g_served) out.push_back(read);
  return out;
}

}  // namespace gatw
