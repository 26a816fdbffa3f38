// Joins the client and server spans of one request without changing a
// byte on the wire: both processes key a read by a hash of its query
// and kind plus how many times that pair was sent to this server
// before, and an ingest batch by its sequence number. The client never
// has the same (query, kind) in flight on two connections at once, so
// both sides count occurrences in the same order.
#ifndef GATW_REQUEST_KEYS_H_
#define GATW_REQUEST_KEYS_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gat/core/result_set.h"
#include "gat/model/query.h"

namespace gatw {

uint64_t ReadFingerprint(const gat::Query& query, gat::QueryKind kind);

class RequestKeys {
 public:
  /// Counts one more send of `fingerprint` and returns its key.
  uint64_t NextRead(uint64_t fingerprint);
  /// The key of the latest send of `fingerprint`.
  uint64_t CurrentRead(uint64_t fingerprint);
  uint64_t NextIngest();
  /// Forgets every count (a fresh server starts from zero).
  void Reset();

 private:
  std::mutex mu_;
  std::unordered_map<uint64_t, uint64_t> sends_;  // guarded by mu_
  uint64_t ingests_ = 0;                          // guarded by mu_
};

/// The distinct reads the traced server answered while recording (the
/// storage comparison replays them against in-memory shard indexes).
void NoteServedRead(const gat::Query& query, gat::QueryKind kind);
std::vector<std::pair<gat::Query, gat::QueryKind>> ServedReads();

}  // namespace gatw

#endif  // GATW_REQUEST_KEYS_H_
