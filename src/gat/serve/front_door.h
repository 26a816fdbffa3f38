#ifndef GAT_SERVE_FRONT_DOOR_H_
#define GAT_SERVE_FRONT_DOOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "gat/common/clock.h"
#include "gat/common/query_context.h"
#include "gat/engine/query_engine.h"
#include "gat/live/checkin.h"
#include "gat/serve/token_bucket.h"

namespace gat {

class LiveIndex;

/// Per-tenant admission budget: sustained rate plus burst headroom.
struct TenantQuota {
  double tokens_per_sec = 100.0;
  double burst = 50.0;
};

/// FrontDoor knobs.
struct FrontDoorOptions {
  /// Time source for admission refill and deadline checks. nullptr =
  /// SteadyClock::Default() (real time). Tests inject a ManualClock for
  /// deterministic outcomes.
  const Clock* clock = nullptr;

  /// Budget for tenants without an explicit entry.
  TenantQuota default_quota;

  /// Per-tenant overrides, looked up by tenant ID.
  std::vector<std::pair<uint32_t, TenantQuota>> tenant_quotas;

  /// Write-side admission: ingest batches draw from a SEPARATE bucket
  /// pool (one write bucket per tenant) so a write burst can never
  /// starve the same tenant's queries or vice versa. The bucket is
  /// charged one token per check-in (minimum one per batch).
  TenantQuota default_write_quota;
};

/// One request at the front door: a tenant's query batch plus its
/// serving envelope (priority class and absolute deadline).
///
/// The request OWNS its queries. A decoded wire request has no
/// caller-side vector to borrow, so ownership is the only shape that
/// survives the socket boundary; in-process callers move their batch in
/// (or keep the request alive and reuse it — Serve takes const-ref and
/// never consumes the payload).
struct ServeRequest {
  uint32_t tenant = 0;
  RequestPriority priority = RequestPriority::kInteractive;
  /// Absolute deadline in the front door's clock domain; 0 = none.
  uint64_t deadline_micros = 0;
  std::vector<Query> queries;
  size_t k = 10;
  QueryKind kind = QueryKind::kAtsq;
};

/// Request-level outcome. The numeric values are wire-stable: they are
/// encoded verbatim by gat/net and documented in docs/WIRE_PROTOCOL.md.
/// Add new values at the end; never renumber.
enum class ServeStatus : uint8_t {
  kOk = 0,
  kShed = 1,              // refused at admission; no engine work done
  kDeadlineExceeded = 2,  // admitted but expired; results are empty
};

/// Which admission policy refused a shed request. Machine-readable so
/// the wire layer never invents error strings. Values are wire-stable
/// (see docs/WIRE_PROTOCOL.md); add at the end, never renumber.
enum class ShedReason : uint8_t {
  kNone = 0,
  /// The tenant's token bucket had no token at admission time.
  /// ServeResult::shed_tenant names the tenant whose budget it was.
  kTenantRateLimit = 1,
  /// The tenant's WRITE bucket could not cover the ingest batch.
  /// IngestResult::shed_tenant names the tenant whose budget it was.
  kWriteRateLimit = 2,
};

struct ServeResult {
  ServeStatus status = ServeStatus::kOk;
  /// Machine-readable shed detail: which policy refused the request and
  /// whose budget was exhausted. kNone unless status == kShed.
  ShedReason shed_reason = ShedReason::kNone;
  uint32_t shed_tenant = 0;
  /// Populated only when status == kOk. Deadline-exceeded requests
  /// carry the batch's stats (the work burnt before expiry) but no
  /// results.
  BatchResult batch;
};

/// One write batch at the front door: a tenant's check-ins.
struct IngestRequest {
  uint32_t tenant = 0;
  std::vector<CheckIn> checkins;
};

/// Ingest-level outcome. Values are wire-stable (kIngestAck encodes
/// them verbatim; see docs/WIRE_PROTOCOL.md) — add at the end, never
/// renumber.
enum class IngestStatus : uint8_t {
  kOk = 0,
  kShed = 1,         // refused at write admission; nothing applied
  kInvalid = 2,      // failed frame validation; nothing applied
  kUnavailable = 3,  // no live index attached; nothing applied
};

struct IngestResult {
  IngestStatus status = IngestStatus::kOk;
  /// kWriteRateLimit when status == kShed, kNone otherwise.
  ShedReason shed_reason = ShedReason::kNone;
  uint32_t shed_tenant = 0;
  /// Check-ins applied: the whole batch on kOk, zero otherwise
  /// (ingestion is all-or-nothing at every layer).
  uint64_t accepted = 0;
  /// Cumulative LiveIndex watermark after this batch (kOk only): the
  /// freshness handle a client can correlate with query results.
  uint64_t watermark = 0;
};

/// Monotonic front-door counters. admitted + shed = total offered;
/// completed + deadline_misses = admitted (every admitted request ends
/// in exactly one of the two). On the write side:
/// ingest_admitted + ingest_shed = ingest batches offered;
/// ingest_failed counts admitted batches refused by validation or the
/// missing live index; checkins_accepted sums the applied check-ins.
struct FrontDoorCounters {
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t completed = 0;
  uint64_t deadline_misses = 0;
  uint64_t ingest_admitted = 0;
  uint64_t ingest_shed = 0;
  uint64_t ingest_failed = 0;
  uint64_t checkins_accepted = 0;
};

/// The serving front door: per-tenant token-bucket admission, deadline
/// propagation into the engine, and priority classes — everything that
/// stands between "a request arrived" and "executor tasks exist".
///
/// The contract that makes overload survivable: a shed request performs
/// ZERO engine work. `TryAdmit` consults only the tenant's bucket — no
/// task is created, no shard pinned, no block read — so shedding
/// 10x overload costs a mutex and a multiply per refusal, and
/// `Executor::tasks_submitted()` provably does not move (the soak tests
/// assert exactly that). Deadlines are enforced next: an admitted
/// request whose deadline already passed is refused before the engine
/// sees it, and one that expires mid-batch comes back empty
/// (kDeadlineExceeded), never with partial results. The request's
/// priority class rides the QueryContext into the executor's priority
/// queues, so bulk traffic yields the pool to interactive traffic.
///
/// Thread-safety: Serve/TryAdmit/ServeAdmitted may be called
/// concurrently from any number of threads; the bucket map has its own
/// mutex and the engine is already concurrent-safe.
class FrontDoor {
 public:
  /// `engine` is borrowed and must outlive the front door.
  FrontDoor(const QueryEngine& engine, FrontDoorOptions options = {});

  /// Admission + execution. Equivalent to TryAdmit followed (on
  /// success) by ServeAdmitted.
  ServeResult Serve(const ServeRequest& request);

  /// Admission only: charges the tenant's bucket at the current clock.
  /// False = shed (counted); the caller must not run the request.
  bool TryAdmit(uint32_t tenant);

  /// Executes an already-admitted request: deadline check (zero engine
  /// work when already expired), then the engine batch under the
  /// request's QueryContext.
  ServeResult ServeAdmitted(const ServeRequest& request);

  /// Attaches the write target. Ingest without one reports
  /// kUnavailable; the index is borrowed and must outlive the front
  /// door. Call before serving traffic (not synchronized against
  /// in-flight Ingest calls).
  void AttachLiveIndex(LiveIndex* live) { live_ = live; }

  /// Write admission + application. A shed batch performs ZERO index
  /// work — the same overload contract as the query side, enforced by
  /// a separate per-tenant write bucket charged one token per check-in.
  /// Admitted batches apply atomically through `LiveIndex::Ingest`
  /// (kInvalid when frame validation refuses them).
  IngestResult Ingest(const IngestRequest& request);

  FrontDoorCounters counters() const;

  const Clock& clock() const { return *clock_; }

 private:
  TokenBucket& BucketForLocked(uint32_t tenant);
  TokenBucket& WriteBucketForLocked(uint32_t tenant);

  const QueryEngine& engine_;
  const Clock* clock_;
  FrontDoorOptions options_;
  LiveIndex* live_ = nullptr;

  mutable std::mutex mu_;
  std::map<uint32_t, TokenBucket> buckets_;
  std::map<uint32_t, TokenBucket> write_buckets_;
  FrontDoorCounters counters_;
};

}  // namespace gat

#endif  // GAT_SERVE_FRONT_DOOR_H_
