#include "gat/serve/front_door.h"

#include <algorithm>

#include "gat/common/check.h"
#include "gat/live/live_index.h"

namespace gat {

FrontDoor::FrontDoor(const QueryEngine& engine, FrontDoorOptions options)
    : engine_(engine),
      clock_(options.clock != nullptr ? options.clock
                                      : &SteadyClock::Default()),
      options_(std::move(options)) {}

TokenBucket& FrontDoor::BucketForLocked(uint32_t tenant) {
  auto it = buckets_.find(tenant);
  if (it != buckets_.end()) return it->second;
  TenantQuota quota = options_.default_quota;
  for (const auto& entry : options_.tenant_quotas) {
    if (entry.first == tenant) {
      quota = entry.second;
      break;
    }
  }
  return buckets_
      .emplace(tenant, TokenBucket(quota.tokens_per_sec, quota.burst))
      .first->second;
}

TokenBucket& FrontDoor::WriteBucketForLocked(uint32_t tenant) {
  auto it = write_buckets_.find(tenant);
  if (it != write_buckets_.end()) return it->second;
  TenantQuota quota = options_.default_write_quota;
  for (const auto& entry : options_.tenant_write_quotas) {
    if (entry.first == tenant) {
      quota = entry.second;
      break;
    }
  }
  return write_buckets_
      .emplace(tenant, TokenBucket(quota.tokens_per_sec, quota.burst))
      .first->second;
}

bool FrontDoor::TryAdmit(uint32_t tenant) {
  const uint64_t now = clock_->NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  if (BucketForLocked(tenant).TryAcquire(now)) {
    ++counters_.admitted;
    return true;
  }
  ++counters_.shed;
  return false;
}

ServeResult FrontDoor::ServeAdmitted(const ServeRequest& request) {
  ServeResult out;

  QueryContext context;
  context.clock = clock_;
  context.deadline_micros = request.deadline_micros;
  context.priority = request.priority;

  // Deadline gate before the engine: a request that is already dead
  // creates no tasks, pins nothing, reads no blocks.
  if (context.Expired()) {
    out.status = ServeStatus::kDeadlineExceeded;
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.deadline_misses;
    return out;
  }

  BatchResult batch =
      engine_.Run(request.queries, request.k, request.kind, &context);
  if (batch.deadline_exceeded > 0) {
    // Expired mid-batch. Never partial results: the whole request
    // reports deadline-exceeded with empty answers. The stats stay —
    // they record the work the miss actually burnt.
    for (ResultList& r : batch.results) r.clear();
    out.status = ServeStatus::kDeadlineExceeded;
    out.batch = std::move(batch);
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.deadline_misses;
    return out;
  }

  out.status = ServeStatus::kOk;
  out.batch = std::move(batch);
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.completed;
  return out;
}

ServeResult FrontDoor::Serve(const ServeRequest& request) {
  if (!TryAdmit(request.tenant)) {
    ServeResult out;
    out.status = ServeStatus::kShed;
    out.shed_reason = ShedReason::kTenantRateLimit;
    out.shed_tenant = request.tenant;
    return out;
  }
  return ServeAdmitted(request);
}

IngestResult FrontDoor::Ingest(const IngestRequest& request) {
  IngestResult out;
  // Write admission first, shed-is-free: a refused batch touches no
  // index structure, takes no writer lock, copies nothing. The bucket
  // charge is the batch size — per-check-in cost, so one huge batch
  // cannot launder past a rate meant for check-ins.
  const double cost = std::max<double>(1.0, request.checkins.size());
  const uint64_t now = clock_->NowMicros();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!WriteBucketForLocked(request.tenant).TryAcquire(now, cost)) {
      ++counters_.ingest_shed;
      out.status = IngestStatus::kShed;
      out.shed_reason = ShedReason::kWriteRateLimit;
      out.shed_tenant = request.tenant;
      return out;
    }
    ++counters_.ingest_admitted;
  }

  if (live_ == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.ingest_failed;
    out.status = IngestStatus::kUnavailable;
    return out;
  }
  uint64_t watermark = 0;
  if (!live_->Ingest(request.checkins, &watermark)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.ingest_failed;
    out.status = IngestStatus::kInvalid;
    return out;
  }
  out.status = IngestStatus::kOk;
  out.accepted = request.checkins.size();
  out.watermark = watermark;
  std::lock_guard<std::mutex> lock(mu_);
  counters_.checkins_accepted += out.accepted;
  return out;
}

FrontDoorCounters FrontDoor::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace gat
