// Trace hooks of the traced benchmark binary (gatw_bench_traced only).
//
// Two mechanisms, both in the benchmark's own files, neither touching
// the library:
//
//  * A counting global `operator new`, so every allocation is charged
//    to the innermost span of the allocating thread (spans.h).
//  * Link-time interposition (`ld --wrap=<symbol>`, set up in
//    CMakeLists.txt): every call that one library object makes into
//    another layer's public function below lands in `__wrap_<symbol>`,
//    which opens a span and calls the original through
//    `__real_<symbol>`. Only calls that cross an object-file boundary
//    are wrapped, which is exactly a call from one layer into the next.
//    A renamed or re-signatured function fails the traced link with an
//    undefined `__real_` reference instead of silently losing its span.
//
// `TaskGroup::Submit` is wrapped too: it hands the submitting thread's
// innermost span to the task, so shard sweeps and query tasks on other
// executor workers keep their parent.
//
// The asm labels below are the Itanium-mangled names of the wrapped
// functions; a member function is declared as a free function taking
// `this` first, which is the same calling convention.

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gat/engine/executor.h"
#include "gat/engine/query_engine.h"
#include "gat/live/live_index.h"
#include "gat/net/session.h"
#include "gat/search/gat_search.h"
#include "gat/serve/front_door.h"
#include "gat/shard/sharded_searcher.h"
#include "request_keys.h"
#include "spans.h"

// ---------------------------------------------------------------- new

void* operator new(std::size_t size) {
  gatw::NoteAllocation(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  gatw::NoteAllocation(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  gatw::NoteAllocation(size);
  void* p = nullptr;
  const size_t alignment =
      std::max(static_cast<size_t>(align), sizeof(void*));
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) == 0) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

// ----------------------------------------------------------- wrappers

#define GATW_REAL(sym) __asm__("__real_" sym)
#define GATW_WRAP(sym) __asm__("__wrap_" sym)

#define SYM_DISPATCH                                                      \
  "_ZN3gat4wire16TryServeFastPathERNS_9FrontDoorERKNS_12ServeRequestEPNSt7" \
  "__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define SYM_FRAME \
  "_ZN3gat4wire18ServeAdmittedFrameB5cxx11ERNS_9FrontDoorERKNS_12ServeRequestE"
#define SYM_INGEST_FRAME \
  "_ZN3gat4wire11IngestFrameB5cxx11ERNS_9FrontDoorERKNS_13IngestRequestE"
#define SYM_ADMIT "_ZN3gat9FrontDoor8TryAdmitEj"
#define SYM_SERVE "_ZN3gat9FrontDoor13ServeAdmittedERKNS_12ServeRequestE"
#define SYM_DOOR_INGEST "_ZN3gat9FrontDoor6IngestERKNS_13IngestRequestE"
#define SYM_RUN                                                          \
  "_ZNK3gat11QueryEngine3RunERKSt6vectorINS_5QueryESaIS2_EEmNS_9QueryKind" \
  "EPKNS_12QueryContextE"
#define SYM_LIVE_INGEST \
  "_ZN3gat9LiveIndex6IngestESt4spanIKNS_7CheckInELm18446744073709551615EEPm"
#define SYM_GENERATION                                                     \
  "_ZNK3gat15ShardedSearcher16SearchGenerationERKNS_15ShardGenerationERKNS" \
  "_5QueryEmNS_9QueryKindEPNS_11SearchStatsEPKNS_12QueryContextE"
#define SYM_SHARD_SEARCH                                                  \
  "_ZNK3gat11GatSearcher6SearchERKNS_5QueryEmNS_9QueryKindEPNS_11Search" \
  "StatsEPKNS_12QueryContextE"
#define SYM_SUBMIT "_ZN3gat9TaskGroup6SubmitESt8functionIFvvEE"

using gat::FrontDoor;
using gat::IngestRequest;
using gat::IngestResult;
using gat::Query;
using gat::QueryContext;
using gat::QueryKind;
using gat::ResultList;
using gat::SearchStats;
using gat::ServeRequest;
using gat::ServeResult;
using gatw::Layer;
using gatw::Op;
using gatw::Scope;

// The originals, reached through the linker.
gat::wire::DispatchOutcome RealDispatch(FrontDoor&, const ServeRequest&,
                                        std::string*) GATW_REAL(SYM_DISPATCH);
std::string RealFrame(FrontDoor&, const ServeRequest&) GATW_REAL(SYM_FRAME);
std::string RealIngestFrame(FrontDoor&, const IngestRequest&)
    GATW_REAL(SYM_INGEST_FRAME);
bool RealAdmit(FrontDoor*, uint32_t) GATW_REAL(SYM_ADMIT);
ServeResult RealServe(FrontDoor*, const ServeRequest&) GATW_REAL(SYM_SERVE);
IngestResult RealDoorIngest(FrontDoor*, const IngestRequest&)
    GATW_REAL(SYM_DOOR_INGEST);
gat::BatchResult RealRun(const gat::QueryEngine*, const std::vector<Query>&,
                         size_t, QueryKind, const QueryContext*)
    GATW_REAL(SYM_RUN);
bool RealLiveIngest(gat::LiveIndex*, std::span<const gat::CheckIn>,
                    uint64_t*) GATW_REAL(SYM_LIVE_INGEST);
ResultList RealGeneration(const gat::ShardedSearcher*,
                          const gat::ShardGeneration&, const Query&, size_t,
                          QueryKind, SearchStats*, const QueryContext*)
    GATW_REAL(SYM_GENERATION);
ResultList RealShardSearch(const gat::GatSearcher*, const Query&, size_t,
                           QueryKind, SearchStats*, const QueryContext*)
    GATW_REAL(SYM_SHARD_SEARCH);
void RealSubmit(gat::TaskGroup*, std::function<void()>) GATW_REAL(SYM_SUBMIT);

namespace {

// Server-side request keys; the client keys its sends the same way.
gatw::RequestKeys g_keys;

// The key of the request this thread just admitted, until its task is
// submitted.
thread_local uint64_t t_dispatched = 0;

uint64_t ReadKey(const ServeRequest& request, bool first_contact) {
  if (request.queries.empty()) return 0;
  gatw::Untracked quiet;  // the key map's nodes are the tracer's own
  const uint64_t fingerprint =
      gatw::ReadFingerprint(request.queries.front(), request.kind);
  return first_contact ? g_keys.NextRead(fingerprint)
                       : g_keys.CurrentRead(fingerprint);
}

}  // namespace

gat::wire::DispatchOutcome WrapDispatch(FrontDoor& door,
                                        const ServeRequest& request,
                                        std::string* frame)
    GATW_WRAP(SYM_DISPATCH);
gat::wire::DispatchOutcome WrapDispatch(FrontDoor& door,
                                        const ServeRequest& request,
                                        std::string* frame) {
  const uint64_t key = ReadKey(request, true);
  gat::wire::DispatchOutcome outcome;
  {
    Scope scope(Layer::kNet, Op::kDispatch, key);
    outcome = RealDispatch(door, request, frame);
  }
  // The server submits an admitted request's task right after this
  // call, on this thread; WrapSubmit times that task's wait.
  if (outcome == gat::wire::DispatchOutcome::kNeedsEngine) {
    t_dispatched = key;
  }
  return outcome;
}

std::string WrapFrame(FrontDoor& door, const ServeRequest& request)
    GATW_WRAP(SYM_FRAME);
std::string WrapFrame(FrontDoor& door, const ServeRequest& request) {
  if (gatw::Recording() && !request.queries.empty()) {
    gatw::NoteServedRead(request.queries.front(), request.kind);
  }
  Scope scope(Layer::kNet, Op::kFrame, ReadKey(request, false));
  return RealFrame(door, request);
}

std::string WrapIngestFrame(FrontDoor& door, const IngestRequest& request)
    GATW_WRAP(SYM_INGEST_FRAME);
std::string WrapIngestFrame(FrontDoor& door, const IngestRequest& request) {
  Scope scope(Layer::kNet, Op::kIngestFrame, g_keys.NextIngest());
  return RealIngestFrame(door, request);
}

bool WrapAdmit(FrontDoor* door, uint32_t tenant) GATW_WRAP(SYM_ADMIT);
bool WrapAdmit(FrontDoor* door, uint32_t tenant) {
  Scope scope(Layer::kServe, Op::kAdmit);
  return RealAdmit(door, tenant);
}

ServeResult WrapServe(FrontDoor* door, const ServeRequest& request)
    GATW_WRAP(SYM_SERVE);
ServeResult WrapServe(FrontDoor* door, const ServeRequest& request) {
  Scope scope(Layer::kServe, Op::kServe);
  return RealServe(door, request);
}

IngestResult WrapDoorIngest(FrontDoor* door, const IngestRequest& request)
    GATW_WRAP(SYM_DOOR_INGEST);
IngestResult WrapDoorIngest(FrontDoor* door, const IngestRequest& request) {
  Scope scope(Layer::kServe, Op::kIngest);
  return RealDoorIngest(door, request);
}

gat::BatchResult WrapRun(const gat::QueryEngine* engine,
                         const std::vector<Query>& queries, size_t k,
                         QueryKind kind, const QueryContext* context)
    GATW_WRAP(SYM_RUN);
gat::BatchResult WrapRun(const gat::QueryEngine* engine,
                         const std::vector<Query>& queries, size_t k,
                         QueryKind kind, const QueryContext* context) {
  Scope scope(Layer::kEngine, Op::kRun);
  gat::BatchResult batch = RealRun(engine, queries, k, kind, context);
  double query_ms = 0.0;
  for (const gat::QueryLatency& latency : batch.latencies) {
    query_ms += latency.wall_ms;
  }
  scope.SetA(batch.wall_ms);
  scope.SetB(query_ms);
  return batch;
}

bool WrapLiveIngest(gat::LiveIndex* live, std::span<const gat::CheckIn> batch,
                    uint64_t* watermark) GATW_WRAP(SYM_LIVE_INGEST);
bool WrapLiveIngest(gat::LiveIndex* live, std::span<const gat::CheckIn> batch,
                    uint64_t* watermark) {
  Scope scope(Layer::kLive, Op::kLiveIngest);
  return RealLiveIngest(live, batch, watermark);
}

ResultList WrapGeneration(const gat::ShardedSearcher* searcher,
                          const gat::ShardGeneration& generation,
                          const Query& query, size_t k, QueryKind kind,
                          SearchStats* stats, const QueryContext* context)
    GATW_WRAP(SYM_GENERATION);
ResultList WrapGeneration(const gat::ShardedSearcher* searcher,
                          const gat::ShardGeneration& generation,
                          const Query& query, size_t k, QueryKind kind,
                          SearchStats* stats, const QueryContext* context) {
  Scope scope(Layer::kShard, Op::kGeneration);
  return RealGeneration(searcher, generation, query, k, kind, stats, context);
}

ResultList WrapShardSearch(const gat::GatSearcher* searcher,
                           const Query& query, size_t k, QueryKind kind,
                           SearchStats* stats, const QueryContext* context)
    GATW_WRAP(SYM_SHARD_SEARCH);
ResultList WrapShardSearch(const gat::GatSearcher* searcher,
                           const Query& query, size_t k, QueryKind kind,
                           SearchStats* stats, const QueryContext* context) {
  Scope scope(Layer::kSearch, Op::kShardSearch);
  ResultList out = RealShardSearch(searcher, query, k, kind, stats, context);
  if (stats != nullptr) scope.SetStats(*stats);
  return out;
}

void WrapSubmit(gat::TaskGroup* group, std::function<void()> fn)
    GATW_WRAP(SYM_SUBMIT);
void WrapSubmit(gat::TaskGroup* group, std::function<void()> fn) {
  const gatw::TaskContext context = gatw::CurrentContext();
  const uint64_t dispatched = std::exchange(t_dispatched, 0);
  std::function<void()> carried;
  if (context.valid()) {
    gatw::Untracked quiet;
    carried = [context, inner = std::move(fn)] {
      gatw::AdoptContext adopt(context);
      inner();
    };
  } else if (dispatched != 0 && gatw::Recording()) {
    gatw::Untracked quiet;
    const int64_t submitted = gatw::NowNs();
    carried = [dispatched, submitted, inner = std::move(fn)] {
      gatw::Span wait;
      wait.request = dispatched;
      wait.layer = Layer::kEngine;
      wait.op = Op::kQueue;
      wait.start_ns = submitted;
      wait.end_ns = gatw::NowNs();
      gatw::RecordSpan(wait);
      inner();
    };
  } else {
    carried = std::move(fn);
  }
  RealSubmit(group, std::move(carried));
}
