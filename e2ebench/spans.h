// In-memory span recording for the traced benchmark run.
//
// A span is one call into one layer's public function: request key,
// layer, start, end, and the span that caused it. Spans live in one
// process-wide table; a thread's open spans form a stack, and tasks
// handed to the executor carry the submitting thread's innermost span
// along (`TaskContext`), so a shard sweep running on another worker
// still names the `SearchGeneration` span above it as its parent.
//
// Allocation counts ride the same stack: every allocation made while a
// span is innermost on the calling thread is charged to that span
// (self allocations). Recording is off unless `SetRecording(true)`;
// while off every entry point is a load and a branch.
#ifndef GATW_SPANS_H_
#define GATW_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gat/search/search_stats.h"

namespace gatw {

/// The served-path layers that get spans, named after the source
/// modules under src/gat/.
enum class Layer : uint8_t { kNet, kServe, kEngine, kLive, kShard, kSearch };
inline constexpr int kNumSpanLayers = 6;
inline constexpr const char* kSpanLayerNames[kNumSpanLayers] = {
    "net", "serve", "engine", "live", "shard", "search"};

/// Which public function a span wraps; selects the meaning of the
/// payload fields `a`, `b` and `stats`.
enum class Op : uint8_t {
  kCall,         // net: Client::Call round trip of one read
  kCallIngest,   // net: Client::CallIngest round trip of one batch
  kDispatch,     // net: wire::TryServeFastPath on the poll thread
  kFrame,        // net: wire::ServeAdmittedFrame (serve + encode)
  kIngestFrame,  // net: wire::IngestFrame
  kAdmit,        // serve: FrontDoor::TryAdmit
  kServe,        // serve: FrontDoor::ServeAdmitted
  kIngest,       // serve: FrontDoor::Ingest
  kQueue,        // engine: the request's task waiting for an executor worker
  kRun,          // engine: QueryEngine::Run; a = batch wall ms, b = query wall ms
  kLiveSearch,   // live: LiveSearcher::Search; a = delta trajectories
  kLiveIngest,   // live: LiveIndex::Ingest
  kMerge,        // live: LiveIndex::MergeDelta (background, request 0)
  kGeneration,   // shard: ShardedSearcher::SearchGeneration
  kShardSearch,  // search: GatSearcher::Search; stats = its SearchStats
};

struct Span {
  uint64_t request = 0;  // 0 = background work (merges)
  int32_t parent = -1;   // index in the same table; -1 = root
  Layer layer = Layer::kNet;
  Op op = Op::kCall;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t allocs = 0;       // self allocations
  uint64_t alloc_bytes = 0;  // self allocated bytes
  double a = 0.0;
  double b = 0.0;
  gat::SearchStats stats;
};

/// CLOCK_MONOTONIC nanoseconds: comparable across the processes of one
/// machine, which is how client and server spans of a request line up.
int64_t NowNs();

void SetRecording(bool on);
bool Recording();

/// One entry of a thread's span stack: an open span, or a task context
/// adopted from the thread that submitted the task.
struct Frame {
  uint64_t request = 0;
  int32_t span = -1;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  Frame* outer = nullptr;
};

/// Opens a span as a child of the calling thread's innermost frame. A
/// non-zero `request` starts a new root instead. Inert while recording
/// is off.
class Scope {
 public:
  explicit Scope(Layer layer, Op op, uint64_t request = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Payload setters; harmless while inert.
  void SetA(double a) { span_.a = a; }
  void SetB(double b) { span_.b = b; }
  void SetStats(const gat::SearchStats& stats) { span_.stats = stats; }

 private:
  Span span_;
  Frame frame_;
  bool active_ = false;
};

/// The calling thread's innermost frame, for handing to a task.
struct TaskContext {
  uint64_t request = 0;
  int32_t span = -1;
  bool valid() const { return span >= 0; }
};
TaskContext CurrentContext();

/// Runs the enclosing task body inside `context`: spans it opens get
/// that span as parent, and its allocations are charged to that span.
class AdoptContext {
 public:
  explicit AdoptContext(TaskContext context);
  ~AdoptContext();
  AdoptContext(const AdoptContext&) = delete;
  AdoptContext& operator=(const AdoptContext&) = delete;

 private:
  Frame frame_;
  bool active_ = false;
};

/// Called by the counting `operator new` of the traced binary.
void NoteAllocation(size_t bytes);

/// Suppresses allocation counting on this thread, so the tracer's own
/// bookkeeping is not charged to the layer it observes.
class Untracked {
 public:
  Untracked();
  ~Untracked();
  Untracked(const Untracked&) = delete;
  Untracked& operator=(const Untracked&) = delete;

 private:
  bool saved_;
};

/// Allocations made while recording on threads with no frame. On the
/// server these are the transport's own: frame decode on the poll
/// thread and the hand-off of each request to an executor task.
struct Unattributed {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};
Unattributed UnattributedSoFar();

/// Appends a span measured outside any Scope (a wait has no call to
/// wrap). No-op while recording is off.
void RecordSpan(const Span& span);

/// Moves the recorded spans out; the table is left empty.
std::vector<Span> TakeSpans();

}  // namespace gatw

#endif  // GATW_SPANS_H_
