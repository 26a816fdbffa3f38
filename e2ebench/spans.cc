#include "spans.h"

#include <time.h>

#include <atomic>
#include <mutex>
#include <utility>

namespace gatw {
namespace {

std::atomic<bool> g_recording{false};
std::atomic<uint64_t> g_unattributed_allocs{0};
std::atomic<uint64_t> g_unattributed_bytes{0};

std::mutex g_table_mu;
std::vector<Span> g_table;  // guarded by g_table_mu

thread_local Frame* t_top = nullptr;
thread_local bool t_untracked = false;

}  // namespace

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void SetRecording(bool on) { g_recording.store(on, std::memory_order_release); }

bool Recording() { return g_recording.load(std::memory_order_relaxed); }

Scope::Scope(Layer layer, Op op, uint64_t request) {
  if (!Recording()) return;
  Untracked quiet;
  span_.layer = layer;
  span_.op = op;
  if (request != 0 || t_top == nullptr) {
    span_.request = request;
  } else {
    span_.request = t_top->request;
    span_.parent = t_top->span;
  }
  {
    std::lock_guard<std::mutex> lock(g_table_mu);
    frame_.span = static_cast<int32_t>(g_table.size());
    g_table.emplace_back();
  }
  frame_.request = span_.request;
  frame_.outer = t_top;
  t_top = &frame_;
  active_ = true;
  span_.start_ns = NowNs();
}

Scope::~Scope() {
  if (!active_) return;
  span_.end_ns = NowNs();
  t_top = frame_.outer;
  Untracked quiet;
  std::lock_guard<std::mutex> lock(g_table_mu);
  if (static_cast<size_t>(frame_.span) >= g_table.size()) return;
  Span& slot = g_table[frame_.span];
  // Tasks that adopted this span may already have charged allocations
  // to the slot; add ours to theirs.
  span_.allocs = slot.allocs + frame_.allocs;
  span_.alloc_bytes = slot.alloc_bytes + frame_.alloc_bytes;
  slot = span_;
}

TaskContext CurrentContext() {
  if (t_top == nullptr) return {};
  return {t_top->request, t_top->span};
}

AdoptContext::AdoptContext(TaskContext context) {
  if (!context.valid()) return;
  frame_.request = context.request;
  frame_.span = context.span;
  frame_.outer = t_top;
  t_top = &frame_;
  active_ = true;
}

AdoptContext::~AdoptContext() {
  if (!active_) return;
  t_top = frame_.outer;
  if (frame_.allocs == 0) return;
  Untracked quiet;
  std::lock_guard<std::mutex> lock(g_table_mu);
  if (static_cast<size_t>(frame_.span) >= g_table.size()) return;
  g_table[frame_.span].allocs += frame_.allocs;
  g_table[frame_.span].alloc_bytes += frame_.alloc_bytes;
}

void NoteAllocation(size_t bytes) {
  if (t_untracked || !Recording()) return;
  if (Frame* top = t_top; top != nullptr) {
    top->allocs += 1;
    top->alloc_bytes += bytes;
    return;
  }
  g_unattributed_allocs.fetch_add(1, std::memory_order_relaxed);
  g_unattributed_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

Untracked::Untracked() : saved_(t_untracked) { t_untracked = true; }

Untracked::~Untracked() { t_untracked = saved_; }

Unattributed UnattributedSoFar() {
  return {g_unattributed_allocs.load(), g_unattributed_bytes.load()};
}

void RecordSpan(const Span& span) {
  if (!Recording()) return;
  Untracked quiet;
  std::lock_guard<std::mutex> lock(g_table_mu);
  g_table.push_back(span);
}

std::vector<Span> TakeSpans() {
  Untracked quiet;
  std::lock_guard<std::mutex> lock(g_table_mu);
  return std::exchange(g_table, {});
}

}  // namespace gatw
