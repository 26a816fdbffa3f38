#ifndef GAT_COMMON_CLOCK_H_
#define GAT_COMMON_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace gat {

/// Time source of the serving layer. Every admission, deadline and
/// scheduling decision reads time through this interface so the whole
/// front door can run on an injected fake clock: tests drive token-bucket
/// refills and deadline expiry deterministically.
///
/// Implementations must be safe to read from any thread.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic microseconds since an arbitrary epoch. Never decreases.
  virtual uint64_t NowMicros() const = 0;
};

/// Wall time: std::chrono::steady_clock. The production clock.
class SteadyClock final : public Clock {
 public:
  uint64_t NowMicros() const override;

  /// Process-wide instance for callers that do not inject a clock.
  static const SteadyClock& Default();
};

/// A clock that moves only when told to — the deterministic time source
/// of tests. Readers may race with Set/Advance (the value is a single
/// atomic); determinism additionally requires the *driver* to advance it
/// only between units of work, never while tasks that read it are in
/// flight.
class ManualClock final : public Clock {
 public:
  explicit ManualClock(uint64_t start_micros = 0) : micros_(start_micros) {}

  uint64_t NowMicros() const override {
    return micros_.load(std::memory_order_relaxed);
  }

  /// Jumps to an absolute time. Callers are expected to keep it
  /// monotonic; consumers (token buckets) tolerate a rewind by simply
  /// not refilling.
  void SetMicros(uint64_t micros) {
    micros_.store(micros, std::memory_order_relaxed);
  }

  void AdvanceMicros(uint64_t delta) {
    micros_.fetch_add(delta, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> micros_;
};

}  // namespace gat

#endif  // GAT_COMMON_CLOCK_H_
