#ifndef GAT_SERVE_TOKEN_BUCKET_H_
#define GAT_SERVE_TOKEN_BUCKET_H_

#include <cstdint>

namespace gat {

/// A classic token bucket: capacity `burst` tokens, refilled at
/// `tokens_per_sec`, drained by `TryAcquire`. The admission-control
/// primitive of the serving front door — one bucket per tenant.
///
/// Time is supplied by the caller as absolute microseconds (from a
/// `Clock`), so the bucket itself is a pure function of the call
/// sequence: under a ManualClock, admit/shed decisions are exact and
/// machine-independent. Refill uses only multiply/add on doubles (no
/// transcendentals), keeping the arithmetic deterministic across libm
/// implementations.
///
/// Not internally synchronized: the owner (FrontDoor) serializes
/// access.
class TokenBucket {
 public:
  /// Starts full (`burst` tokens). `tokens_per_sec == 0` never refills:
  /// the tenant gets exactly the initial burst, then starves.
  TokenBucket(double tokens_per_sec, double burst);

  /// Refills for the elapsed time since the last call, then tries to
  /// take `cost` tokens. Returns true (and drains) on success; a failed
  /// acquire drains nothing. A `now_micros` earlier than the previous
  /// call refills nothing (clock rewinds are tolerated, not rewarded).
  bool TryAcquire(uint64_t now_micros, double cost = 1.0);

  double tokens() const { return tokens_; }

 private:
  const double rate_per_micro_;
  const double burst_;
  double tokens_;
  uint64_t last_refill_micros_ = 0;
  bool primed_ = false;  // first TryAcquire anchors the refill clock
};

}  // namespace gat

#endif  // GAT_SERVE_TOKEN_BUCKET_H_
