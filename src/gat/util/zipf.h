#ifndef GAT_UTIL_ZIPF_H_
#define GAT_UTIL_ZIPF_H_

#include <cstdint>
#include <vector>

#include "gat/util/rng.h"

namespace gat {

/// Zipf-distributed sampler over ranks {0, 1, ..., n-1}.
///
/// P(rank = r) ∝ 1 / (r + 1)^theta. The check-in generator uses this to give
/// the synthetic activity vocabulary the heavy skew that real Foursquare tip
/// words exhibit; that skew keeps the per-activity inverted lists short for
/// rare activities.
///
/// Sampling uses a precomputed CDF and binary search: O(log n) per draw,
/// O(n) memory. This is fast enough for dataset construction (one-time) and
/// exact, which matters for reproducibility.
class ZipfSampler {
 public:
  /// `n` must be positive; `theta` >= 0 (theta = 0 degenerates to uniform).
  ZipfSampler(uint32_t n, double theta);

  /// Draws one rank in [0, n).
  uint32_t Sample(Rng& rng) const;

  /// Probability mass of a given rank.
  double Pmf(uint32_t rank) const;

  uint32_t size() const { return n_; }
  double theta() const { return theta_; }

 private:
  uint32_t n_;
  double theta_;
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r)
};

}  // namespace gat

#endif  // GAT_UTIL_ZIPF_H_
