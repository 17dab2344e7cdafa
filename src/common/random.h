#ifndef FAIRBC_COMMON_RANDOM_H_
#define FAIRBC_COMMON_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

#include "common/status.h"

namespace fairbc {

/// Deterministic random source. All stochastic pieces of the library
/// (generators, attribute assignment, edge sampling) draw from an explicit
/// Rng so experiments are reproducible from a seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [0, bound). `bound` must be positive.
  std::uint64_t NextUInt64(std::uint64_t bound) {
    FAIRBC_CHECK(bound > 0);
    return std::uniform_int_distribution<std::uint64_t>(0, bound - 1)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInt(std::int64_t lo, std::int64_t hi) {
    FAIRBC_CHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Bernoulli draw.
  bool NextBool(double p_true) { return NextDouble() < p_true; }

  /// Samples `k` distinct values from [0, n) (k <= n), order unspecified.
  std::vector<std::uint32_t> SampleWithoutReplacement(std::uint32_t n,
                                                      std::uint32_t k);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

inline std::vector<std::uint32_t> Rng::SampleWithoutReplacement(
    std::uint32_t n, std::uint32_t k) {
  FAIRBC_CHECK(k <= n);
  // Floyd's algorithm: O(k) expected inserts without touching all of [0,n).
  std::vector<std::uint32_t> picked;
  picked.reserve(k);
  std::vector<bool> in_set;
  // For small n a bitmap is cheaper and simpler than a hash set.
  in_set.assign(n, false);
  for (std::uint32_t j = n - k; j < n; ++j) {
    auto t = static_cast<std::uint32_t>(NextUInt64(j + 1));
    if (in_set[t]) t = j;
    in_set[t] = true;
    picked.push_back(t);
  }
  return picked;
}

}  // namespace fairbc

#endif  // FAIRBC_COMMON_RANDOM_H_
