// Deterministic random number generation.
//
// Every experiment in rfidsim is seeded so that identical seeds regenerate
// identical tables (see DESIGN.md §4.5). Rng wraps a 64-bit Mersenne Twister
// with the handful of distributions the simulator needs, and supports
// deterministic fork() so parallel sub-experiments stay reproducible
// regardless of evaluation order.
#pragma once

#include <cstdint>
#include <random>

#include "common/hash.hpp"

namespace rfidsim {

/// Seeded pseudo-random source. Not thread-safe; fork() one per worker.
class Rng {
 public:
  /// Creates a generator from a 64-bit seed. The default seed is arbitrary
  /// but fixed, so default-constructed simulations are still deterministic.
  explicit Rng(std::uint64_t seed = 0x5eed'0'f1dULL) : engine_(seed), seed_(seed) {}

  /// The seed this generator was constructed with.
  std::uint64_t seed() const { return seed_; }

  /// Uniform double in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Standard normal draw scaled to the given mean and standard deviation.
  double gaussian(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli draw: true with probability p (clamped to [0, 1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Exponentially distributed draw with the given rate (> 0).
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Raw 64-bit draw.
  std::uint64_t next_u64() { return engine_(); }

  /// Derives an independent child generator. The child's stream is a pure
  /// function of (parent seed, label), so forking is order-independent.
  Rng fork(std::uint64_t label) const {
    // SplitMix64 finalizer mixes seed and label into a well-spread child seed.
    return Rng(splitmix64(seed_ + 0x9e3779b97f4a7c15ULL * (label + 1)));
  }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace rfidsim
