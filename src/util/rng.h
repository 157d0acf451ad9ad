// Deterministic, splittable random number generation.
//
// All stochastic pieces of the simulation (initial condition phases,
// stochastic star formation, feedback event sampling, fault injection)
// draw from seeded counter-based streams so that reruns — and ranks —
// are bit-reproducible regardless of execution order.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

namespace crkhacc {

/// SplitMix64: tiny, high-quality 64-bit mixer. Used both as a stream
/// seeder and as a standalone generator.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Standard normal via Box-Muller (uses two uniforms per pair).
  double next_gaussian() {
    if (have_cached_) {
      have_cached_ = false;
      return cached_;
    }
    double u1 = next_double();
    double u2 = next_double();
    // Guard against log(0).
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * std::numbers::pi * u2;
    cached_ = radius * std::sin(angle);
    have_cached_ = true;
    return radius * std::cos(angle);
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire).
  std::uint64_t next_bounded(std::uint64_t bound) {
    if (bound == 0) return 0;
    // 128-bit multiply rejection method.
    while (true) {
      const std::uint64_t x = next_u64();
      const __uint128_t m = static_cast<__uint128_t>(x) * bound;
      const std::uint64_t low = static_cast<std::uint64_t>(m);
      if (low >= bound || low >= (-bound) % bound) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

 private:
  std::uint64_t state_;
  bool have_cached_ = false;
  double cached_ = 0.0;
};

/// Counter-based stream: hash(seed, stream, counter) per draw. Draw order
/// independence makes per-particle stochastic physics reproducible under
/// any particle permutation — required because our rank decomposition
/// reshuffles particles every step.
class CounterRng {
 public:
  CounterRng(std::uint64_t seed, std::uint64_t stream)
      : seed_(seed), stream_(stream) {}

  /// Uniform double in [0, 1) for logical counter `counter`.
  double uniform(std::uint64_t counter) const {
    return static_cast<double>(mix(counter) >> 11) * 0x1.0p-53;
  }

  std::uint64_t u64(std::uint64_t counter) const { return mix(counter); }

 private:
  std::uint64_t mix(std::uint64_t counter) const {
    // Two rounds of splitmix over (seed, stream, counter).
    std::uint64_t z = seed_ ^ (0x9e3779b97f4a7c15ULL * (stream_ + 1));
    z += 0x9e3779b97f4a7c15ULL * (counter + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    z = (z ^ (z >> 33)) * 0xff51afd7ed558ccdULL;
    z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53ULL;
    return z ^ (z >> 33);
  }

  std::uint64_t seed_;
  std::uint64_t stream_;
};

}  // namespace crkhacc
