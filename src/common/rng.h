// Deterministic pseudo-random number generation. Every component that needs
// randomness owns an Rng forked from the world's master seed so that a run is
// a pure function of (seed, configuration).
#pragma once

#include <cstdint>

namespace recraft {

/// splitmix64 — used to expand seeds and as a cheap mixing function.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless mix of two 64-bit values; used to derive cluster uids and
/// per-component seeds.
inline uint64_t Mix64(uint64_t a, uint64_t b) {
  uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return SplitMix64(s);
}

/// xoshiro256** — fast, high-quality, deterministic across platforms.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eedULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    for (auto& w : s_) w = SplitMix64(seed);
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  uint64_t Uniform(uint64_t lo, uint64_t hi) {
    return lo + Next() % (hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double NextDouble() { return (Next() >> 11) * (1.0 / (1ULL << 53)); }

  /// Bernoulli trial.
  bool Chance(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

}  // namespace recraft
