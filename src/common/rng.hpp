// Deterministic random-number generation for odonn.
//
// All stochastic components (weight init, data synthesis, Gumbel noise, batch
// shuffling) draw from SplitMix64-seeded xoshiro256++ streams so every
// experiment is reproducible from a single integer seed. std::mt19937 is
// deliberately avoided: its seeding is easy to get wrong and it is slow for
// the bulk sampling done by the synthetic data generators.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace odonn {

/// SplitMix64: used to expand a user seed into xoshiro state. Also a decent
/// standalone generator for hashing-style uses.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ 1.0 — fast, high-quality, 2^256-1 period.
class Rng {
 public:
  /// Seeds the four 64-bit words via SplitMix64 per the reference recipe.
  explicit Rng(std::uint64_t seed = 0x0ddba11ULL);

  /// Uniform 64-bit integer.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (cached second variate). With the
  /// antithetic flag set, returns the NEGATED variate of the plain stream.
  double normal();

  /// Normal with given mean / stddev (antithetic mirrors about the mean).
  double normal(double mean, double stddev);

  /// Antithetic mode: every normal draw is mirrored (z -> -z) while the
  /// underlying uniform stream advances identically, so an antithetic Rng
  /// seeded like a plain one consumes the exact same u64 sequence and
  /// yields the exact sign-flipped Gaussian variates. This is the variance
  /// -reduction primitive behind src/fab's paired realization streams;
  /// uniform()/gumbel()/bernoulli() are deliberately unaffected.
  void set_antithetic(bool on) { antithetic_ = on; }
  bool antithetic() const { return antithetic_; }

  /// Standard Gumbel(0,1): -log(-log(U)), U ~ Uniform(0,1), clamped away
  /// from 0 and 1 so the result is always finite.
  double gumbel();

  /// out.size() Gumbel draws, bit for bit the values of as many gumbel()
  /// calls in stream order, drawn in passes over `out`: every clamped
  /// uniform, then -log, then -log again, so each libm loop runs over
  /// independent elements.
  void fill_gumbel(std::span<double> out);

  /// Bernoulli(p).
  bool bernoulli(double p);

  /// Fisher–Yates shuffle of indices [0, n) into `out` (resized).
  template <typename Container>
  void shuffle(Container& items) {
    if (items.size() < 2) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i + 1));
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  /// Derives an independent child stream; used to hand one RNG per thread or
  /// per sample without correlation between streams.
  Rng split();

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
  bool antithetic_ = false;
};

}  // namespace odonn
