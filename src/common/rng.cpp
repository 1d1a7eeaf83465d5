#include "common/rng.hpp"

#include <cmath>

#include "common/error.hpp"

namespace odonn {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// The uniform behind a Gumbel draw, kept away from 0 and 1 so that
/// -log(-log(u)) is finite.
double clamp_gumbel_uniform(double u) {
  if (u < 1e-300) u = 1e-300;
  if (u > 1.0 - 1e-16) u = 1.0 - 1e-16;
  return u;
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  ODONN_CHECK(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  ODONN_CHECK(n > 0, "uniform_index requires n > 0");
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = n * (~0ULL / n);
  std::uint64_t x = next_u64();
  while (x >= limit) x = next_u64();
  return x % n;
}

double Rng::normal() {
  // The cache stores the PLAIN variate; the antithetic sign is applied at
  // return so toggling the flag between draws still mirrors exactly.
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return antithetic_ ? -cached_normal_ : cached_normal_;
  }
  // Box–Muller; u1 kept away from zero so log() is finite.
  double u1 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  const double value = radius * std::cos(angle);
  return antithetic_ ? -value : value;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::gumbel() {
  return -std::log(-std::log(clamp_gumbel_uniform(uniform())));
}

void Rng::fill_gumbel(std::span<double> out) {
  for (double& g : out) g = clamp_gumbel_uniform(uniform());
  for (double& g : out) g = -std::log(g);
  for (double& g : out) g = -std::log(g);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

Rng Rng::split() {
  Rng child(0);
  SplitMix64 sm(next_u64() ^ 0xa5a5a5a5a5a5a5a5ULL);
  for (auto& word : child.s_) word = sm.next();
  return child;
}

}  // namespace odonn
