#include "fft/fft_plan.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "obs/obs.hpp"

namespace odonn::fft {

namespace {

/// Thread-local scratch so concurrent executes never contend or allocate
/// after warm-up.
std::vector<Cplx>& scratch(std::size_t n) {
  thread_local std::vector<Cplx> buf;
  if (buf.size() < n) buf.resize(n);
  return buf;
}

/// exp(-2*pi*i*k/n) for k < n/2.
std::vector<Cplx> radix2_twiddles(std::size_t n) {
  std::vector<Cplx> tw(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double angle = -2.0 * M_PI * static_cast<double>(k) /
                         static_cast<double>(n);
    tw[k] = Cplx(std::cos(angle), std::sin(angle));
  }
  return tw;
}

/// The radices of a plan for n, in the order its stages run: all 2 for a
/// power of two; otherwise 4 while it divides, then 2 if it still does,
/// then every 3, then every 5. Empty when n has a prime factor above 5.
std::vector<std::size_t> stage_radices(std::size_t n) {
  if (is_pow2(n)) return std::vector<std::size_t>(std::countr_zero(n), 2);
  std::vector<std::size_t> radices;
  for (const std::size_t p : {4, 2, 3, 5}) {
    while (n % p == 0) {
      radices.push_back(p);
      n /= p;
    }
  }
  if (n != 1) radices.clear();
  return radices;
}

/// Where element j starts a decimation-in-time transform with these stage
/// radices: its digits, the last stage's least significant, each weighted
/// by its stage's span (a stage of radix p over spans m reads the p
/// interleaved subsequences j = q (mod p) as consecutive blocks of m). With
/// every radix 2 this is bit reversal.
std::vector<std::size_t> digit_reversal(
    std::size_t n, const std::vector<std::size_t>& radices) {
  std::vector<std::size_t> at(n);
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t rest = j;
    std::size_t span = n;
    for (auto p = radices.rbegin(); p != radices.rend(); ++p) {
      span /= *p;
      at[j] += (rest % *p) * span;
      rest /= *p;
    }
  }
  return at;
}

/// x * w as (ac - bd, ad + bc), with w conjugated for an inverse.
Cplx twiddled(const Cplx& x, const Cplx& w, bool inverse) {
  const double wr = w.real();
  const double wi = inverse ? -w.imag() : w.imag();
  return {x.real() * wr - x.imag() * wi, x.real() * wi + x.imag() * wr};
}

/// c * z, part by part.
Cplx scaled(double c, const Cplx& z) { return {c * z.real(), c * z.imag()}; }

/// a - i*b and a + i*b.
Cplx minus_i(const Cplx& a, const Cplx& b) {
  return {a.real() + b.imag(), a.imag() - b.real()};
}
Cplx plus_i(const Cplx& a, const Cplx& b) {
  return {a.real() - b.imag(), a.imag() + b.real()};
}

}  // namespace

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_supported_length(std::size_t n) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t best = kMax;
  for (std::size_t f5 = 1;; f5 *= 5) {
    for (std::size_t f = f5;; f *= 3) {
      std::size_t v = f;
      while (v < n && v <= kMax / 2) v *= 2;
      if (v >= n) best = std::min(best, v);
      if (f >= n || f > kMax / 3) break;
    }
    if (f5 >= n || f5 > kMax / 5) break;
  }
  return best;
}

Plan::Plan(std::size_t n) : n_(n) {
  ODONN_CHECK(n >= 1, "FFT length must be >= 1");
  const std::vector<std::size_t> radices = stage_radices(n);
  if (radices.empty() && n > 1) {
    throw ConfigError("FFT length " + std::to_string(n) +
                      " has a prime factor above 5; lengths must be "
                      "2^a * 3^b * 5^c (next supported length: " +
                      std::to_string(next_supported_length(n)) + ")");
  }
  reverse_ = digit_reversal(n, radices);
  if (is_pow2(n)) {
    twiddles_ = radix2_twiddles(n);
    return;
  }

  engine_ = Engine::MixedRadix;
  std::size_t span = 1;
  for (const std::size_t p : radices) {
    stages_.push_back({p, span, stage_twiddles_.size()});
    for (std::size_t k = 0; k < span; ++k) {
      for (std::size_t q = 1; q < p; ++q) {
        const double angle = -2.0 * M_PI * static_cast<double>(q * k) /
                             static_cast<double>(span * p);
        stage_twiddles_.emplace_back(std::cos(angle), std::sin(angle));
      }
    }
    span *= p;
  }
}

void Plan::pow2_transform(Cplx* data, bool inverse) const {
  const std::size_t n = n_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = reverse_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const std::size_t stride = n / len;
    for (std::size_t base = 0; base < n; base += len) {
      for (std::size_t k = 0; k < half; ++k) {
        Cplx w = twiddles_[k * stride];
        if (inverse) w = std::conj(w);
        const Cplx even = data[base + k];
        const Cplx odd = data[base + k + half] * w;
        data[base + k] = even + odd;
        data[base + k + half] = even - odd;
      }
    }
  }
}

void Plan::mixed_radix_transform(Cplx* data, bool inverse) const {
  auto& moved = scratch(n_);
  std::copy(data, data + n_, moved.begin());
  for (std::size_t j = 0; j < n_; ++j) data[reverse_[j]] = moved[j];

  // Radix-3 and radix-5 sines, negated for an inverse.
  const double sin3 = inverse ? -kSin2Pi3 : kSin2Pi3;
  const double sin5 = inverse ? -kSin2Pi5 : kSin2Pi5;
  const double sin25 = inverse ? -kSin4Pi5 : kSin4Pi5;
  for (const Stage& stage : stages_) {
    const std::size_t p = stage.radix;
    const std::size_t m = stage.span;
    for (std::size_t base = 0; base < n_; base += m * p) {
      for (std::size_t k = 0; k < m; ++k) {
        Cplx* x = data + base + k;
        Cplx a[5];
        for (std::size_t q = 0; q < p; ++q) a[q] = x[q * m];
        if (k > 0) {
          const Cplx* w =
              stage_twiddles_.data() + stage.twiddle_at + k * (p - 1);
          for (std::size_t q = 1; q < p; ++q) {
            a[q] = twiddled(a[q], w[q - 1], inverse);
          }
        }
        if (p == 2) {
          x[0] = a[0] + a[1];
          x[m] = a[0] - a[1];
        } else if (p == 3) {
          const Cplx s = a[1] + a[2];
          const Cplx t = scaled(sin3, a[1] - a[2]);
          const Cplx mid(a[0].real() - 0.5 * s.real(),
                         a[0].imag() - 0.5 * s.imag());
          x[0] = a[0] + s;
          x[m] = minus_i(mid, t);
          x[2 * m] = plus_i(mid, t);
        } else if (p == 4) {
          const Cplx t0 = a[0] + a[2];
          const Cplx t1 = a[0] - a[2];
          const Cplx t2 = a[1] + a[3];
          const Cplx t3 = a[1] - a[3];
          x[0] = t0 + t2;
          x[2 * m] = t0 - t2;
          x[inverse ? 3 * m : m] = minus_i(t1, t3);
          x[inverse ? m : 3 * m] = plus_i(t1, t3);
        } else {
          const Cplx s14 = a[1] + a[4];
          const Cplx d14 = a[1] - a[4];
          const Cplx s23 = a[2] + a[3];
          const Cplx d23 = a[2] - a[3];
          const Cplx m1 =
              (a[0] + scaled(kCos2Pi5, s14)) + scaled(kCos4Pi5, s23);
          const Cplx m2 =
              (a[0] + scaled(kCos4Pi5, s14)) + scaled(kCos2Pi5, s23);
          const Cplx n1 = scaled(sin5, d14) + scaled(sin25, d23);
          const Cplx n2 = scaled(sin25, d14) - scaled(sin5, d23);
          x[0] = (a[0] + s14) + s23;
          x[m] = minus_i(m1, n1);
          x[2 * m] = minus_i(m2, n2);
          x[3 * m] = plus_i(m2, n2);
          x[4 * m] = plus_i(m1, n1);
        }
      }
    }
  }
}

void Plan::execute(Cplx* data, Direction dir) const {
  if (n_ == 1) return;
  const bool inverse = dir == Direction::Inverse;
  if (engine_ == Engine::Radix2) {
    pow2_transform(data, inverse);
  } else {
    mixed_radix_transform(data, inverse);
  }
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i) data[i] *= scale;
  }
}

namespace {

struct PlanCache {
  Mutex mutex;
  std::unordered_map<std::size_t, std::shared_ptr<const Plan>> plans
      ODONN_GUARDED_BY(mutex);
  std::uint64_t hits ODONN_GUARDED_BY(mutex) = 0;
  std::uint64_t misses ODONN_GUARDED_BY(mutex) = 0;
};

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

}  // namespace

std::shared_ptr<const Plan> plan_for(std::size_t n) {
  PlanCache& cache = plan_cache();
  MutexLock lock(cache.mutex);
  auto it = cache.plans.find(n);
  if (it != cache.plans.end()) {
    ++cache.hits;
    ODONN_OBS_COUNT("fft.plan_cache.hits", 1);
    return it->second;
  }
  auto plan = std::make_shared<const Plan>(n);  // throws for unsupported n
  ++cache.misses;
  ODONN_OBS_COUNT("fft.plan_cache.misses", 1);
  cache.plans.emplace(n, plan);
  ODONN_OBS_GAUGE_SET("fft.plan_cache.lengths", cache.plans.size());
  return plan;
}

PlanCacheStats plan_cache_stats() {
  PlanCache& cache = plan_cache();
  MutexLock lock(cache.mutex);
  return {cache.plans.size(), cache.hits, cache.misses};
}

}  // namespace odonn::fft
