#include "fft/fft_plan.hpp"

#include <algorithm>
#include <cmath>
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

/// Bit-reversal order of [0, n) for power-of-two n.
std::vector<std::size_t> bit_reverse_permutation(std::size_t n) {
  std::vector<std::size_t> rev(n);
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b) {
      r = (r << 1) | ((i >> b) & 1U);
    }
    rev[i] = r;
  }
  return rev;
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

/// The radices of a mixed-radix plan for n > 1, in the order its stages
/// run: 4 while it divides, then 2 if it still does, then every 3, then
/// every 5. Empty when n has a prime factor above 5.
std::vector<std::size_t> mixed_radices(std::size_t n) {
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

std::size_t next_pow2(std::size_t n) {
  ODONN_CHECK(n >= 1, "next_pow2 requires n >= 1");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

Plan::Plan(std::size_t n) : n_(n) {
  ODONN_CHECK(n >= 1, "FFT length must be >= 1");
  if (is_pow2(n)) {
    conv_n_ = n;
    if (n > 1) {
      twiddles_ = radix2_twiddles(n);
      bit_reverse_ = bit_reverse_permutation(n);
    }
    return;
  }

  if (const std::vector<std::size_t> radices = mixed_radices(n);
      !radices.empty()) {
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
    // Element j's digits, the last stage's least significant, each weighted
    // by its stage's span: a DIT stage of radix p over spans m reads the p
    // interleaved subsequences j = q (mod p) as consecutive blocks of m.
    digit_reverse_.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      std::size_t rest = j;
      std::size_t at = 0;
      for (auto stage = stages_.rbegin(); stage != stages_.rend(); ++stage) {
        at += (rest % stage->radix) * stage->span;
        rest /= stage->radix;
      }
      digit_reverse_[j] = at;
    }
    return;
  }

  // Bluestein setup: convolution length m >= 2n-1, power of two.
  engine_ = Engine::Bluestein;
  conv_n_ = next_pow2(2 * n - 1);
  twiddles_ = radix2_twiddles(conv_n_);
  bit_reverse_ = bit_reverse_permutation(conv_n_);

  bluestein_a_.resize(n);
  std::vector<Cplx> b(conv_n_, Cplx(0.0, 0.0));
  for (std::size_t j = 0; j < n; ++j) {
    // Reduce j^2 mod 2n before converting to an angle: keeps the chirp phase
    // accurate for large n.
    const std::size_t j2 = (j * j) % (2 * n);
    const double angle = M_PI * static_cast<double>(j2) / static_cast<double>(n);
    bluestein_a_[j] = Cplx(std::cos(angle), -std::sin(angle));  // e^{-i pi j^2/n}
    const Cplx bj = std::conj(bluestein_a_[j]);                 // e^{+i pi j^2/n}
    b[j] = bj;
    if (j != 0) b[conv_n_ - j] = bj;
  }
  pow2_transform(b.data(), conv_n_, /*inverse=*/false);
  bluestein_b_fft_ = std::move(b);
}

void Plan::pow2_transform(Cplx* data, std::size_t n, bool inverse) const {
  if (n <= 1) return;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = bit_reverse_[i];
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
  for (std::size_t j = 0; j < n_; ++j) data[digit_reverse_[j]] = moved[j];

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

void Plan::bluestein_forward(Cplx* data) const {
  const std::size_t m = conv_n_;
  auto& u = scratch(m);
  for (std::size_t j = 0; j < n_; ++j) u[j] = data[j] * bluestein_a_[j];
  for (std::size_t j = n_; j < m; ++j) u[j] = Cplx(0.0, 0.0);

  pow2_transform(u.data(), m, /*inverse=*/false);
  for (std::size_t j = 0; j < m; ++j) u[j] *= bluestein_b_fft_[j];
  pow2_transform(u.data(), m, /*inverse=*/true);

  const double scale = 1.0 / static_cast<double>(m);
  for (std::size_t k = 0; k < n_; ++k) {
    data[k] = u[k] * scale * bluestein_a_[k];
  }
}

void Plan::execute(Cplx* data, Direction dir) const {
  if (n_ == 1) return;
  if (engine_ != Engine::Bluestein) {
    if (engine_ == Engine::Radix2) {
      pow2_transform(data, n_, dir == Direction::Inverse);
    } else {
      mixed_radix_transform(data, dir == Direction::Inverse);
    }
    if (dir == Direction::Inverse) {
      const double scale = 1.0 / static_cast<double>(n_);
      for (std::size_t i = 0; i < n_; ++i) data[i] *= scale;
    }
    return;
  }

  if (dir == Direction::Forward) {
    bluestein_forward(data);
    return;
  }
  // Inverse via conjugation: ifft(x) = conj(fft(conj(x))) / n.
  for (std::size_t i = 0; i < n_; ++i) data[i] = std::conj(data[i]);
  bluestein_forward(data);
  const double scale = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < n_; ++i) data[i] = std::conj(data[i]) * scale;
}

void Plan::execute(std::span<Cplx> data, Direction dir) const {
  ODONN_CHECK_SHAPE(data.size() == n_,
                    "FFT buffer length does not match plan size");
  execute(data.data(), dir);
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
  ++cache.misses;
  ODONN_OBS_COUNT("fft.plan_cache.misses", 1);
  auto plan = std::make_shared<const Plan>(n);
  cache.plans.emplace(n, plan);
  ODONN_OBS_GAUGE_SET("fft.plan_cache.lengths", cache.plans.size());
  return plan;
}

PlanCacheStats plan_cache_stats() {
  PlanCache& cache = plan_cache();
  MutexLock lock(cache.mutex);
  return {cache.plans.size(), cache.hits, cache.misses};
}

void transform(std::span<Cplx> data, Direction dir) {
  plan_for(data.size())->execute(data, dir);
}

}  // namespace odonn::fft
