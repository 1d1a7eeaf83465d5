// The lane kernels and their ISA dispatch — the one file in src/ that may
// name an instruction set (scripts/lint.sh, check isa-target).
//
// Everything above the dispatch section is plain C++: the radix-2 and
// mixed-radix (radix-2/3/4/5 butterflies, the operations of
// Plan::mixed_radix_transform) lane transforms of Plan::execute_lanes and
// the frame column pass (tile moves, column transform, transfer multiply),
// as LaneKernels<V> over a 2- or 4-double vector type. The radix-2
// transform runs two stages per sweep on four lane groups held in
// registers (stages 1 and 2 first, an odd last stage alone), reading the
// row pass's bit-reversed input straight into its first sweep; see the
// lane-execution notes in fft_plan.hpp. Each dispatched entry
// point has two `flatten` wrappers below: LaneKernels<Vec2> for the baseline
// ISA and LaneKernels<Vec4> under target("avx2"). flatten inlines the whole
// kernel into its wrapper, so only the wrapper bodies are compiled for AVX2
// and no AVX2 copy of a shared inline function can reach baseline callers.
// The target string is "avx2" and nothing else: no FMA (which would fuse
// a*b + c and break the bitwise contract of fft_plan.hpp) and no AVX-512
// (which implies FMA).
#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "fft/fft2d.hpp"
#include "fft/fft_plan.hpp"

namespace odonn::fft {

namespace {

constexpr std::size_t L = Plan::kLanes;

/// Split re/im planes of `doubles` values each, grown on demand. Kept per
/// thread: every kernel that uses one runs to completion without waiting
/// on a latch, so no nested task can reuse it mid-call.
struct Planes {
  Plane re, im;

  void ensure(std::size_t doubles) {
    if (re.size() < doubles) {
      re.resize(doubles);
      im.resize(doubles);
    }
  }
};

/// One column group of the frame column pass.
Planes& column_scratch() {
  thread_local Planes planes;
  return planes;
}

/// One row group of the frame row pass (Plan::execute_lanes).
Planes& row_scratch() {
  thread_local Planes planes;
  return planes;
}

/// A complex table as interleaved {re, im} doubles, a layout the standard
/// guarantees for std::complex. The lane kernels read table entries through
/// it: a Cplx temporary per butterfly let GCC spill the pair and reload it
/// as one 16-byte word, a store-forwarding stall that tripled a pass.
const double* parts(const std::vector<Cplx>& table) {
  return reinterpret_cast<const double*>(table.data());
}

// Vector types for the lane loops (GCC/Clang vector extensions; the tile
// transposes use __builtin_shufflevector, GCC >= 12 or Clang): each
// element-wise operator on them is one IEEE operation per double, so the
// lane arithmetic is spelled out exactly and no vectorizer choice enters.
// The baseline kernels step through a lane group two doubles (one SSE2
// register) at a time, the AVX2 kernels four (one ymm register).
typedef double Vec2 __attribute__((vector_size(2 * sizeof(double))));
typedef double Vec4 __attribute__((vector_size(4 * sizeof(double))));

}  // namespace

/// What a column pass shares across its column groups.
struct ColumnPass {
  double* re;
  double* im;
  std::size_t rows;
  std::size_t cols;
  const Plan* plan;
  Direction dir;
  const ColumnTransfer* transfer;
};

// The lane path below performs the arithmetic of pow2_transform /
// mixed_radix_transform / execute operation for operation (only where values
// move differs); each lane loop spells out the std::complex operation it
// replaces, (a+bi)(c+di) = (ac - bd, ad + bc).
// V is the vector type one step covers; a lane group is L / W steps. V
// values only ever live in locals (or behind a reference) — never in a
// by-value parameter or return — so no function's ABI depends on the ISA.
template <typename V>
struct LaneKernels {
  static constexpr std::size_t W = sizeof(V) / sizeof(double);
  static_assert(L % W == 0, "a lane group must be whole vector steps");

  static void load(V& v, const double* p) { std::memcpy(&v, p, sizeof v); }
  static void store(double* p, const V& v) { std::memcpy(p, &v, sizeof v); }

  /// A radix-2 twiddle {re, im}, conjugated for an inverse (std::conj).
  struct Twiddle {
    double re;
    double im;
  };

  static Twiddle twiddle_at(const double* tw, std::size_t k, bool inverse) {
    return {tw[2 * k], inverse ? -tw[2 * k + 1] : tw[2 * k + 1]};
  }

  /// Radix-2 butterfly on one vector step of lane groups p and q held in
  /// registers, with twiddle w: odd = q * w, then p = even + odd and
  /// q = even - odd.
  static void butterfly(V& pr, V& pi, V& qr, V& qi, const Twiddle& w) {
    const V odd_r = qr * w.re - qi * w.im;
    const V odd_i = qr * w.im + qi * w.re;
    const V even_r = pr;
    const V even_i = pi;
    pr = even_r + odd_r;
    pi = even_i + odd_i;
    qr = even_r - odd_r;
    qi = even_i - odd_i;
  }

  /// Two radix-2 stages on four lane groups in registers: the stage of
  /// half-length h on groups (0, 1) and (2, 3), both with twiddle a, then
  /// the stage of half-length 2h on (0, 2) with b and (1, 3) with c. Group
  /// u loads from src + from[u] and stores to dst + to[u], times `scale`
  /// when `scaled` (the inverse's 1/n on the last sweep).
  static void two_stages(const double* sr, const double* si,
                         const std::size_t (&from)[4], double* dr, double* di,
                         const std::size_t (&to)[4], const Twiddle& a,
                         const Twiddle& b, const Twiddle& c, bool scaled,
                         double scale) {
    for (std::size_t h = 0; h < L; h += W) {
      V r0, i0, r1, i1, r2, i2, r3, i3;
      load(r0, sr + from[0] + h);
      load(i0, si + from[0] + h);
      load(r1, sr + from[1] + h);
      load(i1, si + from[1] + h);
      load(r2, sr + from[2] + h);
      load(i2, si + from[2] + h);
      load(r3, sr + from[3] + h);
      load(i3, si + from[3] + h);
      butterfly(r0, i0, r1, i1, a);
      butterfly(r2, i2, r3, i3, a);
      butterfly(r0, i0, r2, i2, b);
      butterfly(r1, i1, r3, i3, c);
      if (scaled) {
        r0 = r0 * scale;
        i0 = i0 * scale;
        r1 = r1 * scale;
        i1 = i1 * scale;
        r2 = r2 * scale;
        i2 = i2 * scale;
        r3 = r3 * scale;
        i3 = i3 * scale;
      }
      store(dr + to[0] + h, r0);
      store(di + to[0] + h, i0);
      store(dr + to[1] + h, r1);
      store(di + to[1] + h, i1);
      store(dr + to[2] + h, r2);
      store(di + to[2] + h, i2);
      store(dr + to[3] + h, r3);
      store(di + to[3] + h, i3);
    }
  }

  /// Stages 1 and 2 over n >= 4 lane groups: four groups at a time, group
  /// j read from src + order[j] (the row pass's bit-reversed gather) or,
  /// with no order, from src + j (the column pass, whose gather already
  /// reversed), and written to dst + j.
  static void first_sweep(const Plan& plan, const double* sr,
                          const double* si, const std::size_t* order,
                          double* dr, double* di, bool inverse, bool scaled,
                          double scale) {
    const std::size_t n = plan.n_;
    const double* tw = parts(plan.twiddles_);
    const Twiddle w0 = twiddle_at(tw, 0, inverse);
    const Twiddle wq = twiddle_at(tw, n / 4, inverse);
    for (std::size_t base = 0; base < n; base += 4) {
      std::size_t from[4];
      const std::size_t to[4] = {base * L, (base + 1) * L, (base + 2) * L,
                                 (base + 3) * L};
      for (std::size_t u = 0; u < 4; ++u) {
        from[u] = (order != nullptr ? order[base + u] : base + u) * L;
      }
      two_stages(sr, si, from, dr, di, to, w0, w0, wq, scaled, scale);
    }
  }

  /// The stages of half-lengths h and 2h over n lane groups, four groups
  /// k, k + h, k + 2h, k + 3h of each block of 4h at a time.
  static void pair_sweep(const Plan& plan, std::size_t h, const double* sr,
                         const double* si, double* dr, double* di,
                         bool inverse, bool scaled, double scale) {
    const std::size_t n = plan.n_;
    const double* tw = parts(plan.twiddles_);
    const std::size_t stride = n / (4 * h);  // of the second stage
    for (std::size_t base = 0; base < n; base += 4 * h) {
      for (std::size_t k = 0; k < h; ++k) {
        const std::size_t at = (base + k) * L;
        const std::size_t groups[4] = {at, at + h * L, at + 2 * h * L,
                                       at + 3 * h * L};
        two_stages(sr, si, groups, dr, di, groups,
                   twiddle_at(tw, 2 * k * stride, inverse),
                   twiddle_at(tw, k * stride, inverse),
                   twiddle_at(tw, (k + h) * stride, inverse), scaled, scale);
      }
    }
  }

  /// The last stage alone (half-length n / 2), for an odd stage count: its
  /// butterflies on groups k and k + n / 2 in registers, loaded from src
  /// and stored to dst, times `scale` for an inverse.
  static void last_stage(const Plan& plan, const double* sr, const double* si,
                         double* dr, double* di, bool inverse, double scale) {
    const std::size_t half = plan.n_ / 2;
    const double* tw = parts(plan.twiddles_);
    for (std::size_t k = 0; k < half; ++k) {
      const Twiddle w = twiddle_at(tw, k, inverse);
      const std::size_t p = k * L;
      const std::size_t q = (k + half) * L;
      for (std::size_t h = 0; h < L; h += W) {
        V pr, pi, qr, qi;
        load(pr, sr + p + h);
        load(pi, si + p + h);
        load(qr, sr + q + h);
        load(qi, si + q + h);
        butterfly(pr, pi, qr, qi, w);
        if (inverse) {
          pr = pr * scale;
          pi = pi * scale;
          qr = qr * scale;
          qi = qi * scale;
        }
        store(dr + p + h, pr);
        store(di + p + h, pi);
        store(dr + q + h, qr);
        store(di + q + h, qi);
      }
    }
  }

  /// The radix-2 transform of n >= 2 lane groups, in register-resident
  /// sweeps: stages 1 and 2 first, reading `in` through `order` (see
  /// first_sweep), then the later stages in pairs, and an odd last stage
  /// alone. The first sweep writes `work`, the middle sweeps run in place
  /// there, and the last sweep writes `out`, times 1/n for an inverse; a
  /// transform of one sweep goes straight from `in` to `out`. `in`, `work`
  /// and `out` may be one buffer when `order` is null.
  static void radix2(const Plan& plan, const double* in_re,
                     const double* in_im, const std::size_t* order,
                     double* work_re, double* work_im, double* out_re,
                     double* out_im, bool inverse) {
    const std::size_t n = plan.n_;
    const double scale = 1.0 / static_cast<double>(n);
    if (n == 2) {  // one stage; the bit reversal of 2 is the identity
      last_stage(plan, in_re, in_im, out_re, out_im, inverse, scale);
      return;
    }
    bool last = n == 4;
    first_sweep(plan, in_re, in_im, order, last ? out_re : work_re,
                last ? out_im : work_im, inverse, last && inverse, scale);
    for (std::size_t h = 4; h < n; h *= 4) {  // h: the next stage's half
      if (2 * h == n) {
        last_stage(plan, work_re, work_im, out_re, out_im, inverse, scale);
        break;
      }
      last = 4 * h == n;
      pair_sweep(plan, h, work_re, work_im, last ? out_re : work_re,
                 last ? out_im : work_im, inverse, last && inverse, scale);
    }
  }

  /// x = x * scale over `groups` lane groups.
  static void scale_lanes(double* x, double scale, std::size_t groups) {
    for (std::size_t i = 0; i < groups * L; i += W) {
      V v;
      load(v, x + i);
      const V out = v * scale;
      store(x + i, out);
    }
  }

  static void zero_lanes(double* x, std::size_t groups) {
    const V zero = {};
    for (std::size_t i = 0; i < groups * L; i += W) store(x + i, zero);
  }

  /// out[u][t] = in[t * 4 + u] for a 4x4 tile held as 16 contiguous
  /// doubles — the move between a frame tile (four columns of one row
  /// group, lane = row) and four column-lane rows (lane = column), done
  /// with register shuffles. out[u] addresses four doubles.
  static void transpose_tile(const double* in, double* const out[L]) {
    if constexpr (W == 4) {
      V r0, r1, r2, r3;
      load(r0, in);
      load(r1, in + L);
      load(r2, in + 2 * L);
      load(r3, in + 3 * L);
      const V t0 = __builtin_shufflevector(r0, r1, 0, 4, 2, 6);
      const V t1 = __builtin_shufflevector(r0, r1, 1, 5, 3, 7);
      const V t2 = __builtin_shufflevector(r2, r3, 0, 4, 2, 6);
      const V t3 = __builtin_shufflevector(r2, r3, 1, 5, 3, 7);
      const V c0 = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
      const V c1 = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
      const V c2 = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
      const V c3 = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
      store(out[0], c0);
      store(out[1], c1);
      store(out[2], c2);
      store(out[3], c3);
    } else {
      static_assert(W == 2, "transpose_tile covers 2- and 4-wide vectors");
      for (std::size_t h = 0; h < L; h += 2) {    // output rows h, h + 1
        for (std::size_t k = 0; k < L; k += 2) {  // input rows k, k + 1
          V a, b;
          load(a, in + k * L + h);
          load(b, in + (k + 1) * L + h);
          const V lo = __builtin_shufflevector(a, b, 0, 2);
          const V hi = __builtin_shufflevector(a, b, 1, 3);
          store(out[h] + k, lo);
          store(out[h + 1] + k, hi);
        }
      }
    }
  }

  /// x *= h over `groups` lane groups, as std::complex's operator*=
  /// (ac - bd, ad + bc), with h conjugated when `Conjugate`.
  template <bool Conjugate>
  static void mul_planes(double* xr, double* xi, const double* hr,
                         const double* hi, std::size_t groups) {
    for (std::size_t i = 0; i < groups * L; i += W) {
      V a, b, c, d;
      load(a, xr + i);
      load(b, xi + i);
      load(c, hr + i);
      load(d, hi + i);
      if (Conjugate) d = -d;
      const V re = a * c - b * d;
      const V im = a * d + b * c;
      store(xr + i, re);
      store(xi + i, im);
    }
  }

  /// x *= w for one vector step, as (ac - bd, ad + bc), with w = {re, im}
  /// conjugated for an inverse.
  template <bool Inverse>
  static void twiddle(V& xr, V& xi, const double* w) {
    const double wr = w[0];
    const double wi = Inverse ? -w[1] : w[1];
    const V r = xr * wr - xi * wi;
    const V i = xr * wi + xi * wr;
    xr = r;
    xi = i;
  }

  /// One mixed-radix butterfly of radix P on the lane groups at re/im + q *
  /// stride, q < P, with twiddles w (P - 1 {re, im} pairs) when Twiddled.
  /// The operations are those of Plan::mixed_radix_transform.
  template <std::size_t P, bool Inverse, bool Twiddled>
  static void radix_butterfly(double* re, double* im, std::size_t stride,
                              const double* w) {
    for (std::size_t h = 0; h < L; h += W) {
      double* const r0 = re + h;
      double* const i0 = im + h;
      V a0r, a0i, a1r, a1i;
      load(a0r, r0);
      load(a0i, i0);
      load(a1r, r0 + stride);
      load(a1i, i0 + stride);
      if constexpr (P == 2) {
        if constexpr (Twiddled) twiddle<Inverse>(a1r, a1i, w);
        const V y0r = a0r + a1r;
        const V y0i = a0i + a1i;
        const V y1r = a0r - a1r;
        const V y1i = a0i - a1i;
        store(r0, y0r);
        store(i0, y0i);
        store(r0 + stride, y1r);
        store(i0 + stride, y1i);
      } else if constexpr (P == 3) {
        const double sin3 = Inverse ? -Plan::kSin2Pi3 : Plan::kSin2Pi3;
        V a2r, a2i;
        load(a2r, r0 + 2 * stride);
        load(a2i, i0 + 2 * stride);
        if constexpr (Twiddled) {
          twiddle<Inverse>(a1r, a1i, w);
          twiddle<Inverse>(a2r, a2i, w + 2);
        }
        const V sr = a1r + a2r;
        const V si = a1i + a2i;
        const V dr = a1r - a2r;
        const V di = a1i - a2i;
        const V tr = dr * sin3;
        const V ti = di * sin3;
        const V mr = a0r - sr * 0.5;
        const V mi = a0i - si * 0.5;
        const V y0r = a0r + sr;
        const V y0i = a0i + si;
        const V y1r = mr + ti;  // mid - i*t
        const V y1i = mi - tr;
        const V y2r = mr - ti;  // mid + i*t
        const V y2i = mi + tr;
        store(r0, y0r);
        store(i0, y0i);
        store(r0 + stride, y1r);
        store(i0 + stride, y1i);
        store(r0 + 2 * stride, y2r);
        store(i0 + 2 * stride, y2i);
      } else if constexpr (P == 4) {
        V a2r, a2i, a3r, a3i;
        load(a2r, r0 + 2 * stride);
        load(a2i, i0 + 2 * stride);
        load(a3r, r0 + 3 * stride);
        load(a3i, i0 + 3 * stride);
        if constexpr (Twiddled) {
          twiddle<Inverse>(a1r, a1i, w);
          twiddle<Inverse>(a2r, a2i, w + 2);
          twiddle<Inverse>(a3r, a3i, w + 4);
        }
        const V t0r = a0r + a2r;
        const V t0i = a0i + a2i;
        const V t1r = a0r - a2r;
        const V t1i = a0i - a2i;
        const V t2r = a1r + a3r;
        const V t2i = a1i + a3i;
        const V t3r = a1r - a3r;
        const V t3i = a1i - a3i;
        const V y0r = t0r + t2r;
        const V y0i = t0i + t2i;
        const V y2r = t0r - t2r;
        const V y2i = t0i - t2i;
        const V mr = t1r + t3i;  // t1 - i*t3
        const V mi = t1i - t3r;
        const V pr = t1r - t3i;  // t1 + i*t3
        const V pi = t1i + t3r;
        // Forward: y1 = t1 - i*t3, y3 = t1 + i*t3; an inverse swaps them.
        double* const r1 = r0 + (Inverse ? 3 : 1) * stride;
        double* const i1 = i0 + (Inverse ? 3 : 1) * stride;
        double* const r3 = r0 + (Inverse ? 1 : 3) * stride;
        double* const i3 = i0 + (Inverse ? 1 : 3) * stride;
        store(r0, y0r);
        store(i0, y0i);
        store(r0 + 2 * stride, y2r);
        store(i0 + 2 * stride, y2i);
        store(r1, mr);
        store(i1, mi);
        store(r3, pr);
        store(i3, pi);
      } else {
        static_assert(P == 5, "mixed-radix stages are radix 2, 3, 4 or 5");
        const double sin5 = Inverse ? -Plan::kSin2Pi5 : Plan::kSin2Pi5;
        const double sin25 = Inverse ? -Plan::kSin4Pi5 : Plan::kSin4Pi5;
        V a2r, a2i, a3r, a3i, a4r, a4i;
        load(a2r, r0 + 2 * stride);
        load(a2i, i0 + 2 * stride);
        load(a3r, r0 + 3 * stride);
        load(a3i, i0 + 3 * stride);
        load(a4r, r0 + 4 * stride);
        load(a4i, i0 + 4 * stride);
        if constexpr (Twiddled) {
          twiddle<Inverse>(a1r, a1i, w);
          twiddle<Inverse>(a2r, a2i, w + 2);
          twiddle<Inverse>(a3r, a3i, w + 4);
          twiddle<Inverse>(a4r, a4i, w + 6);
        }
        const V s14r = a1r + a4r;
        const V s14i = a1i + a4i;
        const V d14r = a1r - a4r;
        const V d14i = a1i - a4i;
        const V s23r = a2r + a3r;
        const V s23i = a2i + a3i;
        const V d23r = a2r - a3r;
        const V d23i = a2i - a3i;
        const V m1r = (a0r + s14r * Plan::kCos2Pi5) + s23r * Plan::kCos4Pi5;
        const V m1i = (a0i + s14i * Plan::kCos2Pi5) + s23i * Plan::kCos4Pi5;
        const V m2r = (a0r + s14r * Plan::kCos4Pi5) + s23r * Plan::kCos2Pi5;
        const V m2i = (a0i + s14i * Plan::kCos4Pi5) + s23i * Plan::kCos2Pi5;
        const V n1r = d14r * sin5 + d23r * sin25;
        const V n1i = d14i * sin5 + d23i * sin25;
        const V n2r = d14r * sin25 - d23r * sin5;
        const V n2i = d14i * sin25 - d23i * sin5;
        const V y0r = (a0r + s14r) + s23r;
        const V y0i = (a0i + s14i) + s23i;
        store(r0, y0r);
        store(i0, y0i);
        const V y1r = m1r + n1i;  // m1 - i*n1
        const V y1i = m1i - n1r;
        const V y4r = m1r - n1i;  // m1 + i*n1
        const V y4i = m1i + n1r;
        const V y2r = m2r + n2i;  // m2 - i*n2
        const V y2i = m2i - n2r;
        const V y3r = m2r - n2i;  // m2 + i*n2
        const V y3i = m2i + n2r;
        store(r0 + stride, y1r);
        store(i0 + stride, y1i);
        store(r0 + 2 * stride, y2r);
        store(i0 + 2 * stride, y2i);
        store(r0 + 3 * stride, y3r);
        store(i0 + 3 * stride, y3i);
        store(r0 + 4 * stride, y4r);
        store(i0 + 4 * stride, y4i);
      }
    }
  }

  /// One mixed-radix stage of radix P over spans m: the twiddle-free k = 0
  /// butterfly of every block, then k = 1..m-1, each across all blocks.
  template <std::size_t P, bool Inverse>
  static void radix_stage(std::size_t n, std::size_t m, const double* tw,
                          double* re, double* im) {
    const std::size_t stride = m * L;
    for (std::size_t base = 0; base < n; base += m * P) {
      radix_butterfly<P, Inverse, false>(re + base * L, im + base * L,
                                         stride, nullptr);
    }
    for (std::size_t k = 1; k < m; ++k) {
      const double* w = tw + 2 * k * (P - 1);
      for (std::size_t at = k; at < n; at += m * P) {
        radix_butterfly<P, Inverse, true>(re + at * L, im + at * L, stride,
                                          w);
      }
    }
  }

  /// The mixed-radix stages over n lane groups already in digit-reversed
  /// order.
  template <bool Inverse>
  static void mixed_radix_stages(const Plan& plan, double* re, double* im) {
    const std::size_t n = plan.n_;
    for (const Plan::Stage& stage : plan.stages_) {
      const double* tw = parts(plan.stage_twiddles_) + 2 * stage.twiddle_at;
      const std::size_t m = stage.span;
      switch (stage.radix) {
        case 2: radix_stage<2, Inverse>(n, m, tw, re, im); break;
        case 3: radix_stage<3, Inverse>(n, m, tw, re, im); break;
        case 4: radix_stage<4, Inverse>(n, m, tw, re, im); break;
        default: radix_stage<5, Inverse>(n, m, tw, re, im); break;
      }
    }
  }

  /// The mixed-radix transform of lane groups already in digit-reversed
  /// order: the stages, then 1/n for an inverse.
  static void mixed_radix(const Plan& plan, double* re, double* im,
                          bool inverse) {
    if (inverse) {
      mixed_radix_stages<true>(plan, re, im);
      const double scale = 1.0 / static_cast<double>(plan.n_);
      scale_lanes(re, scale, plan.n_);
      scale_lanes(im, scale, plan.n_);
    } else {
      mixed_radix_stages<false>(plan, re, im);
    }
  }

  /// The transform, in place, of lane groups already in the plan's
  /// reversed order. A length-1 plan is the identity.
  static void from_reversed(const Plan& plan, double* re, double* im,
                            bool inverse) {
    if (plan.n_ == 1) return;
    if (plan.engine_ == Engine::Radix2) {
      radix2(plan, re, im, nullptr, re, im, re, im, inverse);
    } else {
      mixed_radix(plan, re, im, inverse);
    }
  }

  /// The row pass: a radix-2 plan reads the groups in bit-reversed order
  /// straight from re/im into its first sweep and writes them back with its
  /// last, through the thread-local row scratch; a mixed-radix plan copies
  /// them out and moves them back to their digit-reversed slots (digit
  /// reversal is not an involution), then transforms in place. A length-1
  /// plan is the identity.
  static void execute(const Plan& plan, double* re, double* im,
                      Direction dir) {
    const std::size_t n = plan.n_;
    if (n == 1) return;
    const bool inverse = dir == Direction::Inverse;
    const std::vector<std::size_t>& rev = plan.reverse_;
    Planes& scratch = row_scratch();
    scratch.ensure(n * L);
    if (plan.engine_ == Engine::Radix2) {
      radix2(plan, re, im, rev.data(), scratch.re.data(), scratch.im.data(),
             re, im, inverse);
      return;
    }
    std::memcpy(scratch.re.data(), re, n * L * sizeof(double));
    std::memcpy(scratch.im.data(), im, n * L * sizeof(double));
    for (std::size_t j = 0; j < n; ++j) {
      std::memcpy(re + rev[j] * L, scratch.re.data() + j * L,
                  L * sizeof(double));
      std::memcpy(im + rev[j] * L, scratch.im.data() + j * L,
                  L * sizeof(double));
    }
    mixed_radix(plan, re, im, inverse);
  }

  /// Column group cg: columns 4cg..4cg+3 gather tile by tile into the
  /// column-lane scratch, transform there, take the transfer multiply and
  /// scatter back. The plan's bit or digit reversal is folded into the
  /// gather (row r lands at reverse_[r], a move, not an arithmetic change),
  /// so the transform starts at the butterflies. Idle column lanes of a
  /// partial last group are zeroed so the transform reads defined values;
  /// their results are dropped.
  static void column_group(const ColumnPass& pass, std::size_t cg) {
    const Plan& plan = *pass.plan;
    const std::size_t rows = pass.rows;
    const std::size_t c0 = cg * L;
    const std::size_t lanes = std::min(L, pass.cols - c0);
    const std::size_t* order = plan.reverse_.data();
    Planes& scratch = column_scratch();
    scratch.ensure(rows * L);
    double* xr = scratch.re.data();
    double* xi = scratch.im.data();
    if (lanes < L) {
      zero_lanes(xr, rows);
      zero_lanes(xi, rows);
    }

    // Row group g's tile starts at g * step + c0 * L and holds column
    // c0 + t's four rows at [t * L, t * L + L); scratch row r sits at
    // x + order[r] * L.
    const std::size_t step = pass.cols * L;
    for (std::size_t g = 0; g * L < rows; ++g) {
      const std::size_t tile_rows = std::min(L, rows - g * L);
      const std::size_t at = g * step + c0 * L;
      if (tile_rows == L && lanes == L) {
        double* to_r[L];
        double* to_i[L];
        for (std::size_t u = 0; u < L; ++u) {
          to_r[u] = xr + order[g * L + u] * L;
          to_i[u] = xi + order[g * L + u] * L;
        }
        transpose_tile(pass.re + at, to_r);
        transpose_tile(pass.im + at, to_i);
        continue;
      }
      for (std::size_t u = 0; u < tile_rows; ++u) {
        const std::size_t to = order[g * L + u] * L;
        for (std::size_t t = 0; t < lanes; ++t) {
          xr[to + t] = pass.re[at + t * L + u];
          xi[to + t] = pass.im[at + t * L + u];
        }
      }
    }

    from_reversed(plan, xr, xi, pass.dir == Direction::Inverse);
    if (const ColumnTransfer* h = pass.transfer) {
      const std::size_t at = cg * rows * L;
      if (h->conjugate) {
        mul_planes<true>(xr, xi, h->re + at, h->im + at, rows);
      } else {
        mul_planes<false>(xr, xi, h->re + at, h->im + at, rows);
      }
    }

    // The transformed scratch is in natural order: rows 4g..4g+3 are the
    // 16 contiguous doubles at x + g * L * L.
    for (std::size_t g = 0; g * L < rows; ++g) {
      const std::size_t tile_rows = std::min(L, rows - g * L);
      const std::size_t at = g * step + c0 * L;
      if (tile_rows == L && lanes == L) {
        double* to_r[L];
        double* to_i[L];
        for (std::size_t t = 0; t < L; ++t) {
          to_r[t] = pass.re + at + t * L;
          to_i[t] = pass.im + at + t * L;
        }
        transpose_tile(xr + g * L * L, to_r);
        transpose_tile(xi + g * L * L, to_i);
        continue;
      }
      for (std::size_t u = 0; u < tile_rows; ++u) {
        const std::size_t from = (g * L + u) * L;
        for (std::size_t t = 0; t < lanes; ++t) {
          pass.re[at + t * L + u] = xr[from + t];
          pass.im[at + t * L + u] = xi[from + t];
        }
      }
    }
  }
};

// ------------------------------------------------------------------ dispatch

namespace {

struct KernelSet {
  void (*execute)(const Plan&, double*, double*, Direction);
  void (*column_group)(const ColumnPass&, std::size_t);
};

__attribute__((flatten)) void execute_baseline(const Plan& plan, double* re,
                                               double* im, Direction dir) {
  LaneKernels<Vec2>::execute(plan, re, im, dir);
}

__attribute__((flatten)) void column_group_baseline(const ColumnPass& pass,
                                                    std::size_t cg) {
  LaneKernels<Vec2>::column_group(pass, cg);
}

constexpr KernelSet kBaseline{execute_baseline, column_group_baseline};

#if defined(__x86_64__) || defined(__i386__)
#define ODONN_LANE_AVX2 1

__attribute__((target("avx2"), flatten)) void execute_avx2(const Plan& plan,
                                                           double* re,
                                                           double* im,
                                                           Direction dir) {
  LaneKernels<Vec4>::execute(plan, re, im, dir);
}

__attribute__((target("avx2"), flatten)) void column_group_avx2(
    const ColumnPass& pass, std::size_t cg) {
  LaneKernels<Vec4>::column_group(pass, cg);
}

constexpr KernelSet kAvx2{execute_avx2, column_group_avx2};
#endif

const KernelSet& kernels(LaneIsa isa) {
  ODONN_CHECK(lane_isa_supported(isa),
              std::string("lane kernels: ") + lane_isa_name(isa) +
                  " is not supported on this CPU");
#ifdef ODONN_LANE_AVX2
  if (isa == LaneIsa::Avx2) return kAvx2;
#endif
  return kBaseline;
}

}  // namespace

const char* lane_isa_name(LaneIsa isa) {
  return isa == LaneIsa::Avx2 ? "avx2" : "baseline";
}

bool lane_isa_supported(LaneIsa isa) {
  if (isa == LaneIsa::Baseline) return true;
#ifdef ODONN_LANE_AVX2
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

LaneIsa active_lane_isa() {
  static const LaneIsa isa = lane_isa_supported(LaneIsa::Avx2)
                                 ? LaneIsa::Avx2
                                 : LaneIsa::Baseline;
  return isa;
}

void Plan::execute_lanes(double* re, double* im, Direction dir,
                         LaneIsa isa) const {
  kernels(isa).execute(*this, re, im, dir);
}

void frame_columns(Frame& frame, const Plan& col_plan, Direction dir,
                   const ColumnTransfer* transfer, LaneIsa isa) {
  ODONN_CHECK_SHAPE(col_plan.size() == frame.rows(),
                    "frame_columns: plan length does not match frame height");
  const KernelSet& set = kernels(isa);
  const ColumnPass pass{frame.re(), frame.im(), frame.rows(), frame.cols(),
                        &col_plan,  dir,        transfer};
  parallel_for(0, (frame.cols() + L - 1) / L,
               [&](std::size_t cg) { set.column_group(pass, cg); });
}

}  // namespace odonn::fft
