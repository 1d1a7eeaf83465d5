// 1-D complex FFT plans.
//
// Two engines:
//  * iterative radix-2 Cooley–Tukey for power-of-two lengths;
//  * Bluestein chirp-z for arbitrary lengths (the paper's 200x200 masks are
//    not powers of two), which re-expresses the DFT as a convolution carried
//    out with an internal radix-2 plan.
//
// Plans are immutable after construction (twiddle/chirp tables only) and are
// safe to execute concurrently from many threads; per-call scratch lives in
// thread_local storage. Convention: unnormalized forward, 1/n inverse, i.e.
//   forward:  X_k = sum_j x_j exp(-2*pi*i*j*k/n)
//   inverse:  x_j = (1/n) sum_k X_k exp(+2*pi*i*j*k/n)
//
// Lane execution. execute_lanes runs Plan::kLanes independent transforms at
// once over structure-of-arrays planes: element j of lane s sits at
// re[j * kLanes + s] / im[j * kLanes + s]. One butterfly sweep then advances
// every lane, so twiddle loads and loop control are paid once per group and
// the lane loops vectorize. fft::transform_2d packs four rows (then four
// columns) per group; serve::BatchKernel packs four samples.
//
// Bitwise contract: every lane performs exactly the IEEE operations of
// execute() on the same input — the same bit-reversal order and butterflies,
// complex products as (ac - bd, ad + bc), inverse twiddles as conjugates, the
// same Bluestein order (chirp multiply, zero-pad, forward pass, multiply by
// FFT(b), unscaled inverse pass, then (u * 1/m) * a) and the same conj wrap
// with 1/n for Bluestein inverses — so results match lane for lane, bit for
// bit, signed zeros included. The contract covers finite inputs whose
// products do not overflow: when both parts of a std::complex product come
// out NaN, the scalar path falls back to the C99 Annex G recovery routine
// (__muldc3), which the lane path does not replicate — as serve::BatchKernel's
// sample lanes never have.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace odonn::fft {

using Cplx = std::complex<double>;

enum class Direction { Forward, Inverse };

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// True if n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

class Plan {
 public:
  /// Transforms advanced side by side by execute_lanes.
  static constexpr std::size_t kLanes = 4;

  /// Builds a plan for length n (n >= 1). Radix-2 when n is a power of two,
  /// Bluestein otherwise.
  explicit Plan(std::size_t n);

  std::size_t size() const { return n_; }
  bool uses_bluestein() const { return !bluestein_b_fft_.empty(); }

  /// In-place transform of exactly size() elements. The scalar reference.
  void execute(Cplx* data, Direction dir) const;
  void execute(std::span<Cplx> data, Direction dir) const;

  /// kLanes in-place transforms of size() elements each, over split planes
  /// of size() * kLanes doubles laid out lane-major (see the file comment).
  /// Every lane must be initialized; each matches execute() bit for bit.
  void execute_lanes(double* re, double* im, Direction dir) const;

 private:
  void pow2_transform(Cplx* data, std::size_t n, bool inverse) const;
  void bluestein_forward(Cplx* data) const;
  // Lane path: the radix-2 butterflies over conv_n_ lane groups already in
  // bit-reversed order, and the Bluestein forward built on them.
  void butterfly_stages(double* re, double* im, bool inverse) const;
  void bluestein_forward_lanes(double* re, double* im) const;

  std::size_t n_;
  // Radix-2 twiddles for the plan length itself (pow2 plans) or for the
  // internal convolution length m (Bluestein plans).
  std::size_t conv_n_ = 0;                 // pow2 length actually transformed
  std::vector<Cplx> twiddles_;             // exp(-2*pi*i*k/conv_n), k < conv_n/2
  std::vector<std::size_t> bit_reverse_;   // permutation for conv_n
  // Bluestein tables (empty for pow2 plans).
  std::vector<Cplx> bluestein_a_;          // chirp a_j = exp(-i*pi*j^2/n)
  std::vector<Cplx> bluestein_b_fft_;      // FFT_m of the extended chirp b
};

/// Returns a cached shared plan for length n. Thread-safe; plans persist for
/// the process so repeated propagations reuse twiddle tables.
std::shared_ptr<const Plan> plan_for(std::size_t n);

/// Plan-cache audit counters: a warmed-up serving loop must be all hits —
/// every batch reuses the same row/column plans, so `misses` stays flat
/// (one per distinct length) while `hits` grows with traffic.
struct PlanCacheStats {
  std::size_t cached_lengths = 0;  ///< distinct plan lengths resident
  std::uint64_t hits = 0;          ///< plan_for calls served from cache
  std::uint64_t misses = 0;        ///< plan_for calls that built a plan
};
PlanCacheStats plan_cache_stats();

/// One-shot convenience over the plan cache.
void transform(std::span<Cplx> data, Direction dir);

}  // namespace odonn::fft
