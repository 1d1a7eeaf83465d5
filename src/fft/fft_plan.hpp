// 1-D complex FFT plans.
//
// Two engines, picked by the length n alone (Plan::engine()):
//  * radix-2: iterative Cooley–Tukey for power-of-two lengths;
//  * mixed radix: iterative decimation-in-time for every other length whose
//    prime factors are all 2, 3 or 5 (the paper's 200 = 2^3 * 5^2, PyONN's
//    120 = 2^3 * 3 * 5), with radix-4, -2, -3 and -5 stages in that order.
// A length with a prime factor above 5 has no engine: its Plan throws a
// ConfigError naming the next supported length, and the grids that reach a
// plan (optics::Propagator, before it allocates anything n x n) inherit the
// rule.
//
// Plans are immutable after construction (twiddle tables only) and are safe
// to execute concurrently from many threads; per-call scratch lives in
// thread_local storage. Convention: unnormalized forward, 1/n inverse, i.e.
//   forward:  X_k = sum_j x_j exp(-2*pi*i*j*k/n)
//   inverse:  x_j = (1/n) sum_k X_k exp(+2*pi*i*j*k/n)
//
// Both engines first move element j to reverse_[j]: bit reversal for
// radix-2 (an involution, applied as swaps), digit reversal for mixed radix
// (not an involution, applied through a copy).
//
// Mixed-radix arithmetic. After the digit reversal, stage s of radix p over
// sub-transforms of length m (the product of the earlier radices) runs, for
// every block and every k < m, one radix-p butterfly on the elements
// k + q*m, q < p, of that block:
//  * for k > 0, element q >= 1 is first multiplied by its twiddle
//    w = exp(-2*pi*i*q*k/(m*p)) as (ac - bd, ad + bc), with w conjugated
//    for an inverse; k = 0 skips the multiply (w = 1);
//  * then the p-point DFT in the fixed operation order written out in
//    Plan::mixed_radix_transform (fft_plan.cpp), using the constants
//    sin(2pi/3), cos(2pi/5), cos(4pi/5), sin(2pi/5), sin(4pi/5) below (the
//    sines negated for an inverse), with each product by -i or +i folded
//    into the add or subtract that follows it as a swap of parts;
//  * an inverse scales by 1/n last, as radix-2 does.
// Real scalings are spelled (c * re, c * im), never a complex product, and
// no operation is fused.
//
// Lane execution. execute_lanes runs Plan::kLanes independent transforms at
// once over structure-of-arrays planes: element j of lane s sits at
// re[j * kLanes + s] / im[j * kLanes + s]. One butterfly sweep then advances
// every lane, so twiddle loads and loop control are paid once per group and
// the lane loops vectorize. A row-lane fft::Frame (fft2d.hpp) is a stack of
// such groups, four rows each, and fft2d.cpp is the one caller that packs
// lanes (scripts/lint.sh, check lane-pack).
//
// ISA dispatch. The lane kernels (radix-2 and mixed-radix butterflies, and
// the frame column pass with its tile moves and transfer multiply) are
// written once as plain C++ in fft/lane_kernels.cpp and compiled twice
// there: as baseline x86-64 (or whatever the target architecture's baseline
// is) and under __attribute__((target("avx2"))), via `flatten` wrappers that
// inline the whole kernel into each variant. The first lane call picks one
// set per process with __builtin_cpu_supports("avx2"); other CPUs and
// architectures run the baseline set. That file is the only one in src/
// allowed to name an instruction set (scripts/lint.sh, check isa-target), so
// every ISA-specific instruction lives where tests/fft_test.cpp runs both
// variants against execute().
//
// No FMA, and no AVX-512. GCC 12 at -std=c++20 contracts a*b + c into a
// fused multiply-add whenever the target enables FMA — target("avx512f")
// included, since it implies FMA — and a fused product rounds once where
// execute() rounds twice, so the variants would stop matching bit for bit.
// The AVX2 target string therefore names avx2 alone. File-scope
// `#pragma GCC target` ahead of the includes is banned as well: it compiles
// every inline function of the included headers (std::vector, std::complex,
// ...) for AVX2, and the linker may then keep those AVX2 copies for
// baseline callers on CPUs without AVX2.
//
// Bitwise contract: every lane performs exactly the IEEE operations of
// execute() on the same input — the same bit- or digit-reversal order and
// butterflies, complex products as (ac - bd, ad + bc), inverse twiddles as
// conjugates, and 1/n last for an inverse — so results match lane for lane,
// bit for bit, signed zeros included, in either ISA variant. The contract
// covers finite inputs whose products do not overflow: when both parts of a
// std::complex product come out NaN, the radix-2 scalar path falls back to
// the C99 Annex G recovery routine (__muldc3), which the lane path does not
// replicate — serve::InferenceEngine therefore rejects non-finite inputs
// before they reach a lane.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace odonn::fft {

using Cplx = std::complex<double>;

enum class Direction { Forward, Inverse };

/// The algorithm a Plan runs, fixed by its length (see the file comment).
enum class Engine { Radix2, MixedRadix };

/// Instruction sets the lane kernels are compiled for.
enum class LaneIsa { Baseline, Avx2 };

/// "baseline" / "avx2".
const char* lane_isa_name(LaneIsa isa);

/// True when this CPU (and OS) can run `isa`'s lane kernels. Baseline
/// always; Avx2 only on x86 builds running on an AVX2 CPU.
bool lane_isa_supported(LaneIsa isa);

/// The lane-kernel set every execute_lanes / frame pass uses unless told
/// otherwise: Avx2 when supported, else Baseline. Chosen once per process.
LaneIsa active_lane_isa();

/// True if n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

/// The smallest length >= n (n >= 1) that a Plan runs: 2^a * 3^b * 5^c,
/// found without overflow. n itself when n is supported.
std::size_t next_supported_length(std::size_t n);

class Plan {
 public:
  /// Transforms advanced side by side by execute_lanes.
  static constexpr std::size_t kLanes = 4;

  /// Builds a plan for length n (n >= 1): radix-2 when n is a power of two,
  /// else mixed radix. Throws ConfigError, naming the next supported length,
  /// when n has a prime factor above 5.
  explicit Plan(std::size_t n);

  std::size_t size() const { return n_; }
  Engine engine() const { return engine_; }

  /// In-place transform of exactly size() elements. The scalar reference.
  void execute(Cplx* data, Direction dir) const;

  /// kLanes in-place transforms of size() elements each, over split planes
  /// of size() * kLanes doubles laid out lane-major (see the file comment).
  /// Every lane must be initialized; each matches execute() bit for bit.
  /// Runs the kernels compiled for `isa`, which must be supported
  /// (lane_isa_supported) — the frame passes hand down theirs, and tests
  /// run every variant this way.
  void execute_lanes(double* re, double* im, Direction dir,
                     LaneIsa isa) const;

 private:
  // The lane kernels in fft/lane_kernels.cpp read the tables below.
  template <typename Vector>
  friend struct LaneKernels;

  /// One mixed-radix stage: radix-`radix` butterflies over sub-transforms
  /// of length `span`; its twiddles are stage_twiddles_[twiddle_at + k *
  /// (radix - 1) + q - 1] = exp(-2*pi*i*q*k/(span*radix)), k < span,
  /// 1 <= q < radix.
  struct Stage {
    std::size_t radix;
    std::size_t span;
    std::size_t twiddle_at;
  };

  // Butterfly constants, correctly rounded: sin(2pi/3), cos(2pi/5),
  // cos(4pi/5), sin(2pi/5), sin(4pi/5).
  static constexpr double kSin2Pi3 = 0.86602540378443864676372317075293618;
  static constexpr double kCos2Pi5 = 0.30901699437494742410229341718281906;
  static constexpr double kCos4Pi5 = -0.80901699437494742410229341718281906;
  static constexpr double kSin2Pi5 = 0.95105651629515357211643933337938214;
  static constexpr double kSin4Pi5 = 0.58778525229247312916870595463907277;

  void pow2_transform(Cplx* data, bool inverse) const;
  void mixed_radix_transform(Cplx* data, bool inverse) const;

  std::size_t n_;
  Engine engine_ = Engine::Radix2;
  std::vector<std::size_t> reverse_;  // element j moves to [j]
  // Radix-2 twiddles (empty for mixed radix).
  std::vector<Cplx> twiddles_;        // exp(-2*pi*i*k/n), k < n/2
  // Mixed-radix tables (empty for radix-2).
  std::vector<Stage> stages_;         // in the order they run
  std::vector<Cplx> stage_twiddles_;  // every stage's, see Stage
};

/// Returns a cached shared plan for length n. Thread-safe; plans persist for
/// the process so repeated propagations reuse twiddle tables.
std::shared_ptr<const Plan> plan_for(std::size_t n);

/// Plan-cache audit counters. Propagators take their plans once, at
/// construction, so a warmed-up serving or training loop does no lookups
/// at all: `misses`, `hits` and `cached_lengths` all stay flat while
/// traffic flows. Only transform_2d looks plans up per call.
struct PlanCacheStats {
  std::size_t cached_lengths = 0;  ///< distinct plan lengths resident
  std::uint64_t hits = 0;          ///< plan_for calls served from cache
  std::uint64_t misses = 0;        ///< plan_for calls that built a plan
};
PlanCacheStats plan_cache_stats();

}  // namespace odonn::fft
