// Cross-cutting property suites: algebraic identities and invariants that
// must hold across parameter grids — propagation unitarity/composition per
// kernel, the FFT convolution theorem, roughness symmetries and scaling,
// sparsifier ratio exactness across shapes, loss invariances, quantizer
// idempotence, and the 2*pi equivalence class of the forward model.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "donn/discrete.hpp"
#include "donn/loss.hpp"
#include "donn/model.hpp"
#include "donn/phase_mask.hpp"
#include "fft/fft_plan.hpp"
#include "optics/encode.hpp"
#include "optics/propagate.hpp"
#include "roughness/roughness.hpp"
#include "sparsify/schemes.hpp"

namespace odonn {
namespace {

constexpr double kTwoPi = 2.0 * M_PI;

// ------------------------------------------------------ propagation algebra

class PropagationAlgebra
    : public ::testing::TestWithParam<
          std::tuple<optics::KernelType, std::size_t, double>> {};

TEST_P(PropagationAlgebra, AdjointIdentity) {
  const auto [kernel, n, z] = GetParam();
  const optics::GridSpec grid{n, 2e-6};
  Rng rng(100 + n);
  MatrixC xa(n, n), ya(n, n);
  for (auto& v : xa) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  for (auto& v : ya) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const optics::Field x(grid, std::move(xa));
  const optics::Field y(grid, std::move(ya));

  optics::Propagator prop(grid, {{kernel, 532e-9, z}, false});
  const auto px = prop.forward(x);
  const auto psy = prop.adjoint(y);
  std::complex<double> lhs(0.0, 0.0), rhs(0.0, 0.0);
  for (std::size_t i = 0; i < x.values().size(); ++i) {
    lhs += std::conj(px.values()[i]) * y.values()[i];
    rhs += std::conj(x.values()[i]) * psy.values()[i];
  }
  EXPECT_LT(std::abs(lhs - rhs), 1e-9 * (std::abs(lhs) + 1.0));
}

TEST_P(PropagationAlgebra, LinearityOfPropagation) {
  const auto [kernel, n, z] = GetParam();
  const optics::GridSpec grid{n, 2e-6};
  Rng rng(200 + n);
  MatrixC aa(n, n), ba(n, n);
  for (auto& v : aa) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  for (auto& v : ba) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const optics::Field a(grid, aa);
  const optics::Field b(grid, ba);
  const std::complex<double> alpha(0.3, -0.8);

  MatrixC combo(n, n);
  for (std::size_t i = 0; i < combo.size(); ++i) {
    combo[i] = aa[i] + alpha * ba[i];
  }
  optics::Propagator prop(grid, {{kernel, 532e-9, z}, false});
  const auto pa = prop.forward(a);
  const auto pb = prop.forward(b);
  const auto pc = prop.forward(optics::Field(grid, std::move(combo)));
  for (std::size_t i = 0; i < pa.values().size(); ++i) {
    const auto expected = pa.values()[i] + alpha * pb.values()[i];
    EXPECT_LT(std::abs(pc.values()[i] - expected), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, PropagationAlgebra,
    ::testing::Combine(::testing::Values(optics::KernelType::AngularSpectrum,
                                         optics::KernelType::BandLimitedASM,
                                         optics::KernelType::FresnelTF),
                       ::testing::Values<std::size_t>(16, 25, 32),
                       ::testing::Values(0.0, 0.005, 0.02)));

TEST(PropagationAlgebra, ConvolutionTheoremHolds) {
  // Propagation is a circular convolution: P(x)(r) == IFFT(FFT(x) .* H).
  // Verify via an impulse: the propagated impulse IS the kernel's impulse
  // response, and propagating any field equals circularly convolving with
  // that response.
  const std::size_t n = 16;
  const optics::GridSpec grid{n, 2e-6};
  optics::Propagator prop(grid, {{optics::KernelType::AngularSpectrum,
                                  532e-9, 0.01}, false});
  optics::Field impulse(grid);
  impulse(0, 0) = 1.0;
  const auto response = prop.forward(impulse);

  Rng rng(7);
  MatrixC xa(n, n);
  for (auto& v : xa) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const optics::Field x(grid, xa);
  const auto px = prop.forward(x);

  // Direct circular convolution with the impulse response.
  for (std::size_t r = 0; r < n; r += 5) {
    for (std::size_t c = 0; c < n; c += 5) {
      std::complex<double> acc(0.0, 0.0);
      for (std::size_t sr = 0; sr < n; ++sr) {
        for (std::size_t sc = 0; sc < n; ++sc) {
          acc += xa(sr, sc) * response.values()((r + n - sr) % n,
                                                (c + n - sc) % n);
        }
      }
      EXPECT_LT(std::abs(px.values()(r, c) - acc), 1e-9);
    }
  }
}

// ------------------------------------------------------ roughness symmetry

class RoughnessSymmetry
    : public ::testing::TestWithParam<roughness::Neighborhood> {};

TEST_P(RoughnessSymmetry, InvariantUnderTransposeAndFlips) {
  roughness::RoughnessOptions opt;
  opt.neighborhood = GetParam();
  Rng rng(11);
  MatrixD w(9, 9);
  for (auto& v : w) v = rng.uniform(0.0, kTwoPi);

  MatrixD transposed(9, 9), flipped_h(9, 9), flipped_v(9, 9);
  for (std::size_t r = 0; r < 9; ++r) {
    for (std::size_t c = 0; c < 9; ++c) {
      transposed(c, r) = w(r, c);
      flipped_h(r, 8 - c) = w(r, c);
      flipped_v(8 - r, c) = w(r, c);
    }
  }
  const double base = roughness::mask_roughness(w, opt);
  EXPECT_NEAR(roughness::mask_roughness(transposed, opt), base, 1e-9);
  EXPECT_NEAR(roughness::mask_roughness(flipped_h, opt), base, 1e-9);
  EXPECT_NEAR(roughness::mask_roughness(flipped_v, opt), base, 1e-9);
}

TEST_P(RoughnessSymmetry, PositiveHomogeneous) {
  // R(aW) = a R(W) for a >= 0 (both reductions are 1-homogeneous).
  roughness::RoughnessOptions opt;
  opt.neighborhood = GetParam();
  Rng rng(12);
  MatrixD w(7, 7);
  for (auto& v : w) v = rng.uniform(0.0, kTwoPi);
  const double base = roughness::mask_roughness(w, opt);
  for (double a : {0.5, 2.0, 7.25}) {
    MatrixD scaled = w;
    scaled *= a;
    EXPECT_NEAR(roughness::mask_roughness(scaled, opt), a * base,
                1e-9 * a * base);
  }
}

TEST_P(RoughnessSymmetry, TriangleInequalityOverMasks) {
  // R is built from norms of linear maps of W, so R(W1 + W2) <= R(W1)+R(W2).
  roughness::RoughnessOptions opt;
  opt.neighborhood = GetParam();
  Rng rng(13);
  MatrixD a(6, 6), b(6, 6);
  for (auto& v : a) v = rng.uniform(-3.0, 3.0);
  for (auto& v : b) v = rng.uniform(-3.0, 3.0);
  EXPECT_LE(roughness::mask_roughness(a + b, opt),
            roughness::mask_roughness(a, opt) +
                roughness::mask_roughness(b, opt) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Neighborhoods, RoughnessSymmetry,
                         ::testing::Values(roughness::Neighborhood::Four,
                                           roughness::Neighborhood::Eight));

// ------------------------------------------------------- sparsifier ratios

class SparsifierRatios
    : public ::testing::TestWithParam<std::tuple<sparsify::Scheme, double>> {};

TEST_P(SparsifierRatios, AchievedRatioMatchesRequested) {
  const auto [scheme, ratio] = GetParam();
  Rng rng(21);
  MatrixD w(24, 24);
  for (auto& v : w) v = rng.uniform(-1.0, 1.0);
  sparsify::SchemeOptions opt;
  opt.scheme = scheme;
  opt.ratio = ratio;
  opt.block_size = 4;   // divides 24
  opt.bank_size = 4;    // divides 24
  const auto mask = sparsify::sparsify(w, opt);
  EXPECT_NEAR(sparsify::sparsity_ratio(mask), ratio, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SparsifierRatios,
    ::testing::Combine(::testing::Values(sparsify::Scheme::Block,
                                         sparsify::Scheme::NonStructured,
                                         sparsify::Scheme::BankBalanced),
                       ::testing::Values(0.0, 0.25, 0.5, 0.75)));

TEST(SparsifierProperty, MasksAreIdempotentUnderReapplication) {
  Rng rng(22);
  MatrixD w(12, 12);
  for (auto& v : w) v = rng.uniform(-1.0, 1.0);
  const auto mask = sparsify::block_sparsify(w, {3, 0.25});
  MatrixD once = w;
  sparsify::apply_mask(once, mask);
  MatrixD twice = once;
  sparsify::apply_mask(twice, mask);
  EXPECT_EQ(once, twice);
  // Re-deriving the mask from the masked weights keeps the same support
  // (the zeroed blocks have the lowest possible norm).
  const auto mask2 = sparsify::block_sparsify(once, {3, 0.25});
  EXPECT_EQ(sparsify::kept_count(mask2), sparsify::kept_count(mask));
}

// ------------------------------------------------------------- loss algebra

TEST(LossProperty, SoftmaxInvariantToConstantShift) {
  const std::vector<double> logits{0.4, -0.2, 1.1, 0.0};
  auto shifted = logits;
  for (auto& v : shifted) v += 123.0;
  const auto p = donn::softmax(logits);
  const auto q = donn::softmax(shifted);
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_NEAR(p[i], q[i], 1e-12);
}

TEST(LossProperty, TotalPowerNormMakesLossScaleInvariant) {
  donn::LossOptions opt;
  const std::vector<double> sums{0.2, 0.05, 0.6, 0.15};
  auto scaled = sums;
  for (auto& v : scaled) v *= 37.0;
  const auto a = donn::evaluate_loss(sums, 2, opt);
  const auto b = donn::evaluate_loss(scaled, 2, opt);
  EXPECT_NEAR(a.loss, b.loss, 1e-9);
  EXPECT_EQ(a.predicted, b.predicted);
}

TEST(LossProperty, LossDecreasesAsCorrectClassDominates) {
  donn::LossOptions opt;
  double prev = 1e300;
  for (double strength : {1.0, 2.0, 4.0, 8.0}) {
    std::vector<double> sums{1.0, 1.0, 1.0, 1.0};
    sums[2] = strength;
    const double loss = donn::evaluate_loss(sums, 2, opt).loss;
    EXPECT_LT(loss, prev);
    prev = loss;
  }
}

// --------------------------------------------------------------- quantizer

class QuantizerLevels : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuantizerLevels, Idempotent) {
  const std::size_t levels = GetParam();
  Rng rng(31);
  MatrixD phase(8, 8);
  for (auto& v : phase) v = rng.uniform(0.0, kTwoPi);
  const auto once = donn::quantize_phase(phase, {levels});
  const auto twice = donn::quantize_phase(once, {levels});
  EXPECT_LT(max_abs_diff(once, twice), 1e-12);
}

TEST_P(QuantizerLevels, OutputOnLevelGrid) {
  const std::size_t levels = GetParam();
  Rng rng(32);
  MatrixD phase(8, 8);
  for (auto& v : phase) v = rng.uniform(-10.0, 10.0);
  const auto q = donn::quantize_phase(phase, {levels});
  const double step = kTwoPi / static_cast<double>(levels);
  for (std::size_t i = 0; i < q.size(); ++i) {
    const double k = q[i] / step;
    EXPECT_NEAR(k, std::round(k), 1e-9);
    EXPECT_GE(q[i], 0.0);
    EXPECT_LT(q[i], kTwoPi);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, QuantizerLevels,
                         ::testing::Values(2, 3, 4, 8, 16, 256));

// ------------------------------------------------- 2*pi equivalence classes

TEST(TwoPiEquivalence, ForwardModelInvariantToAnyIntegerMultiple) {
  Rng rng(41);
  donn::DonnConfig cfg = donn::DonnConfig::scaled(16);
  cfg.num_layers = 2;
  donn::DonnModel model(cfg, rng);
  MatrixD image(16, 16);
  for (auto& v : image) v = rng.uniform();
  const auto input = optics::encode_image(image, cfg.grid);
  const auto base = model.detector_sums(input);

  auto phases = model.phases();
  Rng pick(42);
  for (auto& phi : phases) {
    for (std::size_t i = 0; i < phi.size(); ++i) {
      // Random integer multiples, including negative ones.
      const long k = static_cast<long>(pick.uniform_index(7)) - 3;
      phi[i] += static_cast<double>(k) * kTwoPi;
    }
  }
  model.set_phases(std::move(phases));
  const auto shifted = model.detector_sums(input);
  for (std::size_t c = 0; c < base.size(); ++c) {
    EXPECT_NEAR(shifted[c], base[c], 1e-8 * (base[c] + 1.0));
  }
}

TEST(TwoPiEquivalence, WrapPhaseIsInferenceIdentity) {
  Rng rng(43);
  donn::DonnConfig cfg = donn::DonnConfig::scaled(16);
  donn::DonnModel model(cfg, rng);
  MatrixD image(16, 16);
  for (auto& v : image) v = rng.uniform();
  const auto input = optics::encode_image(image, cfg.grid);
  const auto base = model.detector_sums(input);

  auto phases = model.phases();
  for (auto& phi : phases) {
    phi += MatrixD(16, 16, 4.0 * kTwoPi);  // push far out of range
    phi = donn::wrap_phase(phi);
  }
  model.set_phases(std::move(phases));
  const auto wrapped = model.detector_sums(input);
  for (std::size_t c = 0; c < base.size(); ++c) {
    EXPECT_NEAR(wrapped[c], base[c], 1e-8 * (base[c] + 1.0));
  }
}

// ----------------------------------------------------------- FFT identities

TEST(FftProperty, ConjugationSymmetry) {
  // FFT(conj(x)) == conj(reverse(FFT(x))) (frequency reversal), on
  // mixed-radix lengths with radix-4/2/3 (24) and radix-2/3 (18) stages.
  for (const std::size_t n : {24, 18}) {
    SCOPED_TRACE("n " + std::to_string(n));
    Rng rng(51);
    std::vector<fft::Cplx> x(n);
    for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    const auto plan = fft::plan_for(n);
    auto fx = x;
    plan->execute(fx.data(), fft::Direction::Forward);
    std::vector<fft::Cplx> cx(n);
    for (std::size_t i = 0; i < n; ++i) cx[i] = std::conj(x[i]);
    plan->execute(cx.data(), fft::Direction::Forward);
    for (std::size_t k = 0; k < n; ++k) {
      const auto expected = std::conj(fx[(n - k) % n]);
      EXPECT_LT(std::abs(cx[k] - expected), 1e-9);
    }
  }
}

TEST(FftProperty, RealInputHasHermitianSpectrum) {
  const std::size_t n = 20;
  Rng rng(52);
  std::vector<fft::Cplx> x(n);
  for (auto& v : x) v = {rng.uniform(-1.0, 1.0), 0.0};
  fft::plan_for(n)->execute(x.data(), fft::Direction::Forward);
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_LT(std::abs(x[k] - std::conj(x[n - k])), 1e-9);
  }
}

}  // namespace
}  // namespace odonn
