// Tests for src/optics: propagation physics (energy conservation, adjoint
// identity, semigroup property, agreement with the direct Rayleigh-
// Sommerfeld reference), kernels and encoding, and the frame propagation
// path held bit for bit to transform_2d + H multiply + transform_2d.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/fft2d.hpp"
#include "optics/encode.hpp"
#include "optics/field.hpp"
#include "optics/grid.hpp"
#include "optics/kernels.hpp"
#include "optics/propagate.hpp"

#include "support/rs_direct.hpp"

namespace odonn::optics {
namespace {

constexpr double kLambda = 532e-9;

GridSpec test_grid(std::size_t n = 32) {
  // Pitch chosen so the pixel pitch exceeds lambda/2: every spatial
  // frequency on the grid is propagating (no evanescent loss), which makes
  // the ASM operator exactly unitary.
  return {n, 2e-6};
}

Field random_field(const GridSpec& grid, std::uint64_t seed) {
  Rng rng(seed);
  MatrixC amp(grid.n, grid.n);
  for (auto& v : amp) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return Field(grid, std::move(amp));
}

Field gaussian_beam(const GridSpec& grid, double waist_fraction = 0.15) {
  const auto coords = spatial_coords(grid);
  const double waist = grid.extent() * waist_fraction;
  MatrixC amp(grid.n, grid.n);
  for (std::size_t r = 0; r < grid.n; ++r) {
    for (std::size_t c = 0; c < grid.n; ++c) {
      const double rr = coords[r] * coords[r] + coords[c] * coords[c];
      amp(r, c) = {std::exp(-rr / (waist * waist)), 0.0};
    }
  }
  Field f(grid, std::move(amp));
  f.normalize_power();
  return f;
}

std::complex<double> inner(const Field& a, const Field& b) {
  std::complex<double> acc(0.0, 0.0);
  for (std::size_t i = 0; i < a.values().size(); ++i) {
    acc += std::conj(a.values()[i]) * b.values()[i];
  }
  return acc;
}

TEST(Grid, ValidateRejectsBadSpecs) {
  EXPECT_THROW(validate({1, 1e-6}), ConfigError);
  EXPECT_THROW(validate({16, 0.0}), ConfigError);
  EXPECT_NO_THROW(validate({16, 1e-6}));
}

TEST(Grid, SpatialCoordsAreCenteredAndSpaced) {
  const GridSpec grid{8, 2.0};
  const auto x = spatial_coords(grid);
  EXPECT_DOUBLE_EQ(x[4], 0.0);  // center sample at n/2
  EXPECT_DOUBLE_EQ(x[5] - x[4], 2.0);
  EXPECT_DOUBLE_EQ(x[0], -8.0);
}

TEST(Field, PowerAndNormalization) {
  Field f = random_field(test_grid(16), 1);
  f.normalize_power(2.5);
  EXPECT_NEAR(f.power(), 2.5, 1e-12);
  const MatrixD intensity = f.intensity();
  EXPECT_NEAR(intensity.sum(), 2.5, 1e-12);
}

TEST(Field, ZeroFieldNormalizeIsNoop) {
  Field f(test_grid(8));
  f.normalize_power();
  EXPECT_DOUBLE_EQ(f.power(), 0.0);
}

TEST(Kernels, ParseNames) {
  EXPECT_EQ(parse_kernel("asm"), KernelType::AngularSpectrum);
  EXPECT_EQ(parse_kernel("BLASM"), KernelType::BandLimitedASM);
  EXPECT_EQ(parse_kernel("fresnel"), KernelType::FresnelTF);
  EXPECT_THROW(parse_kernel("warp"), ConfigError);
}

TEST(Kernels, ZeroDistanceIsIdentityKernel) {
  const auto h = transfer_function(test_grid(16), {KernelType::AngularSpectrum,
                                                   kLambda, 0.0});
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_LT(std::abs(h[i] - std::complex<double>(1.0, 0.0)), 1e-12);
  }
}

TEST(Kernels, PropagatingBandHasUnitMagnitude) {
  const auto grid = test_grid(32);
  const auto h = transfer_function(grid, {KernelType::AngularSpectrum,
                                          kLambda, 0.01});
  for (std::size_t i = 0; i < h.size(); ++i) {
    EXPECT_NEAR(std::abs(h[i]), 1.0, 1e-12);  // all-propagating grid
  }
}

TEST(Kernels, EvanescentComponentsDecay) {
  // Sub-wavelength pitch puts high frequencies beyond 1/lambda.
  const GridSpec grid{32, 0.2e-6};
  const auto h = transfer_function(grid, {KernelType::AngularSpectrum,
                                          kLambda, 5e-6});
  // The highest frequency bin should be strongly attenuated.
  const std::size_t mid = 16;
  EXPECT_LT(std::abs(h(mid, mid)), 0.1);
  EXPECT_NEAR(std::abs(h(0, 0)), 1.0, 1e-12);
}

TEST(Kernels, BandLimitedZeroesAliasedFrequencies) {
  const auto grid = test_grid(32);
  // Large z so the band limit bites.
  const auto h = transfer_function(grid, {KernelType::BandLimitedASM,
                                          kLambda, 0.5});
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (std::abs(h[i]) == 0.0) ++zeros;
  }
  EXPECT_GT(zeros, h.size() / 4);
  EXPECT_NEAR(std::abs(h(0, 0)), 1.0, 1e-12);  // DC survives
}

TEST(Propagate, EnergyConservedOnPropagatingGrid) {
  const auto grid = test_grid(32);
  const Field in = random_field(grid, 2);
  Propagator prop(grid, {{KernelType::AngularSpectrum, kLambda, 0.02}, false});
  const Field out = prop.forward(in);
  EXPECT_NEAR(out.power(), in.power(), 1e-9 * in.power());
}

TEST(Propagate, ZeroDistanceIsIdentity) {
  const auto grid = test_grid(16);
  const Field in = random_field(grid, 3);
  Propagator prop(grid, {{KernelType::AngularSpectrum, kLambda, 0.0}, false});
  const Field out = prop.forward(in);
  EXPECT_LT(max_abs_diff(out.values(), in.values()), 1e-11);
}

TEST(Propagate, AdjointIdentityHolds) {
  // <P x, y> == <x, P* y> for random fields.
  const auto grid = test_grid(24);
  const Field x = random_field(grid, 4);
  const Field y = random_field(grid, 5);
  for (bool pad : {false, true}) {
    Propagator prop(grid, {{KernelType::AngularSpectrum, kLambda, 0.015}, pad});
    const auto lhs = inner(prop.forward(x), y);
    const auto rhs = inner(x, prop.adjoint(y));
    EXPECT_LT(std::abs(lhs - rhs), 1e-10 * std::abs(lhs) + 1e-12);
  }
}

/// One propagator geometry the frame path must reproduce exactly.
struct FrameCase {
  const char* name;
  std::size_t n;
  bool pad2x;
};

/// A 2-D FFT by definition: Plan::execute on every row, then every column.
void reference_2d(MatrixC& m, fft::Direction dir) {
  const auto plan = fft::plan_for(m.cols());
  std::vector<std::complex<double>> col(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    plan->execute(m.data() + r * m.cols(), dir);
  }
  for (std::size_t c = 0; c < m.cols(); ++c) {
    for (std::size_t r = 0; r < m.rows(); ++r) col[r] = m(r, c);
    plan->execute(col.data(), dir);
    for (std::size_t r = 0; r < m.rows(); ++r) m(r, c) = col[r];
  }
}

/// The definition the frame path must match bit for bit: centered zero-pad
/// (pad2x), 2-D FFT, std::complex multiply by H (or conj H), inverse 2-D
/// FFT, centered crop.
MatrixC reference_propagation(const Propagator& prop, const MatrixC& values,
                              bool adjoint) {
  const std::size_t n = values.rows();
  const GridSpec& grid = prop.grid();
  const std::size_t wn = prop.options().pad2x ? 2 * n : n;
  const MatrixC h =
      transfer_function({wn, grid.pitch}, prop.options().kernel);
  const std::size_t off = (wn - n) / 2;
  MatrixC work(wn, wn, std::complex<double>(0.0, 0.0));
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) work(off + r, off + c) = values(r, c);
  }
  reference_2d(work, fft::Direction::Forward);
  for (std::size_t i = 0; i < work.size(); ++i) {
    work[i] *= adjoint ? std::conj(h[i]) : h[i];
  }
  reference_2d(work, fft::Direction::Inverse);
  MatrixC out(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) out(r, c) = work(off + r, off + c);
  }
  return out;
}

bool same_bits(const MatrixC& a, const MatrixC& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(std::complex<double>)) == 0;
}

class FramePropagation : public ::testing::TestWithParam<FrameCase> {};

TEST_P(FramePropagation, MatchesTransformMultiplyTransformBitwise) {
  // Forward and adjoint, through both entry points, over three chained
  // hops with one reused workspace: the frame path and the Field entry
  // points both equal the reference.
  const FrameCase c = GetParam();
  const GridSpec grid = test_grid(c.n);
  const Propagator prop(grid,
                        {{KernelType::AngularSpectrum, kLambda, 0.01}, c.pad2x});
  Propagator::Workspace workspace;
  for (const bool adjoint : {false, true}) {
    MatrixC expected = random_field(grid, 60 + c.n).values();
    fft::Frame frame(c.n, c.n);
    frame.load(expected.data());
    Field field(grid, expected);
    for (std::size_t hop = 0; hop < 3; ++hop) {
      expected = reference_propagation(prop, expected, adjoint);
      if (adjoint) {
        prop.adjoint_frame(frame, workspace);
        field = prop.adjoint(field);
      } else {
        prop.forward_frame(frame, workspace);
        field = prop.forward(field);
      }
      MatrixC from_frame(c.n, c.n);
      frame.store(from_frame.data());
      const std::string where = std::string(c.name) +
                                (adjoint ? " adjoint" : " forward") +
                                " hop " + std::to_string(hop);
      EXPECT_TRUE(same_bits(from_frame, expected)) << where;
      EXPECT_TRUE(same_bits(field.values(), expected)) << where;
    }
  }
}

TEST(FramePropagationShape, RejectsFrameOfAnotherGrid) {
  const Propagator prop(test_grid(16),
                        {{KernelType::AngularSpectrum, kLambda, 0.01}, false});
  Propagator::Workspace workspace;
  fft::Frame frame(12, 16);
  EXPECT_THROW(prop.forward_frame(frame, workspace), ShapeError);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, FramePropagation,
    ::testing::Values(FrameCase{"radix2_n32", 32, false},
                      FrameCase{"mixed_radix_n20", 20, false},
                      FrameCase{"mixed_radix_n18", 18, false},
                      FrameCase{"pad2x_n16", 16, true},
                      FrameCase{"pad2x_n25", 25, true},
                      FrameCase{"odd_n25", 25, false}),
    [](const ::testing::TestParamInfo<FrameCase>& info) {
      return std::string(info.param.name);
    });

TEST(Propagate, SemigroupComposition) {
  // P(z1) P(z2) == P(z1 + z2) for the unpadded transfer-function method.
  const auto grid = test_grid(32);
  const Field in = gaussian_beam(grid);
  const Propagator whole(grid,
                         {{KernelType::AngularSpectrum, kLambda, 0.02}, false});
  const Propagator quarter(
      grid, {{KernelType::AngularSpectrum, kLambda, 0.02 / 4.0}, false});
  const Field direct = whole.forward(in);
  Field stepped = in;
  for (int step = 0; step < 4; ++step) stepped = quarter.forward(stepped);
  EXPECT_LT(max_abs_diff(direct.values(), stepped.values()), 1e-9);
}

TEST(Propagate, ForwardThenBackwardDistanceRestoresField) {
  // P(z) followed by the adjoint (= back-propagation for unitary H) is the
  // identity on an all-propagating grid.
  const auto grid = test_grid(32);
  const Field in = random_field(grid, 6);
  Propagator prop(grid, {{KernelType::AngularSpectrum, kLambda, 0.01}, false});
  const Field back = prop.adjoint(prop.forward(in));
  EXPECT_LT(max_abs_diff(back.values(), in.values()), 1e-10);
}

TEST(Propagate, MatchesDirectRayleighSommerfeld) {
  // Spectral ASM and the O(n^4) direct RS convolution agree on a centered
  // Gaussian beam — but only in a geometry where the directly sampled RS
  // kernel is Nyquist-adequate: the kernel's local fringe frequency
  // k*(x/r)*pitch must stay below pi, i.e. max offset / z <= lambda/(2*pitch).
  // 32 x 16 um window, z = 60 mm satisfies that with margin while the beam
  // (waist 0.12 * aperture) stays inside the window.
  const GridSpec grid{32, 16e-6};
  const double z = 0.06;
  const Field in = gaussian_beam(grid, 0.12);
  Propagator prop(grid, {{KernelType::AngularSpectrum, kLambda, z}, true});
  const Field spectral = prop.forward(in);
  const Field direct = rs_direct_propagate(in, kLambda, z);

  const auto corr = inner(spectral, direct);
  const double denom = std::sqrt(spectral.power() * direct.power());
  EXPECT_GT(std::abs(corr) / denom, 0.95);
}

TEST(Propagate, FresnelAgreesWithAsmInParaxialRegime) {
  const GridSpec grid{32, 10e-6};
  const double z = 0.05;  // strongly paraxial at this aperture
  const Field in = gaussian_beam(grid, 0.12);
  Propagator asm_prop(grid, {{KernelType::AngularSpectrum, kLambda, z}, false});
  Propagator fre_prop(grid, {{KernelType::FresnelTF, kLambda, z}, false});
  const Field a = asm_prop.forward(in);
  const Field f = fre_prop.forward(in);
  const auto corr = inner(a, f);
  EXPECT_GT(std::abs(corr) / std::sqrt(a.power() * f.power()), 0.999);
}

TEST(Encode, AmplitudeEncodingNormalizesPower) {
  MatrixD image(16, 16, 0.0);
  image(8, 8) = 1.0;
  image(8, 9) = 0.5;
  const GridSpec grid{16, 1e-6};
  const Field f = encode_image(image, grid);
  EXPECT_NEAR(f.power(), 1.0, 1e-12);
  EXPECT_GT(std::abs(f(8, 8)), std::abs(f(8, 9)));
}

TEST(Encode, ShapeMismatchThrows) {
  MatrixD image(8, 8, 0.1);
  EXPECT_THROW(encode_image(image, {16, 1e-6}), ShapeError);
}

}  // namespace
}  // namespace odonn::optics
