// Tests for src/fft: engine selection and the rejection of lengths with a
// prime factor above 5, correctness against the naive DFT, inverse round
// trips, Parseval, linearity, shift theorem, 2-D transforms and frequency
// coordinates — parameterized across radix-2 and mixed-radix sizes (every
// radix-2/3/4/5 stage type, odd lengths, the paper's 200 and its pad2x
// 400). The lane path (Plan::execute_lanes and the frame passes and
// transform_2d built on it) is held to the scalar Plan::execute bit for
// bit, signed zeros included, in every lane-kernel ISA variant the host
// supports (unsupported variants are skipped with the reason).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/fft2d.hpp"
#include "fft/fft_plan.hpp"

#include "support/dft_ref.hpp"

namespace odonn::fft {
namespace {

std::vector<Cplx> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Cplx> signal(n);
  for (auto& v : signal) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return signal;
}

/// A random signal whose entries include +0.0 and -0.0 in both parts.
std::vector<Cplx> signed_zero_signal(std::size_t n, std::uint64_t seed) {
  auto signal = random_signal(n, seed);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 5) {
      case 1: signal[i] = Cplx(0.0, -0.0); break;
      case 2: signal[i] = Cplx(-0.0, signal[i].imag()); break;
      case 3: signal[i] = Cplx(signal[i].real(), -0.0); break;
      default: break;
    }
  }
  return signal;
}

bool same_bits(const std::vector<Cplx>& a, const std::vector<Cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Cplx)) == 0;
}

double max_err(const std::vector<Cplx>& a, const std::vector<Cplx>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(FftPlan, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(200));
  EXPECT_FALSE(is_pow2(0));
}

TEST(FftPlan, EngineSelection) {
  EXPECT_EQ(Plan(64).engine(), Engine::Radix2);
  for (const std::size_t n : {12, 18, 20, 120, 200, 400}) {
    EXPECT_EQ(Plan(n).engine(), Engine::MixedRadix) << n;
  }
  // A length with a prime factor above 5 has no engine: the plan throws a
  // ConfigError naming the next length that has one, even where the search
  // for it runs up against the top of size_t.
  const std::pair<std::size_t, std::size_t> rejected[] = {
      {7, 8},
      {13, 15},
      {17, 18},
      {22, 24},
      {4093, 4096},
      {(std::size_t{1} << 63) - 1, std::size_t{1} << 63}};
  for (const auto& [n, next] : rejected) {
    try {
      Plan plan(n);
      ADD_FAILURE() << "Plan(" << n << ") did not throw";
    } catch (const ConfigError& error) {
      EXPECT_NE(std::string(error.what())
                    .find("next supported length: " + std::to_string(next) +
                          ")"),
                std::string::npos)
          << error.what();
    }
  }
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

/// Error bound against the naive DFT: a few ulps per term of the reference
/// sum, tight enough that a twiddle off in its 8th digit (1e-7 errors) or
/// a misplaced element fails it.
double dft_tolerance(std::size_t n) { return 1e-15 * static_cast<double>(n); }

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 100 + n);
  const auto expected = dft_reference(signal, Direction::Forward);
  Plan(n).execute(signal.data(), Direction::Forward);
  EXPECT_LT(max_err(signal, expected), dft_tolerance(n));
}

TEST_P(FftSizes, InverseMatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 200 + n);
  const auto expected = dft_reference(signal, Direction::Inverse);
  Plan(n).execute(signal.data(), Direction::Inverse);
  EXPECT_LT(max_err(signal, expected), dft_tolerance(n));
}

TEST_P(FftSizes, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const auto original = random_signal(n, 300 + n);
  auto signal = original;
  const Plan plan(n);
  plan.execute(signal.data(), Direction::Forward);
  plan.execute(signal.data(), Direction::Inverse);
  EXPECT_LT(max_err(signal, original), 1e-10 * static_cast<double>(n));
}

TEST_P(FftSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 400 + n);
  double time_energy = 0.0;
  for (const auto& v : signal) time_energy += std::norm(v);
  Plan(n).execute(signal.data(), Direction::Forward);
  double freq_energy = 0.0;
  for (const auto& v : signal) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-8 * time_energy * static_cast<double>(n));
}

TEST_P(FftSizes, Linearity) {
  const std::size_t n = GetParam();
  const auto a = random_signal(n, 500 + n);
  const auto b = random_signal(n, 600 + n);
  const Cplx alpha(0.7, -0.3);
  std::vector<Cplx> combo(n);
  for (std::size_t i = 0; i < n; ++i) combo[i] = a[i] + alpha * b[i];

  auto fa = a, fb = b;
  const Plan plan(n);
  plan.execute(fa.data(), Direction::Forward);
  plan.execute(fb.data(), Direction::Forward);
  plan.execute(combo.data(), Direction::Forward);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(combo[i] - (fa[i] + alpha * fb[i])), 1e-9 * n);
  }
}

TEST_P(FftSizes, ImpulseTransformsToConstant) {
  const std::size_t n = GetParam();
  std::vector<Cplx> signal(n, Cplx(0.0, 0.0));
  signal[0] = Cplx(1.0, 0.0);
  Plan(n).execute(signal.data(), Direction::Forward);
  for (const auto& v : signal) EXPECT_LT(std::abs(v - Cplx(1.0, 0.0)), 1e-10);
}

constexpr LaneIsa kIsas[] = {LaneIsa::Baseline, LaneIsa::Avx2};

std::string isa_label(LaneIsa isa) { return lane_isa_name(isa); }

/// Skips the calling test when this CPU cannot run `isa`'s kernels.
#define SKIP_UNLESS_SUPPORTED(isa)                                        \
  do {                                                                    \
    if (!lane_isa_supported(isa)) {                                       \
      GTEST_SKIP() << lane_isa_name(isa)                                  \
                   << " lane kernels not run: this CPU lacks the ISA";    \
    }                                                                     \
  } while (false)

TEST(LaneIsa, ActiveSetIsSupportedAndBaselineAlwaysIs) {
  EXPECT_TRUE(lane_isa_supported(LaneIsa::Baseline));
  EXPECT_TRUE(lane_isa_supported(active_lane_isa()));
  EXPECT_EQ(active_lane_isa(), lane_isa_supported(LaneIsa::Avx2)
                                   ? LaneIsa::Avx2
                                   : LaneIsa::Baseline);
  if (!lane_isa_supported(LaneIsa::Avx2)) {
    EXPECT_THROW(Plan(8).execute_lanes(nullptr, nullptr, Direction::Forward,
                                       LaneIsa::Avx2),
                 Error);
  }
}

class LaneIsaSizes
    : public ::testing::TestWithParam<std::tuple<LaneIsa, std::size_t>> {};

TEST_P(LaneIsaSizes, ExecuteLanesMatchesExecuteBitwise) {
  const auto [isa, n] = GetParam();
  SKIP_UNLESS_SUPPORTED(isa);
  constexpr std::size_t L = Plan::kLanes;
  // Lane 0 random, lane 1 random with signed zeros, lane 2 a lone impulse
  // in -0.0 padding, lane 3 nothing but signed zeros.
  std::vector<std::vector<Cplx>> lanes = {
      random_signal(n, 700 + n), signed_zero_signal(n, 800 + n),
      std::vector<Cplx>(n, Cplx(-0.0, -0.0)), std::vector<Cplx>(n)};
  lanes[2][n / 2] = Cplx(1.0, -0.5);
  for (std::size_t j = 0; j < n; ++j) {
    lanes[3][j] = Cplx(j % 2 ? -0.0 : 0.0, j % 3 ? 0.0 : -0.0);
  }
  ASSERT_EQ(lanes.size(), L);

  const Plan plan(n);
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    std::vector<double> re(n * L), im(n * L);
    for (std::size_t s = 0; s < L; ++s) {
      for (std::size_t j = 0; j < n; ++j) {
        re[j * L + s] = lanes[s][j].real();
        im[j * L + s] = lanes[s][j].imag();
      }
    }
    plan.execute_lanes(re.data(), im.data(), dir, isa);
    for (std::size_t s = 0; s < L; ++s) {
      auto expected = lanes[s];
      plan.execute(expected.data(), dir);
      std::vector<Cplx> got(n);
      for (std::size_t j = 0; j < n; ++j) {
        got[j] = Cplx(re[j * L + s], im[j * L + s]);
      }
      EXPECT_TRUE(same_bits(got, expected))
          << lane_isa_name(isa) << " lane " << s
          << (dir == Direction::Forward ? " forward" : " inverse");
    }
  }
}

constexpr std::size_t kFftSizes[] = {1,  2,  3,  4,  5,   8,   12,  15,  16,
                                     18, 20, 24, 25, 27,  32,  45,  50,  64,
                                     100, 120, 128, 200, 256, 400};

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizes, ::testing::ValuesIn(kFftSizes));

INSTANTIATE_TEST_SUITE_P(
    Isas, LaneIsaSizes,
    ::testing::Combine(::testing::ValuesIn(kIsas),
                       ::testing::ValuesIn(kFftSizes)),
    [](const ::testing::TestParamInfo<std::tuple<LaneIsa, std::size_t>>& info) {
      return isa_label(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

/// The definition transform_2d must reproduce: Plan::execute on every row,
/// then on every column.
std::vector<Cplx> row_column_reference(std::vector<Cplx> data,
                                       std::size_t rows, std::size_t cols,
                                       Direction dir) {
  const auto row_plan = plan_for(cols);
  const auto col_plan = plan_for(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    row_plan->execute(data.data() + r * cols, dir);
  }
  std::vector<Cplx> col(rows);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) col[r] = data[r * cols + c];
    col_plan->execute(col.data(), dir);
    for (std::size_t r = 0; r < rows; ++r) data[r * cols + c] = col[r];
  }
  return data;
}

class Fft2dShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(Fft2dShapes, MatchesRowColumnReferenceBitwise) {
  const auto [rows, cols] = GetParam();
  const auto input = signed_zero_signal(rows * cols, 900 + rows * 7 + cols);
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    auto data = input;
    transform_2d(data.data(), rows, cols, dir);
    EXPECT_TRUE(same_bits(data, row_column_reference(input, rows, cols, dir)))
        << rows << "x" << cols
        << (dir == Direction::Forward ? " forward" : " inverse");
  }
}

std::vector<std::pair<std::size_t, std::size_t>> fft2d_shapes() {
  // Square shapes over the FftSizes list, plus shapes whose last row or
  // column group is partial.
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  for (const std::size_t n : kFftSizes) shapes.emplace_back(n, n);
  for (const auto& shape : {std::pair<std::size_t, std::size_t>{12, 10},
                            {15, 200}, {200, 15}, {1, 5}, {5, 1}, {9, 9}}) {
    shapes.push_back(shape);
  }
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(Shapes, Fft2dShapes,
                         ::testing::ValuesIn(fft2d_shapes()));

/// Row-major buffer -> frame -> row-major buffer.
std::vector<Cplx> through_frame(const std::vector<Cplx>& data,
                                std::size_t rows, std::size_t cols) {
  Frame frame(rows, cols);
  frame.load(data.data());
  std::vector<Cplx> out(rows * cols);
  frame.store(out.data());
  return out;
}

TEST(Frame, LayoutLoadStoreAndIdleLanes) {
  // Element (r, c) sits at ((r / 4) * cols + c) * 4 + r % 4; the idle lanes
  // of a partial last group load as +0.
  const std::size_t rows = 6, cols = 3;
  std::vector<Cplx> data(rows * cols);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = Cplx(static_cast<double>(i) + 1.0, -static_cast<double>(i));
  }
  Frame frame(rows, cols);
  for (std::size_t i = 0; i < frame.plane_size(); ++i) {
    frame.re()[i] = 7.0;  // stale values load() must overwrite
    frame.im()[i] = 7.0;
  }
  frame.load(data.data());
  EXPECT_EQ(frame.groups(), 2u);
  EXPECT_EQ(frame.plane_size(), 2u * cols * Frame::kLanes);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t f = ((r / 4) * cols + c) * 4 + r % 4;
      EXPECT_EQ(frame.index(r, c), f);
      EXPECT_EQ(frame.re()[f], data[r * cols + c].real());
      EXPECT_EQ(frame.im()[f], data[r * cols + c].imag());
    }
  }
  for (std::size_t r = rows; r < 8; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t f = ((r / 4) * cols + c) * 4 + r % 4;
      EXPECT_TRUE(frame.re()[f] == 0.0 && !std::signbit(frame.re()[f]));
      EXPECT_TRUE(frame.im()[f] == 0.0 && !std::signbit(frame.im()[f]));
    }
  }
  const auto signed_zeros = signed_zero_signal(rows * cols, 1100);
  EXPECT_TRUE(same_bits(through_frame(signed_zeros, rows, cols), signed_zeros));
}

class FrameIsaShapes
    : public ::testing::TestWithParam<
          std::tuple<LaneIsa, std::pair<std::size_t, std::size_t>>> {};

TEST_P(FrameIsaShapes, TransformMatchesRowColumnReferenceBitwise) {
  const auto [isa, shape] = GetParam();
  SKIP_UNLESS_SUPPORTED(isa);
  const auto [rows, cols] = shape;
  const auto input = signed_zero_signal(rows * cols, 1200 + rows * 7 + cols);
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    Frame frame(rows, cols);
    frame.load(input.data());
    transform_2d(frame, dir, isa);
    std::vector<Cplx> got(rows * cols);
    frame.store(got.data());
    EXPECT_TRUE(same_bits(got, row_column_reference(input, rows, cols, dir)))
        << lane_isa_name(isa) << " " << rows << "x" << cols
        << (dir == Direction::Forward ? " forward" : " inverse");
  }
}

TEST_P(FrameIsaShapes, ColumnTransferMatchesComplexMultiplyBitwise) {
  // The column pass with a transfer equals the plain column transforms
  // followed by std::complex's x *= h (or x *= conj(h)) per element.
  const auto [isa, shape] = GetParam();
  SKIP_UNLESS_SUPPORTED(isa);
  const auto [rows, cols] = shape;
  const auto input = signed_zero_signal(rows * cols, 1300 + rows * 7 + cols);
  const auto table = signed_zero_signal(rows * cols, 1400 + rows * 7 + cols);
  Plane h_re, h_im;
  column_lane_planes(table.data(), rows, cols, h_re, h_im);
  const auto col_plan = plan_for(rows);
  for (const bool conjugate : {false, true}) {
    for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
      Frame frame(rows, cols);
      frame.load(input.data());
      const ColumnTransfer transfer{h_re.data(), h_im.data(), conjugate};
      frame_columns(frame, *col_plan, dir, &transfer, isa);
      std::vector<Cplx> got(rows * cols);
      frame.store(got.data());

      std::vector<Cplx> expected = input;
      std::vector<Cplx> col(rows);
      for (std::size_t c = 0; c < cols; ++c) {
        for (std::size_t r = 0; r < rows; ++r) col[r] = expected[r * cols + c];
        col_plan->execute(col.data(), dir);
        for (std::size_t r = 0; r < rows; ++r) expected[r * cols + c] = col[r];
      }
      for (std::size_t i = 0; i < expected.size(); ++i) {
        expected[i] *= conjugate ? std::conj(table[i]) : table[i];
      }
      EXPECT_TRUE(same_bits(got, expected))
          << lane_isa_name(isa) << " " << rows << "x" << cols
          << (conjugate ? " conj" : "")
          << (dir == Direction::Forward ? " forward" : " inverse");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FrameIsaShapes,
    ::testing::Combine(::testing::ValuesIn(kIsas),
                       ::testing::ValuesIn(fft2d_shapes())),
    [](const ::testing::TestParamInfo<
        std::tuple<LaneIsa, std::pair<std::size_t, std::size_t>>>& info) {
      const auto shape = std::get<1>(info.param);
      return isa_label(std::get<0>(info.param)) + "_" +
             std::to_string(shape.first) + "x" + std::to_string(shape.second);
    });

TEST(Fft2d, MatchesNaive2dDft) {
  const std::size_t rows = 12, cols = 10;
  Rng rng(9);
  std::vector<Cplx> data(rows * cols);
  for (auto& v : data) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const auto expected = dft2d_reference(data, rows, cols, Direction::Forward);
  transform_2d(data.data(), rows, cols, Direction::Forward);
  EXPECT_LT(max_err(data, expected), 1e-9);
}

TEST(Fft2d, RoundTrip) {
  const std::size_t rows = 20, cols = 20;
  Rng rng(10);
  std::vector<Cplx> data(rows * cols);
  for (auto& v : data) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const auto original = data;
  transform_2d(data.data(), rows, cols, Direction::Forward);
  transform_2d(data.data(), rows, cols, Direction::Inverse);
  EXPECT_LT(max_err(data, original), 1e-10);
}

TEST(Fft2d, FftFreqsMatchNumpyConvention) {
  const auto f = fft_freqs(8, 0.5);  // spacing 0.5 => df = 1/4
  ASSERT_EQ(f.size(), 8u);
  EXPECT_DOUBLE_EQ(f[0], 0.0);
  EXPECT_DOUBLE_EQ(f[1], 0.25);
  EXPECT_DOUBLE_EQ(f[3], 0.75);
  EXPECT_DOUBLE_EQ(f[4], -1.0);
  EXPECT_DOUBLE_EQ(f[7], -0.25);
}

TEST(Fft2d, FftFreqsOddLength) {
  const auto f = fft_freqs(5, 1.0);
  EXPECT_DOUBLE_EQ(f[0], 0.0);
  EXPECT_DOUBLE_EQ(f[2], 0.4);
  EXPECT_DOUBLE_EQ(f[3], -0.4);
  EXPECT_DOUBLE_EQ(f[4], -0.2);
}

TEST(FftPlan, ShiftTheorem) {
  // Circular shift by s multiplies spectrum by exp(-2 pi i k s / n).
  const std::size_t n = 16, s = 3;
  auto signal = random_signal(n, 77);
  std::vector<Cplx> shifted(n);
  for (std::size_t i = 0; i < n; ++i) shifted[i] = signal[(i + s) % n];

  const Plan plan(n);
  auto f0 = signal;
  plan.execute(f0.data(), Direction::Forward);
  plan.execute(shifted.data(), Direction::Forward);
  for (std::size_t k = 0; k < n; ++k) {
    const double angle = 2.0 * M_PI * static_cast<double>(k * s % n) /
                         static_cast<double>(n);
    const Cplx expected = f0[k] * Cplx(std::cos(angle), std::sin(angle));
    EXPECT_LT(std::abs(shifted[k] - expected), 1e-9);
  }
}

TEST(FftPlan, PlanCacheReturnsSameInstance) {
  const auto a = plan_for(96);
  const auto b = plan_for(96);
  EXPECT_EQ(a.get(), b.get());
}

TEST(FftPlan, PlanCacheRejectsUnsupportedLengthWithoutCountingIt) {
  // Propagators meet the length rule through plan_for: a rejected length
  // throws there, is not cached and is not counted as a built plan.
  const PlanCacheStats before = plan_cache_stats();
  EXPECT_THROW(plan_for(22), ConfigError);
  const PlanCacheStats after = plan_cache_stats();
  EXPECT_EQ(after.cached_lengths, before.cached_lengths);
  EXPECT_EQ(after.misses, before.misses);
}

}  // namespace
}  // namespace odonn::fft
