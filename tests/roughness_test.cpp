// Tests for src/roughness: the Eq. 3-4 definitions against the paper's
// printed figures, analytic gradients vs finite differences, the interior
// fast path held bit for bit to the bounds-checked loops, and the
// intra-block variance of Fig. 4.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <string>

#include "common/rng.hpp"
#include "roughness/intra_block.hpp"
#include "roughness/report.hpp"
#include "roughness/roughness.hpp"
#include "sparsify/schemes.hpp"

#include "support/gradcheck.hpp"

namespace odonn::roughness {
namespace {

/// The 6x6 example matrix printed in the paper's Fig. 3 / Fig. 4.
MatrixD figure_matrix() {
  return {{4.7, 5.7, 0.9, 0.4, 2.6, 8.6}, {4.5, 0.9, 3.8, 1.5, 5.4, 3.7},
          {0.1, 5.7, 9.0, 3.2, 2.1, 0.7}, {4.7, 9.7, 7.8, 2.5, 0.8, 3.9},
          {1.1, 0.7, 0.6, 0.1, 4.4, 1.8}, {5.6, 0.4, 1.8, 0.4, 9.8, 2.3}};
}

/// The block selection shown in the figures (derived from Fig. 4's per-block
/// variance grid: blocks (1,0), (1,2), (2,1) are zeroed).
MatrixD figure_block_sparsified() {
  MatrixD w = figure_matrix();
  const auto mask = sparsify::block_mask_from_selection(
      6, 6, 2, {{1, 0}, {1, 2}, {2, 1}});
  sparsify::apply_mask(w, mask);
  return w;
}

TEST(Roughness, ConstantMaskHasOnlyBoundaryRoughness) {
  // All-equal interior values: interior pixels away from the boundary have
  // zero roughness; boundary pixels see the zero padding.
  MatrixD m(5, 5, 2.0);
  const MatrixD map = roughness_map(m);
  EXPECT_NEAR(map(2, 2), 0.0, 1e-9);
  EXPECT_GT(map(0, 0), 0.0);
  EXPECT_GT(map(0, 2), 0.0);
}

TEST(Roughness, SinglePixelFourNeighbor) {
  // Fig. 2 definitional check: one non-zero pixel in the center of a 3x3
  // mask. 4-neighbor at the Fig. 3 normalization (divisor 2k = 8): the
  // center pixel has 4 equal differences of |v|, so
  // R(center) = sqrt(4 v^2)/8 = v/4.
  MatrixD m(3, 3, 0.0);
  m(1, 1) = 2.0;
  RoughnessOptions opt;
  opt.neighborhood = Neighborhood::Four;
  const MatrixD map = roughness_map(m, opt);
  EXPECT_NEAR(map(1, 1), 0.5, 1e-12);
  // Each edge-adjacent neighbor sees exactly one difference of 2.0.
  EXPECT_NEAR(map(0, 1), std::sqrt(4.0) / 8.0, 1e-12);
  // Corner pixels are diagonal to the center: no 4-neighbor difference.
  EXPECT_NEAR(map(0, 0), 0.0, 1e-12);
}

TEST(Roughness, SinglePixelEightNeighborSeesDiagonals) {
  MatrixD m(3, 3, 0.0);
  m(1, 1) = 2.0;
  RoughnessOptions opt;
  opt.neighborhood = Neighborhood::Eight;
  const MatrixD map = roughness_map(m, opt);
  EXPECT_GT(map(0, 0), 0.0);  // corners now see the center diagonally
  EXPECT_NEAR(map(1, 1), std::sqrt(8.0 * 4.0) / 16.0, 1e-12);
}

TEST(Roughness, Fig3BlockValueReproduced) {
  // Paper Fig. 3(a): block-sparsified matrix, 8-neighbor roughness 23.78.
  // The figure does not print WHICH three blocks its illustration zeroes;
  // with the selection recovered from Fig. 4 the score is 22.68, and the
  // best-matching 3-block selection gives 23.69 — so the assertion here is
  // necessarily looser than the non-structured/bank cases. The ordering
  // claim (block lowest) is tested exactly below.
  EXPECT_NEAR(mask_roughness(figure_block_sparsified()), 23.78, 1.2);
}

TEST(Roughness, Fig3NonStructuredValueReproduced) {
  MatrixD w = figure_matrix();
  const auto mask = sparsify::magnitude_sparsify(w, {12.0 / 36.0});
  sparsify::apply_mask(w, mask);
  EXPECT_NEAR(mask_roughness(w), 25.80, 0.15);
}

TEST(Roughness, Fig3BankBalancedValueReproduced) {
  MatrixD w = figure_matrix();
  const auto mask = sparsify::bank_balanced_sparsify(w, {3, 1.0 / 3.0});
  sparsify::apply_mask(w, mask);
  EXPECT_NEAR(mask_roughness(w), 25.88, 0.15);
}

TEST(Roughness, Fig3OrderingBlockLowest) {
  // The figure's claim: block < non-structured and block < bank-balanced at
  // the same sparsity.
  MatrixD block = figure_block_sparsified();
  MatrixD nonstruct = figure_matrix();
  sparsify::apply_mask(nonstruct,
                       sparsify::magnitude_sparsify(nonstruct, {12.0 / 36.0}));
  MatrixD bank = figure_matrix();
  sparsify::apply_mask(bank,
                       sparsify::bank_balanced_sparsify(bank, {3, 1.0 / 3.0}));
  const double rb = mask_roughness(block);
  EXPECT_LT(rb, mask_roughness(nonstruct));
  EXPECT_LT(rb, mask_roughness(bank));
}

TEST(Roughness, SmootherMaskScoresLower) {
  Rng rng(5);
  MatrixD rough(16, 16);
  for (auto& v : rough) v = rng.uniform(0.0, 2.0 * M_PI);
  // Smooth version: 3x3 box blur.
  MatrixD smooth(16, 16, 0.0);
  for (long r = 0; r < 16; ++r) {
    for (long c = 0; c < 16; ++c) {
      double acc = 0.0;
      int cnt = 0;
      for (long dr = -1; dr <= 1; ++dr) {
        for (long dc = -1; dc <= 1; ++dc) {
          const long nr = r + dr, nc = c + dc;
          if (nr < 0 || nc < 0 || nr >= 16 || nc >= 16) continue;
          acc += rough(static_cast<std::size_t>(nr), static_cast<std::size_t>(nc));
          ++cnt;
        }
      }
      smooth(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
          acc / cnt;
    }
  }
  EXPECT_LT(mask_roughness(smooth), mask_roughness(rough));
}

class RoughnessGrad : public ::testing::TestWithParam<Neighborhood> {};

TEST_P(RoughnessGrad, MatchesFiniteDifferences) {
  RoughnessOptions opt;
  opt.neighborhood = GetParam();

  Rng rng(42);
  MatrixD w(6, 6);
  for (auto& v : w) v = rng.uniform(0.5, 6.0);  // away from |d|=0 kinks

  MatrixD analytic(6, 6, 0.0);
  roughness_with_grad(w, analytic, 1.0, opt);
  const MatrixD numeric = donn::numerical_gradient(
      [&](const MatrixD& m) { return mask_roughness(m, opt); }, w, 1e-6);
  EXPECT_LT(donn::gradient_rel_error(analytic, numeric), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, RoughnessGrad,
                         ::testing::Values(Neighborhood::Four,
                                           Neighborhood::Eight));

TEST(Roughness, GradScaleFoldsIntoGradient) {
  MatrixD w = figure_matrix();
  MatrixD g1(6, 6, 0.0), g3(6, 6, 0.0);
  roughness_with_grad(w, g1, 1.0);
  roughness_with_grad(w, g3, 3.0);
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_NEAR(g3[i], 3.0 * g1[i], 1e-12);
  }
}

TEST(Roughness, ValueMatchesMapSum) {
  const MatrixD w = figure_matrix();
  MatrixD g(6, 6, 0.0);
  const double via_grad = roughness_with_grad(w, g, 1.0);
  EXPECT_NEAR(via_grad, mask_roughness(w), 1e-9);
}

TEST(IntraBlock, Fig4AvgVarReproducedExactly) {
  // Paper Fig. 4: 2x2 blocks, three sparsified blocks counted as zero,
  // AvgVar = 4.835 (sample variance).
  const MatrixD w = figure_block_sparsified();
  IntraBlockOptions opt;
  opt.block_size = 2;
  EXPECT_NEAR(intra_block_variance_mean(w, opt), 4.835, 5e-3);
}

TEST(IntraBlock, Fig4PerBlockValues) {
  const MatrixD w = figure_block_sparsified();
  IntraBlockOptions opt;
  opt.block_size = 2;
  const MatrixD map = block_variance_map(w, opt);
  ASSERT_EQ(map.rows(), 3u);
  // The figure prints one decimal; 0.08 covers its display rounding (e.g.
  // the true 6.8492 is shown as 6.9).
  EXPECT_NEAR(map(0, 0), 4.4, 0.08);
  EXPECT_NEAR(map(0, 1), 2.3, 0.08);
  EXPECT_NEAR(map(0, 2), 6.9, 0.08);
  EXPECT_NEAR(map(1, 0), 0.0, 1e-12);
  EXPECT_NEAR(map(1, 1), 10.6, 0.08);
  EXPECT_NEAR(map(1, 2), 0.0, 1e-12);
  EXPECT_NEAR(map(2, 0), 6.0, 0.08);
  EXPECT_NEAR(map(2, 1), 0.0, 1e-12);
  EXPECT_NEAR(map(2, 2), 13.4, 0.08);
}

TEST(IntraBlock, ConstantBlocksHaveZeroVariance) {
  MatrixD w(4, 4, 3.0);
  IntraBlockOptions opt;
  opt.block_size = 2;
  EXPECT_DOUBLE_EQ(intra_block_variance_sum(w, opt), 0.0);
}

TEST(IntraBlock, PartialEdgeTilesUseTrueExtent) {
  // 5x5 mask with block 2 -> 3x3 tile grid including 1-wide edges.
  MatrixD w(5, 5, 0.0);
  w(4, 4) = 2.0;  // bottom-right 1x1 tile: single element, variance 0
  IntraBlockOptions opt;
  opt.block_size = 2;
  const MatrixD map = block_variance_map(w, opt);
  ASSERT_EQ(map.rows(), 3u);
  EXPECT_DOUBLE_EQ(map(2, 2), 0.0);
}

TEST(IntraBlock, GradientMatchesFiniteDifferences) {
  Rng rng(43);
  MatrixD w(6, 6);
  for (auto& v : w) v = rng.uniform(0.0, 5.0);
  IntraBlockOptions opt;
  opt.block_size = 2;

  MatrixD analytic(6, 6, 0.0);
  intra_block_variance_with_grad(w, analytic, 1.0, opt);
  const MatrixD numeric = donn::numerical_gradient(
      [&](const MatrixD& m) { return intra_block_variance_sum(m, opt); }, w,
      1e-6);
  EXPECT_LT(donn::gradient_rel_error(analytic, numeric), 1e-6);
}

// ---------------------------------------------------------------------------
// The bounds-checked reference: every neighbor read and gradient write goes
// through the zero-padding test, pixel by pixel in raster order. The library
// skips those tests inside the one-pixel border and must stay bitwise equal.

struct RefOffset {
  int dr;
  int dc;
};

std::vector<RefOffset> ref_offsets(Neighborhood nb) {
  if (nb == Neighborhood::Four) return {{-1, 0}, {0, -1}, {0, 1}, {1, 0}};
  return {{-1, -1}, {-1, 0}, {-1, 1}, {0, -1},
          {0, 1},   {1, -1}, {1, 0},  {1, 1}};
}

double ref_padded(const MatrixD& m, long r, long c) {
  if (r < 0 || c < 0 || r >= static_cast<long>(m.rows()) ||
      c >= static_cast<long>(m.cols())) {
    return 0.0;
  }
  return m(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
}

MatrixD ref_roughness_map(const MatrixD& mask, const RoughnessOptions& opt) {
  const double k = static_cast<double>(opt.neighborhood) * 2.0;
  MatrixD out(mask.rows(), mask.cols());
  for (std::size_t r = 0; r < mask.rows(); ++r) {
    for (std::size_t c = 0; c < mask.cols(); ++c) {
      const double center = mask(r, c);
      double acc = 0.0;
      for (const RefOffset& o : ref_offsets(opt.neighborhood)) {
        const double d = ref_padded(mask, static_cast<long>(r) + o.dr,
                                    static_cast<long>(c) + o.dc) -
                         center;
        acc += d * d;
      }
      out(r, c) = std::sqrt(acc) / k;
    }
  }
  return out;
}

double ref_roughness_with_grad(const MatrixD& mask, MatrixD& grad,
                               double scale, const RoughnessOptions& opt) {
  const double k = static_cast<double>(opt.neighborhood) * 2.0;
  const long rows = static_cast<long>(mask.rows());
  const long cols = static_cast<long>(mask.cols());
  const auto inside = [&](long r, long c) {
    return r >= 0 && c >= 0 && r < rows && c < cols;
  };
  const auto cell = [&](long r, long c) -> double& {
    return grad(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
  };
  double total = 0.0;
  for (long r = 0; r < rows; ++r) {
    for (long c = 0; c < cols; ++c) {
      const double center = ref_padded(mask, r, c);
      double sum_sq = 1e-12;
      for (const RefOffset& o : ref_offsets(opt.neighborhood)) {
        const double d = ref_padded(mask, r + o.dr, c + o.dc) - center;
        sum_sq += d * d;
      }
      const double root = std::sqrt(sum_sq);
      total += root / k;
      const double inv = scale / (k * root);
      double center_grad = 0.0;
      for (const RefOffset& o : ref_offsets(opt.neighborhood)) {
        const double d = ref_padded(mask, r + o.dr, c + o.dc) - center;
        center_grad -= d * inv;
        if (inside(r + o.dr, c + o.dc)) cell(r + o.dr, c + o.dc) += d * inv;
      }
      cell(r, c) += center_grad;
    }
  }
  return total;
}

bool same_bits(const MatrixD& a, const MatrixD& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Roughness, InteriorFastPathMatchesBoundsCheckedLoopsBitwise) {
  // Masks with exact zeros (and equal neighbors, so d == 0 occurs) on shapes
  // with no interior, a one-pixel interior and a wide one; a non-zero
  // starting gradient checks the accumulation order too.
  const std::array<std::pair<std::size_t, std::size_t>, 5> shapes = {
      {{1, 1}, {1, 7}, {2, 2}, {3, 5}, {64, 64}}};
  Rng rng(91);
  for (const auto& [rows, cols] : shapes) {
    MatrixD mask(rows, cols);
    for (std::size_t i = 0; i < mask.size(); ++i) {
      mask[i] = i % 3 == 0 ? 0.0 : (i % 7 == 1 ? 1.5 : rng.uniform(0.0, 6.3));
    }
    MatrixD start(rows, cols);
    for (auto& v : start) v = rng.uniform(-1.0, 1.0);
    for (const Neighborhood nb : {Neighborhood::Four, Neighborhood::Eight}) {
      RoughnessOptions opt;
      opt.neighborhood = nb;
      const std::string where = std::to_string(rows) + "x" +
                                std::to_string(cols) +
                                (nb == Neighborhood::Four ? " four" : " eight");
      EXPECT_TRUE(
          same_bits(roughness_map(mask, opt), ref_roughness_map(mask, opt)))
          << where;
      MatrixD grad = start;
      MatrixD ref_grad = start;
      const double total = roughness_with_grad(mask, grad, 0.37, opt);
      const double ref_total =
          ref_roughness_with_grad(mask, ref_grad, 0.37, opt);
      EXPECT_EQ(std::memcmp(&total, &ref_total, sizeof(double)), 0) << where;
      EXPECT_TRUE(same_bits(grad, ref_grad)) << where;
    }
  }
}

TEST(Report, OverallIsAverageOfLayers) {
  const MatrixD a = figure_matrix();
  MatrixD b = a;
  b *= 2.0;
  const auto rep = report({a, b});
  ASSERT_EQ(rep.per_layer.size(), 2u);
  EXPECT_NEAR(rep.per_layer[1], 2.0 * rep.per_layer[0], 1e-9);
  EXPECT_NEAR(rep.overall, (rep.per_layer[0] + rep.per_layer[1]) / 2.0, 1e-12);
}

}  // namespace
}  // namespace odonn::roughness
