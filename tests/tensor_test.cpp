// Tests for src/tensor: Matrix semantics, block access, statistics and
// resampling.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/matrix.hpp"
#include "tensor/resize.hpp"
#include "tensor/stats.hpp"

namespace odonn {
namespace {

TEST(Matrix, InitializerListAndAccess) {
  MatrixD m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_THROW(m.at(2, 0), ShapeError);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((MatrixD{{1.0, 2.0}, {3.0}}), ShapeError);
}

TEST(Matrix, ArithmeticAndHadamard) {
  MatrixD a = {{1.0, 2.0}, {3.0, 4.0}};
  MatrixD b = {{10.0, 20.0}, {30.0, 40.0}};
  const MatrixD sum = a + b;
  EXPECT_DOUBLE_EQ(sum(1, 1), 44.0);
  const MatrixD diff = b - a;
  EXPECT_DOUBLE_EQ(diff(0, 0), 9.0);
  const MatrixD scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
  const MatrixD had = hadamard(a, b);
  EXPECT_DOUBLE_EQ(had(0, 1), 40.0);
  MatrixD c(3, 3);
  EXPECT_THROW(a += c, ShapeError);
}

TEST(Matrix, SumMapTransform) {
  MatrixD m = {{1.0, -2.0}, {3.0, -4.0}};
  EXPECT_DOUBLE_EQ(m.sum(), -2.0);
  const auto abs_m = m.map([](double v) { return std::abs(v); });
  EXPECT_DOUBLE_EQ(abs_m.sum(), 10.0);
  m.transform([](double v) { return v * v; });
  EXPECT_DOUBLE_EQ(m(1, 1), 16.0);
}

TEST(Matrix, NormsAndDiff) {
  MatrixD a = {{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(frobenius_norm(a), 5.0);
  MatrixD b = a;
  b(0, 0) = 3.5;
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.5);
  MatrixC c(2, 2, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(frobenius_norm(c), 10.0);
}

TEST(Stats, MeanVarianceStddev) {
  MatrixD m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(mean(m), 2.5);
  EXPECT_DOUBLE_EQ(variance(m), 1.25);  // population variance
  EXPECT_DOUBLE_EQ(stddev(m), std::sqrt(1.25));
  EXPECT_DOUBLE_EQ(min_value(m), 1.0);
  EXPECT_DOUBLE_EQ(max_value(m), 4.0);
}

TEST(Stats, PercentileMatchesNumpyConvention) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 1.75);
  EXPECT_THROW(percentile({}, 50.0), Error);
  EXPECT_THROW(percentile({1.0}, 101.0), Error);
}

TEST(Stats, NearestRankBoundaryRanks) {
  // The repo-wide nearest-rank rule (serve latency percentiles and fab
  // robustness percentiles both route through this): rank = ceil(q*n),
  // 1-based, clamped to [1, n].
  EXPECT_EQ(nearest_rank(0.0, 5), 1u);   // q=0 -> the minimum
  EXPECT_EQ(nearest_rank(1.0, 5), 5u);   // q=1 -> the maximum
  EXPECT_EQ(nearest_rank(0.5, 4), 2u);   // q*n integral (exact double)
  EXPECT_EQ(nearest_rank(0.25, 4), 1u);  // q*n == 1 exactly
  EXPECT_EQ(nearest_rank(0.5, 5), 3u);   // interior: ceil(2.5)
  EXPECT_EQ(nearest_rank(0.95, 4), 4u);  // interior: ceil(3.8)
  for (double q : {0.0, 0.3, 0.5, 1.0}) {
    EXPECT_EQ(nearest_rank(q, 1), 1u);  // n=1: every quantile is the sample
  }
  // Regression: q*n integral in exact arithmetic but one ulp HIGH in
  // doubles (0.05 * 20 == 1.0000000000000002) must not skip to rank 2 —
  // the bug the old fab implementation papered over with a +0.999999 ceil.
  EXPECT_EQ(nearest_rank(0.05, 20), 1u);
  EXPECT_EQ(nearest_rank(0.15, 20), 3u);
  EXPECT_THROW(nearest_rank(0.5, 0), Error);
  EXPECT_THROW(nearest_rank(-0.1, 4), Error);
  EXPECT_THROW(nearest_rank(1.1, 4), Error);
}

TEST(Stats, PercentileNearestRankSelectsSortedSample) {
  std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 0.25), 1.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 0.51), 3.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile_nearest_rank({7.5}, 0.0), 7.5);
  EXPECT_THROW(percentile_nearest_rank({}, 0.5), Error);
}

TEST(Stats, AbsPercentile) {
  MatrixD m = {{-4.0, 1.0}, {2.0, -3.0}};
  EXPECT_DOUBLE_EQ(abs_percentile(m, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(abs_percentile(m, 0.0), 1.0);
}

TEST(Resize, IdentityWhenSameSize) {
  MatrixD m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_LT(max_abs_diff(bilinear_resize(m, 2, 2), m), 1e-12);
}

TEST(Resize, CornersArePreserved) {
  MatrixD m = {{1.0, 2.0}, {3.0, 4.0}};
  const MatrixD up = bilinear_resize(m, 9, 9);
  EXPECT_DOUBLE_EQ(up(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(up(0, 8), 2.0);
  EXPECT_DOUBLE_EQ(up(8, 0), 3.0);
  EXPECT_DOUBLE_EQ(up(8, 8), 4.0);
  // Center is the average of the corners.
  EXPECT_NEAR(up(4, 4), 2.5, 1e-12);
}

TEST(Resize, ValuesStayWithinInputRange) {
  Rng rng(3);
  MatrixD m(7, 7);
  for (std::size_t i = 0; i < m.size(); ++i) m[i] = rng.uniform();
  const MatrixD up = bilinear_resize(m, 29, 29);
  for (std::size_t i = 0; i < up.size(); ++i) {
    EXPECT_GE(up[i], min_value(m) - 1e-12);
    EXPECT_LE(up[i], max_value(m) + 1e-12);
  }
}

}  // namespace
}  // namespace odonn
