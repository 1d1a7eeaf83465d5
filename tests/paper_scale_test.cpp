// Exercises the exact paper geometry (§IV-A1): 200x200 grid (mixed-radix
// FFT path, 200 = 2^3 * 5^2), 36 um pixels, 532 nm, 27.94 cm spacing, three
// layers, ten 20x20 detector regions. These tests are heavier than the unit
// suites (a few hundred ms each) but prove the full-scale configuration is
// functional, not just the reduced CPU-sized one.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "donn/model.hpp"
#include "donn/serialize.hpp"
#include "optics/encode.hpp"
#include "roughness/report.hpp"
#include "smooth2pi/two_pi_opt.hpp"
#include "sparsify/block_sparsify.hpp"

namespace odonn {
namespace {

TEST(PaperScale, ConfigMatchesPublishedConstants) {
  const donn::DonnConfig cfg = donn::DonnConfig::paper();
  EXPECT_EQ(cfg.grid.n, 200u);
  EXPECT_DOUBLE_EQ(cfg.grid.pitch, 36e-6);
  EXPECT_DOUBLE_EQ(cfg.wavelength, 532e-9);
  EXPECT_DOUBLE_EQ(cfg.distance, 0.2794);
  EXPECT_EQ(cfg.num_layers, 3u);
  EXPECT_EQ(cfg.detector_size, 20u);
  // Mask physical extent: 200 * 36 um = 7.2 mm (the paper's 720 um x 720 um
  // figure is per 20-pixel detector cell; the full layer is 7.2 mm).
  EXPECT_NEAR(cfg.grid.extent(), 7.2e-3, 1e-12);
}

TEST(PaperScale, ScaledConfigRecoversPaperPitchAt200) {
  const donn::DonnConfig scaled = donn::DonnConfig::scaled(200);
  EXPECT_NEAR(scaled.grid.pitch, 36e-6, 0.05e-6);
}

TEST(PaperScale, ForwardPassEnergyAndDeterminism) {
  Rng rng(1);
  donn::DonnModel model(donn::DonnConfig::paper(), rng);
  MatrixD image(200, 200, 0.0);
  for (std::size_t r = 80; r < 120; ++r) {
    for (std::size_t c = 80; c < 120; ++c) image(r, c) = 1.0;
  }
  const auto input = optics::encode_image(image, model.config().grid);
  const auto sums_a = model.detector_sums(input);
  const auto sums_b = model.detector_sums(input);
  EXPECT_EQ(sums_a, sums_b);
  ASSERT_EQ(sums_a.size(), 10u);
  double total = 0.0;
  for (double s : sums_a) {
    EXPECT_GE(s, 0.0);
    total += s;
  }
  EXPECT_GT(total, 0.0);
  EXPECT_LE(total, 1.0 + 1e-9);  // detector regions capture <= total power

  const auto out = model.propagate_through(input);
  EXPECT_NEAR(out.power(), input.power(), 1e-6 * input.power());
}

TEST(PaperScale, BackwardPassProducesFiniteGradients) {
  Rng rng(2);
  donn::DonnModel model(donn::DonnConfig::paper(), rng);
  MatrixD image(200, 200, 0.0);
  image(100, 100) = 1.0;
  const auto input = optics::encode_image(image, model.config().grid);
  auto grads = model.zero_gradients();
  const auto result = model.forward_backward(input, 3, grads, {});
  EXPECT_TRUE(std::isfinite(result.loss));
  double norm = 0.0;
  for (const auto& g : grads) {
    for (std::size_t i = 0; i < g.size(); ++i) {
      ASSERT_TRUE(std::isfinite(g[i]));
      norm += g[i] * g[i];
    }
  }
  EXPECT_GT(norm, 0.0);
}

TEST(PaperScale, PaperBlockSparsificationGeometry) {
  // Block 25 on the 200-grid: an 8x8 block grid, ratio 0.1 -> 6 zeroed
  // blocks = 3750 pixels = 9.375% (llround(0.1 * 64) = 6).
  Rng rng(3);
  donn::DonnModel model(donn::DonnConfig::paper(), rng);
  const auto mask = sparsify::block_sparsify(model.phases()[0], {25, 0.1});
  EXPECT_NEAR(sparsify::sparsity_ratio(mask), 6.0 * 625.0 / 40000.0, 1e-12);
}

TEST(PaperScale, TwoPiOptimizerRunsOnSparsifiedPaperMask) {
  Rng rng(4);
  MatrixD phi(200, 200);
  for (auto& v : phi) v = 5.0 + rng.uniform(-0.3, 0.3);
  sparsify::apply_mask(phi, sparsify::block_sparsify(phi, {25, 0.1}));
  smooth2pi::TwoPiOptions opt;
  opt.iterations = 600;  // reduced for test runtime; never-worse still holds
  const auto result = smooth2pi::optimize_2pi(phi, opt);
  EXPECT_LE(result.roughness_after, result.roughness_before + 1e-9);
  // The warm start alone lifts the sparsified zeros, which on this mask is
  // already a strict improvement.
  EXPECT_LT(result.roughness_after, result.roughness_before);
}

TEST(PaperScale, SerializationRoundTripAt200) {
  Rng rng(5);
  donn::DonnModel model(donn::DonnConfig::paper(), rng);
  const std::string path = ::testing::TempDir() + "/paper.odnn";
  donn::save_model(model, path);
  const auto loaded = donn::load_model(path);
  EXPECT_EQ(loaded.config().grid.n, 200u);
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    EXPECT_LT(max_abs_diff(loaded.phases()[l], model.phases()[l]), 1e-15);
  }
}

}  // namespace
}  // namespace odonn
