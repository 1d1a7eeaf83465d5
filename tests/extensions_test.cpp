// Tests for the extension modules: discrete phase levels (donn/discrete),
// the fabrication/thickness domain (optics/fabrication), Gaussian-beam
// analytics as a physics reference (optics/beams), model serialization
// (donn/serialize) and simulated annealing 2*pi (smooth2pi/anneal).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "donn/discrete.hpp"
#include "donn/reflection.hpp"
#include "donn/serialize.hpp"
#include "optics/fabrication.hpp"
#include "optics/propagate.hpp"
#include "smooth2pi/anneal.hpp"
#include "sparsify/block_sparsify.hpp"
#include "train/trainer.hpp"

#include "support/beams.hpp"

namespace odonn {
namespace {

constexpr double kTwoPi = 2.0 * M_PI;

// ---------------------------------------------------------------- discrete

TEST(Discrete, QuantizeSnapsToNearestLevel) {
  MatrixD phase = {{0.1, 1.5}, {3.2, 6.2}};
  donn::QuantizeOptions opt;
  opt.levels = 4;  // levels at 0, pi/2, pi, 3pi/2
  const MatrixD q = donn::quantize_phase(phase, opt);
  EXPECT_NEAR(q(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(q(0, 1), M_PI / 2.0, 1e-12);
  EXPECT_NEAR(q(1, 0), M_PI, 1e-12);
  EXPECT_NEAR(q(1, 1), 0.0, 1e-12);  // 6.2 is nearest to 2*pi == level 0
}

TEST(Discrete, QuantizeWrapsOutOfRangeValues) {
  MatrixD phase = {{-0.2, 7.0}};
  const MatrixD q = donn::quantize_phase(phase, {16});
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_GE(q[i], 0.0);
    EXPECT_LT(q[i], kTwoPi);
  }
}

TEST(Discrete, ErrorDecreasesWithMoreLevels) {
  Rng rng(1);
  MatrixD phase(16, 16);
  for (auto& v : phase) v = rng.uniform(0.0, kTwoPi);
  double prev = 1e300;
  for (std::size_t levels : {2u, 4u, 8u, 16u, 64u}) {
    const double err = donn::quantization_error(phase, {levels});
    EXPECT_LT(err, prev);
    // Mean |error| of uniform phases vs k levels ~ step/4.
    EXPECT_NEAR(err, kTwoPi / static_cast<double>(levels) / 4.0,
                kTwoPi / static_cast<double>(levels) / 8.0);
    prev = err;
  }
}

TEST(Discrete, IndicesMatchQuantizedValues) {
  Rng rng(2);
  MatrixD phase(8, 8);
  for (auto& v : phase) v = rng.uniform(0.0, kTwoPi);
  donn::QuantizeOptions opt;
  opt.levels = 8;
  const auto idx = donn::quantize_indices(phase, opt);
  const auto q = donn::quantize_phase(phase, opt);
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_LT(idx[i], 8u);
    EXPECT_NEAR(q[i], static_cast<double>(idx[i]) * kTwoPi / 8.0, 1e-12);
  }
}

TEST(Discrete, SteQuantizerForwardsQuantizedPhases) {
  Rng rng(3);
  std::vector<MatrixD> latent{MatrixD(4, 4), MatrixD(4, 4)};
  for (auto& layer : latent) {
    for (auto& v : layer) v = rng.uniform(0.0, kTwoPi);
  }
  donn::StePhaseQuantizer ste({8});
  const auto q = ste.forward(latent);
  ASSERT_EQ(q.size(), 2u);
  for (std::size_t l = 0; l < 2; ++l) {
    EXPECT_LT(max_abs_diff(q[l], donn::quantize_phase(latent[l], {8})),
              1e-15);
  }
  // STE backward is the identity.
  const auto& grads = ste.backward(latent);
  EXPECT_EQ(&grads, &latent);
}

TEST(Discrete, GumbelLevelSampleIsDistribution) {
  Rng rng(4);
  std::vector<MatrixD> logits(4, MatrixD(3, 3, 0.0));
  logits[2].fill(3.0);  // strongly prefer level 2
  const auto sample = donn::gumbel_level_sample(logits, 0.5, rng, false);
  for (std::size_t i = 0; i < 9; ++i) {
    double total = 0.0;
    for (const auto& p : sample.probs) total += p[i];
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_GT(sample.probs[2][i], 0.95);
    // Soft phase close to level 2's phase (2 * 2pi/4 = pi).
    EXPECT_NEAR(sample.soft_phase[i], M_PI, 0.3);
  }
}

TEST(Discrete, GumbelLevelSampleLowTauApproachesArgmax) {
  Rng rng(5);
  std::vector<MatrixD> logits(3, MatrixD(2, 2, 0.0));
  logits[1].fill(1.0);
  const auto hot = donn::gumbel_level_sample(logits, 5.0, rng, false);
  const auto cold = donn::gumbel_level_sample(logits, 0.05, rng, false);
  EXPECT_GT(cold.probs[1](0, 0), hot.probs[1](0, 0));
  EXPECT_GT(cold.probs[1](0, 0), 0.999);
}

TEST(Discrete, Validation) {
  MatrixD phase(2, 2, 0.0);
  EXPECT_THROW(donn::quantize_phase(phase, {1}), Error);
  Rng rng(6);
  std::vector<MatrixD> one(1, MatrixD(2, 2, 0.0));
  EXPECT_THROW(donn::gumbel_level_sample(one, 1.0, rng), Error);
}

// ------------------------------------------------------------- fabrication

TEST(Fabrication, ZoneHeightMatchesFormula) {
  optics::MaterialSpec mat;
  mat.refractive_index = 1.5;
  mat.wavelength = 600e-9;
  EXPECT_NEAR(mat.zone_height(), 1.2e-6, 1e-12);
}

TEST(Fabrication, PhaseThicknessRoundTrip) {
  Rng rng(7);
  MatrixD phase(8, 8);
  for (auto& v : phase) v = rng.uniform(0.0, 3.0 * kTwoPi);  // multi-zone
  optics::MaterialSpec mat;
  const MatrixD t = optics::phase_to_thickness(phase, mat, /*wrap=*/false);
  const MatrixD back = optics::thickness_to_phase(t, mat);
  EXPECT_LT(max_abs_diff(back, phase), 1e-9);
}

TEST(Fabrication, WrappedReliefStaysWithinOneZone) {
  MatrixD phase = {{0.0, kTwoPi + 1.0}, {3.0 * kTwoPi - 0.1, 2.0}};
  optics::MaterialSpec mat;
  const MatrixD t = optics::phase_to_thickness(phase, mat, /*wrap=*/true);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t[i], 0.0);
    EXPECT_LT(t[i], mat.zone_height() + 1e-15);
  }
}

TEST(Fabrication, ThicknessReportTracksRoughness) {
  Rng rng(8);
  MatrixD rough(12, 12);
  for (auto& v : rough) v = rng.uniform(0.0, kTwoPi);
  MatrixD smooth(12, 12, 3.0);
  optics::MaterialSpec mat;
  const auto rough_report = optics::thickness_report(rough, mat);
  const auto smooth_report = optics::thickness_report(smooth, mat);
  EXPECT_GT(rough_report.roughness_um, smooth_report.roughness_um);
  EXPECT_GT(rough_report.max_height_um, 0.0);
  EXPECT_GT(rough_report.mean_height_um, 0.0);
}

TEST(Fabrication, TwoPiLiftAddsExactlyOneZone) {
  // The 2*pi optimizer's physical meaning: +2*pi == one extra zone height.
  MatrixD phase = {{1.0}};
  MatrixD lifted = {{1.0 + kTwoPi}};
  optics::MaterialSpec mat;
  const double t0 = optics::phase_to_thickness(phase, mat, false)(0, 0);
  const double t1 = optics::phase_to_thickness(lifted, mat, false)(0, 0);
  EXPECT_NEAR(t1 - t0, mat.zone_height(), 1e-12);
}

TEST(Fabrication, Validation) {
  MatrixD phase(2, 2, 1.0);
  optics::MaterialSpec bad;
  bad.refractive_index = 1.0;
  EXPECT_THROW(optics::phase_to_thickness(phase, bad), Error);
}

// ------------------------------------------------------------------- beams

TEST(Beams, RayleighRangeAndRadius) {
  optics::GaussianBeam beam;
  beam.wavelength = 532e-9;
  beam.waist = 100e-6;
  const double zr = beam.rayleigh_range();
  EXPECT_NEAR(zr, M_PI * 1e-8 / 532e-9, 1e-6);
  EXPECT_DOUBLE_EQ(beam.radius_at(0.0), beam.waist);
  EXPECT_NEAR(beam.radius_at(zr), beam.waist * std::sqrt(2.0), 1e-12);
}

TEST(Beams, MeasuredRadiusMatchesAnalyticAtWaist) {
  optics::GaussianBeam beam;
  beam.waist = 80e-6;
  const optics::GridSpec grid{64, 8e-6};  // 512 um window
  const auto field = beam.sample_waist(grid);
  EXPECT_NEAR(optics::measured_beam_radius(field), beam.waist,
              0.03 * beam.waist);
}

TEST(Beams, NumericalPropagationMatchesAnalyticWaistGrowth) {
  // The physics acid test: propagate the sampled waist with the angular
  // spectrum method and compare the measured radius against w(z).
  optics::GaussianBeam beam;
  beam.waist = 60e-6;
  const optics::GridSpec grid{96, 8e-6};  // 768 um window
  const double z = 2.0 * beam.rayleigh_range();

  optics::Field field = beam.sample_waist(grid);
  optics::Propagator prop(grid, {{optics::KernelType::AngularSpectrum,
                                  beam.wavelength, z}, true});
  field = prop.forward(field);
  const double expected = beam.radius_at(z);
  EXPECT_NEAR(optics::measured_beam_radius(field), expected, 0.05 * expected);
}

// --------------------------------------------------------------- serialize

TEST(Serialize, RoundTripPreservesModel) {
  Rng rng(9);
  donn::DonnConfig cfg = donn::DonnConfig::scaled(16);
  cfg.num_layers = 2;
  donn::DonnModel model(cfg, rng);
  std::vector<sparsify::SparsityMask> masks;
  for (std::size_t l = 0; l < 2; ++l) {
    masks.push_back(sparsify::block_sparsify(model.phases()[l], {4, 0.25}));
  }
  model.set_masks(masks);

  const std::string path = ::testing::TempDir() + "/model.odnn";
  donn::save_model(model, path);
  const donn::DonnModel loaded = donn::load_model(path);

  EXPECT_EQ(loaded.config().grid.n, cfg.grid.n);
  EXPECT_DOUBLE_EQ(loaded.config().grid.pitch, cfg.grid.pitch);
  EXPECT_EQ(loaded.num_layers(), 2u);
  for (std::size_t l = 0; l < 2; ++l) {
    EXPECT_LT(max_abs_diff(loaded.phases()[l], model.phases()[l]), 1e-15);
    EXPECT_EQ(loaded.masks()[l], model.masks()[l]);
  }

  // Loaded model computes identical outputs.
  MatrixD image(16, 16, 0.0);
  image(8, 8) = 1.0;
  const auto input = optics::encode_image(image, cfg.grid);
  const auto a = model.detector_sums(input);
  const auto b = loaded.detector_sums(input);
  for (std::size_t c = 0; c < a.size(); ++c) EXPECT_DOUBLE_EQ(a[c], b[c]);
}

TEST(Serialize, RoundTripPreservesDetectorMode) {
  Rng rng(21);
  donn::DonnConfig cfg = donn::DonnConfig::scaled(16);
  cfg.num_layers = 5;
  cfg.detector = donn::DetectorMode::Differential;
  donn::DonnModel model(cfg, rng);

  const std::string path = ::testing::TempDir() + "/diff_model.odnn";
  donn::save_model(model, path);
  const donn::DonnModel loaded = donn::load_model(path);

  EXPECT_EQ(loaded.config().detector, donn::DetectorMode::Differential);
  EXPECT_EQ(loaded.num_layers(), 5u);
  EXPECT_EQ(loaded.detector().num_regions(), 2 * cfg.num_classes);

  MatrixD image(16, 16, 0.0);
  image(8, 8) = 1.0;
  const auto input = optics::encode_image(image, cfg.grid);
  const auto a = model.detector_sums(input);
  const auto b = loaded.detector_sums(input);
  for (std::size_t c = 0; c < a.size(); ++c) EXPECT_DOUBLE_EQ(a[c], b[c]);
}

TEST(Serialize, VersionOneStreamLoadsAsStandard) {
  // Checkpoints written before the detector-mode format bump (version 1,
  // no mode word after detector_size) must keep loading, as Standard.
  const donn::DonnConfig cfg = donn::DonnConfig::scaled(16);
  const std::string path = ::testing::TempDir() + "/v1_model.odnn";
  {
    std::ofstream out(path, std::ios::binary);
    const auto u32 = [&out](std::uint32_t v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    const auto f64 = [&out](double v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    out.write("ODNN", 4);
    u32(1);  // version 1: no detector mode word
    u32(static_cast<std::uint32_t>(cfg.grid.n));
    f64(cfg.grid.pitch);
    f64(cfg.wavelength);
    f64(cfg.distance);
    u32(static_cast<std::uint32_t>(cfg.kernel));
    u32(cfg.pad2x ? 1 : 0);
    u32(2);  // num_layers
    u32(static_cast<std::uint32_t>(cfg.num_classes));
    u32(static_cast<std::uint32_t>(cfg.detector_size));
    u32(2);  // stored layer count
    const MatrixD phi(cfg.grid.n, cfg.grid.n, 0.5);
    for (int l = 0; l < 2; ++l) {
      out.write(reinterpret_cast<const char*>(phi.data()),
                static_cast<std::streamsize>(phi.size() * sizeof(double)));
    }
    const std::uint8_t has_masks = 0;
    out.write(reinterpret_cast<const char*>(&has_masks), 1);
  }

  const donn::DonnModel loaded = donn::load_model(path);
  EXPECT_EQ(loaded.config().detector, donn::DetectorMode::Standard);
  EXPECT_EQ(loaded.num_layers(), 2u);
  EXPECT_DOUBLE_EQ(loaded.phases()[0](3, 3), 0.5);
}

TEST(Serialize, RejectsImplausibleHeaderBeforeAllocating) {
  // A corrupt or hostile header must fail with IoError, within a second,
  // before its claimed sizes build or allocate anything: n = 200000 alone
  // would ask for hundreds of gigabytes, a million classes would spin in
  // the detector layout's pairwise overlap check, and 64 layers at
  // n = 4096 would build a 256 MiB transfer function and 8 GiB of random
  // masks. No phase data follows the header.
  const donn::DonnConfig cfg = donn::DonnConfig::scaled(16);
  const std::string path = ::testing::TempDir() + "/hostile_model.odnn";
  struct Header {
    std::uint32_t n;
    double pitch, wavelength, distance;
    std::uint32_t layers = 2;
    std::uint32_t classes = 10;
    std::uint32_t detector_size = 2;
    std::uint32_t pad2x = 0;
  };
  const auto write_header = [&](const Header& h) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const auto u32 = [&out](std::uint32_t v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    const auto f64 = [&out](double v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    out.write("ODNN", 4);
    u32(2);  // version
    u32(h.n);
    f64(h.pitch);
    f64(h.wavelength);
    f64(h.distance);
    u32(static_cast<std::uint32_t>(cfg.kernel));
    u32(h.pad2x);
    u32(h.layers);
    u32(h.classes);
    u32(h.detector_size);
    u32(0);  // detector mode: Standard
    u32(h.layers);  // stored layer count
  };
  const double p = cfg.grid.pitch, w = cfg.wavelength, d = cfg.distance;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Header& h :
       {Header{200000, p, w, d}, Header{0, p, w, d}, Header{4097, p, w, d},
        Header{16, nan, w, d}, Header{16, p, -w, d}, Header{16, p, w, 0.0},
        Header{16, p, w, inf},
        // Class count outside [1, 1024], detector size outside [1, n].
        Header{16, p, w, d, 2, 0}, Header{16, p, w, d, 2, 0xFFFFFFFFu, 1},
        Header{16, p, w, d, 2, 10, 0}, Header{16, p, w, d, 2, 10, 17},
        Header{2048, p, w, d, 2, 1000000, 1},
        // Plausible header, but the phases it declares are not in the file.
        Header{4096, p, w, d, 64, 10, 1}, Header{4096, p, w, d, 64, 10, 1, 1},
        Header{16, p, w, d, 2, 10, 2}}) {
    write_header(h);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(donn::load_model(path), IoError)
        << "n=" << h.n << " pitch=" << h.pitch << " wavelength="
        << h.wavelength << " distance=" << h.distance << " layers="
        << h.layers << " classes=" << h.classes << " detector_size="
        << h.detector_size << " pad2x=" << h.pad2x;
    EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count(),
              1.0)
        << "n=" << h.n << " classes=" << h.classes;
  }
}

/// Hand-built version-2 checkpoint of a two-layer scaled(grid) model whose
/// phases are all `phase` except pixel 0 of layer 1, which is `odd`,
/// followed by `trailing` extra bytes.
void write_checkpoint(const std::string& path, double phase, double odd,
                      bool with_masks, std::size_t trailing,
                      std::size_t grid = 16) {
  const donn::DonnConfig cfg = donn::DonnConfig::scaled(grid);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const auto u32 = [&out](std::uint32_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto f64 = [&out](double v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  out.write("ODNN", 4);
  u32(2);  // version
  u32(static_cast<std::uint32_t>(cfg.grid.n));
  f64(cfg.grid.pitch);
  f64(cfg.wavelength);
  f64(cfg.distance);
  u32(static_cast<std::uint32_t>(cfg.kernel));
  u32(0);  // pad2x
  u32(2);  // num_layers
  u32(static_cast<std::uint32_t>(cfg.num_classes));
  u32(static_cast<std::uint32_t>(cfg.detector_size));
  u32(0);  // detector mode: Standard
  u32(2);  // stored layer count
  for (int l = 0; l < 2; ++l) {
    MatrixD phi(cfg.grid.n, cfg.grid.n, phase);
    if (l == 1) phi[0] = odd;
    out.write(reinterpret_cast<const char*>(phi.data()),
              static_cast<std::streamsize>(phi.size() * sizeof(double)));
  }
  const std::uint8_t has_masks = with_masks ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&has_masks), 1);
  if (with_masks) {
    const std::vector<char> mask(cfg.grid.n * cfg.grid.n * 2, 1);
    out.write(mask.data(), static_cast<std::streamsize>(mask.size()));
  }
  const std::vector<char> tail(trailing, 0);
  out.write(tail.data(), static_cast<std::streamsize>(tail.size()));
}

TEST(Serialize, RejectsNonFinitePhaseValues) {
  // A NaN or infinite phase would load, list as a healthy model and serve
  // NaN predictions; the loader must refuse it instead.
  const std::string path = ::testing::TempDir() + "/nonfinite_model.odnn";
  write_checkpoint(path, 0.5, 1.5, false, 0);
  EXPECT_DOUBLE_EQ(donn::load_model(path).phases()[1][0], 1.5);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    write_checkpoint(path, 0.5, bad, false, 0);
    EXPECT_THROW(donn::load_model(path), IoError) << "phase " << bad;
  }
}

TEST(Serialize, RejectsBytesAfterTheMaskBlock) {
  // A checkpoint ends exactly after its mask block (or its mask flag when
  // it has no masks); anything more means a corrupt or spliced file.
  const std::string path = ::testing::TempDir() + "/trailing_model.odnn";
  for (const bool with_masks : {false, true}) {
    write_checkpoint(path, 0.5, 0.5, with_masks, 0);
    EXPECT_EQ(donn::load_model(path).has_masks(), with_masks);
    for (const std::size_t trailing : {1, 8}) {
      write_checkpoint(path, 0.5, 0.5, with_masks, trailing);
      EXPECT_THROW(donn::load_model(path), IoError)
          << "masks " << with_masks << " trailing " << trailing;
    }
  }
}

TEST(Serialize, RejectsGridTheFftDoesNotRun) {
  // A well-formed checkpoint whose grid has a prime factor above 5 (22 =
  // 2 * 11) passes every header and payload check, then fails with a
  // ConfigError when the model asks for its FFT plan.
  const std::string path = ::testing::TempDir() + "/grid22_model.odnn";
  write_checkpoint(path, 0.5, 0.5, true, 0, 22);
  try {
    donn::load_model(path);
    FAIL() << "a grid-22 checkpoint loaded";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("next supported length: 24"),
              std::string::npos)
        << error.what();
  }
}

TEST(Serialize, RejectsWrongMagic) {
  const std::string path = ::testing::TempDir() + "/bogus.odnn";
  std::ofstream out(path, std::ios::binary);
  out << "NOPE and then some bytes";
  out.close();
  EXPECT_THROW(donn::load_model(path), IoError);
}

TEST(Serialize, RejectsTruncation) {
  Rng rng(10);
  donn::DonnConfig cfg = donn::DonnConfig::scaled(16);
  donn::DonnModel model(cfg, rng);
  const std::string path = ::testing::TempDir() + "/trunc.odnn";
  donn::save_model(model, path);
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size() / 3));
  out.close();
  EXPECT_THROW(donn::load_model(path), IoError);
}

TEST(Serialize, RejectsMissingFile) {
  EXPECT_THROW(donn::load_model("/nonexistent/m.odnn"), IoError);
}

// ------------------------------------------------------------------ anneal

TEST(Anneal, NeverWorseThanIdentity) {
  Rng rng(11);
  MatrixD phi(10, 10);
  for (auto& v : phi) v = rng.uniform(0.0, kTwoPi);
  const auto result = smooth2pi::anneal_2pi(phi, {});
  EXPECT_LE(result.roughness_after, result.roughness_before + 1e-9);
}

TEST(Anneal, FindsSingleFlipImprovements) {
  // One pixel at 0 surrounded by values near 2*pi: lifting it is a pure
  // single-flip gain that annealing must find.
  MatrixD phi(8, 8, 6.0);
  phi(4, 4) = 0.0;
  smooth2pi::AnnealOptions opt;
  opt.iterations = 5000;
  const auto result = smooth2pi::anneal_2pi(phi, opt);
  EXPECT_EQ(result.selection(4, 4), 1);
  EXPECT_LT(result.roughness_after, result.roughness_before);
}

TEST(Anneal, SelectionConsistentWithOptimizedMask) {
  Rng rng(12);
  MatrixD phi(8, 8);
  for (auto& v : phi) v = rng.uniform(0.0, kTwoPi);
  smooth2pi::AnnealOptions opt;
  opt.iterations = 3000;
  const auto result = smooth2pi::anneal_2pi(phi, opt);
  for (std::size_t i = 0; i < phi.size(); ++i) {
    const double expected =
        phi[i] + (result.selection[i] != 0 ? kTwoPi : 0.0);
    EXPECT_DOUBLE_EQ(result.optimized[i], expected);
  }
}

TEST(Anneal, MatchesExactDpOnSmallChains) {
  Rng rng(13);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = 5 + rng.uniform_index(4);
    MatrixD row(1, n);
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = rng.bernoulli(0.4) ? 0.0 : rng.uniform(0.0, kTwoPi);
      row(0, i) = values[i];
    }
    roughness::RoughnessOptions ropt;
    smooth2pi::AnnealOptions opt;
    opt.iterations = 20000;
    opt.seed = 100 + static_cast<std::uint64_t>(trial);
    const auto annealed = smooth2pi::anneal_2pi(row, opt);
    const auto dp = smooth2pi::exact_1d_selection(values, ropt);
    MatrixD dp_mask(1, n);
    for (std::size_t i = 0; i < n; ++i) {
      dp_mask(0, i) = values[i] + (dp[i] != 0 ? kTwoPi : 0.0);
    }
    const double dp_score = roughness::mask_roughness(dp_mask, ropt);
    EXPECT_LE(annealed.roughness_after, dp_score * 1.05 + 1e-9);
  }
}

TEST(Anneal, Validation) {
  MatrixD phi(4, 4, 1.0);
  smooth2pi::AnnealOptions opt;
  opt.t_end = 2.0;  // above t_start
  EXPECT_THROW(smooth2pi::anneal_2pi(phi, opt), Error);
}

// ---------------------------------------------------------------- reflection

TEST(Reflection, ZeroAmplitudeMatchesIdealForward) {
  Rng rng(23);
  donn::DonnConfig cfg = donn::DonnConfig::scaled(16);
  cfg.num_layers = 2;
  donn::DonnModel model(cfg, rng);
  MatrixD image(16, 16);
  for (auto& v : image) v = rng.uniform();
  const auto input = optics::encode_image(image, cfg.grid);

  const auto ideal = model.propagate_through(input);
  const auto reflective =
      donn::reflective_propagate_through(model, input, {0.0});
  EXPECT_LT(max_abs_diff(ideal.values(), reflective.values()), 1e-12);
}

TEST(Reflection, TransmissionLossReducesPower) {
  Rng rng(24);
  donn::DonnConfig cfg = donn::DonnConfig::scaled(16);
  donn::DonnModel model(cfg, rng);
  MatrixD image(16, 16);
  for (auto& v : image) v = rng.uniform();
  const auto input = optics::encode_image(image, cfg.grid);

  const double ideal_power = model.propagate_through(input).power();
  // First-order perturbation: each mask transmits (1 - r^2) of the power
  // and re-injects an O(r^2) bounce whose interference with the direct
  // field is not sign-definite — so assert boundedness, not monotonicity.
  donn::ReflectionOptions opt;
  opt.amplitude = 0.15;
  const double r2 = opt.amplitude * opt.amplitude;
  const double reflective_power =
      donn::reflective_propagate_through(model, input, opt).power();
  const double layers = static_cast<double>(model.num_layers());
  EXPECT_LT(reflective_power, ideal_power * (1.0 + 3.0 * layers * r2));
  EXPECT_GT(reflective_power, ideal_power * (1.0 - 3.0 * layers * r2));
}

TEST(Reflection, PerturbationGrowsWithAmplitude) {
  Rng rng(25);
  donn::DonnConfig cfg = donn::DonnConfig::scaled(16);
  donn::DonnModel model(cfg, rng);
  MatrixD image(16, 16);
  for (auto& v : image) v = rng.uniform();
  const auto input = optics::encode_image(image, cfg.grid);
  const auto ideal = model.propagate_through(input);

  double prev = 0.0;
  for (double r : {0.05, 0.15, 0.3}) {
    const auto field =
        donn::reflective_propagate_through(model, input, {r});
    const double diff = max_abs_diff(ideal.values(), field.values());
    EXPECT_GT(diff, prev);
    prev = diff;
  }
}

TEST(Reflection, PredictUsesDetectorLayout) {
  Rng rng(26);
  donn::DonnConfig cfg = donn::DonnConfig::scaled(16);
  donn::DonnModel model(cfg, rng);
  MatrixD image(16, 16);
  for (auto& v : image) v = rng.uniform();
  const auto input = optics::encode_image(image, cfg.grid);
  const std::size_t cls = donn::reflective_predict(model, input, {0.1});
  EXPECT_LT(cls, cfg.num_classes);
}

TEST(Reflection, Validation) {
  Rng rng(27);
  donn::DonnConfig cfg = donn::DonnConfig::scaled(16);
  donn::DonnModel model(cfg, rng);
  const auto input = optics::encode_image(MatrixD(16, 16, 0.5), cfg.grid);
  EXPECT_THROW(donn::reflective_propagate_through(model, input, {1.0}), Error);
  EXPECT_THROW(donn::reflective_propagate_through(model, input, {-0.1}), Error);
}

// --------------------------------------------------- init-scheme behavior

TEST(PhaseInit, FlatInitIsMuchSmootherThanUniform) {
  Rng r1(20), r2(20);
  donn::DonnConfig flat_cfg = donn::DonnConfig::scaled(32);
  donn::DonnConfig uni_cfg = flat_cfg;
  uni_cfg.init = donn::PhaseInit::Uniform;
  donn::DonnModel flat(flat_cfg, r1);
  donn::DonnModel uniform(uni_cfg, r2);
  const double flat_r = roughness::mask_roughness(flat.phases()[0]);
  const double uni_r = roughness::mask_roughness(uniform.phases()[0]);
  EXPECT_LT(flat_r, uni_r / 5.0);
}

}  // namespace
}  // namespace odonn
