// Tests for src/donn: detector geometry, losses (with gradient checks),
// full-model gradient checks against finite differences, the per-sample
// stack runner (workspace reuse and bitwise agreement of every entry point
// that runs it, from input fields or first hops), 2*pi inference
// invariance, sparsity masking and the crosstalk model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "donn/crosstalk.hpp"
#include "donn/detector.hpp"
#include "donn/loss.hpp"
#include "donn/model.hpp"
#include "donn/phase_mask.hpp"
#include "optics/encode.hpp"
#include "roughness/roughness.hpp"
#include "tensor/stats.hpp"
#include "train/trainer.hpp"

#include "support/gradcheck.hpp"

namespace odonn::donn {
namespace {

DonnConfig tiny_config(std::size_t n = 16, std::size_t layers = 2) {
  DonnConfig cfg = DonnConfig::scaled(n);
  cfg.num_layers = layers;
  return cfg;
}

optics::Field random_input(const optics::GridSpec& grid, std::uint64_t seed) {
  Rng rng(seed);
  MatrixD image(grid.n, grid.n);
  for (auto& v : image) v = rng.uniform();
  return optics::encode_image(image, grid);
}

TEST(PhaseMask, RandomInitInRange) {
  Rng rng(1);
  const MatrixD phi = random_phase_mask(8, rng);
  for (std::size_t i = 0; i < phi.size(); ++i) {
    EXPECT_GE(phi[i], 0.0);
    EXPECT_LT(phi[i], 2.0 * M_PI);
  }
}

TEST(PhaseMask, WrapPhaseIntoPrincipalRange) {
  MatrixD phi = {{-0.5, 7.0}, {13.0, 2.0 * M_PI}};
  const MatrixD wrapped = wrap_phase(phi);
  for (std::size_t i = 0; i < wrapped.size(); ++i) {
    EXPECT_GE(wrapped[i], 0.0);
    EXPECT_LT(wrapped[i], 2.0 * M_PI);
  }
  EXPECT_NEAR(wrapped(0, 0), 2.0 * M_PI - 0.5, 1e-12);
}

TEST(PhaseMask, ModulationIsUnitMagnitude) {
  Rng rng(2);
  const MatrixD phi = random_phase_mask(6, rng);
  const MatrixC w = modulation(phi);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(std::abs(w[i]), 1.0, 1e-12);
  }
}

TEST(Detector, PaperLayoutTenRegions) {
  const auto layout = DetectorLayout::evenly_spaced(200, 10, 20);
  EXPECT_EQ(layout.num_classes(), 10u);
  for (const auto& region : layout.regions()) {
    EXPECT_EQ(region.size, 20u);
    EXPECT_LE(region.r0 + region.size, 200u);
  }
}

class DetectorLayouts
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DetectorLayouts, FitAndDisjoint) {
  const auto [grid_n, classes] = GetParam();
  const std::size_t region = std::max<std::size_t>(2, grid_n / 10);
  const auto layout = DetectorLayout::evenly_spaced(grid_n, classes, region);
  EXPECT_EQ(layout.num_classes(), classes);
  // Disjointness is enforced by the constructor; also check readout of an
  // all-ones plane sums to classes * region^2.
  MatrixD ones(grid_n, grid_n, 1.0);
  const auto sums = layout.readout(ones);
  for (double s : sums) {
    EXPECT_DOUBLE_EQ(s, static_cast<double>(region * region));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DetectorLayouts,
    ::testing::Combine(::testing::Values<std::size_t>(40, 64, 100, 200),
                       ::testing::Values<std::size_t>(2, 4, 6, 10)));

TEST(Detector, OverlappingRegionsRejected) {
  EXPECT_THROW(DetectorLayout(10, {{0, 0, 4}, {2, 2, 4}}), ConfigError);
  EXPECT_THROW(DetectorLayout(10, {{8, 8, 4}}), ConfigError);
}

TEST(Detector, ReadoutScatterAdjoint) {
  // <readout(I), g> == <I, scatter(g)> — readout and scatter are adjoint.
  const auto layout = DetectorLayout::evenly_spaced(20, 4, 3);
  Rng rng(3);
  MatrixD intensity(20, 20);
  for (auto& v : intensity) v = rng.uniform();
  std::vector<double> g{0.3, -1.2, 0.5, 2.0};

  const auto sums = layout.readout(intensity);
  double lhs = 0.0;
  for (std::size_t c = 0; c < 4; ++c) lhs += sums[c] * g[c];

  const MatrixD scattered = layout.scatter(g);
  double rhs = 0.0;
  for (std::size_t i = 0; i < intensity.size(); ++i) {
    rhs += intensity[i] * scattered[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-10);
}

TEST(Detector, PredictReturnsArgmaxRegion) {
  const auto layout = DetectorLayout::evenly_spaced(20, 4, 3);
  MatrixD intensity(20, 20, 0.0);
  const auto& winner = layout.regions()[2];
  intensity(winner.r0, winner.c0) = 5.0;
  EXPECT_EQ(layout.predict(intensity), 2u);
}

TEST(Detector, DifferentialPairsScoreAndPredict) {
  // Each class k reads region 2k (positive) minus region 2k+1 (negative).
  const auto strategy = ReadoutStrategy::evenly_spaced(
      DetectorMode::Differential, 20, 4, 3);
  EXPECT_EQ(strategy.num_classes(), 4u);
  EXPECT_EQ(strategy.num_regions(), 8u);

  MatrixD intensity(20, 20, 0.0);
  const auto& pos = strategy.layout().regions()[4];  // class 2, + region
  const auto& neg = strategy.layout().regions()[5];  // class 2, - region
  intensity(pos.r0, pos.c0) = 5.0;
  intensity(neg.r0, neg.c0) = 1.5;
  const auto scores = strategy.readout(intensity);
  ASSERT_EQ(scores.size(), 4u);
  EXPECT_DOUBLE_EQ(scores[2], 3.5);
  EXPECT_EQ(strategy.predict(intensity), 2u);

  // Negative-region energy drives the score below zero.
  intensity(neg.r0, neg.c0) = 9.0;
  EXPECT_DOUBLE_EQ(strategy.readout(intensity)[2], -4.0);
}

TEST(Detector, DifferentialReadoutScatterAdjoint) {
  // <readout(I), g> == <I, scatter(g)> must hold through the +/- pair
  // mapping, not just for the raw layout.
  const auto strategy = ReadoutStrategy::evenly_spaced(
      DetectorMode::Differential, 20, 4, 3);
  Rng rng(4);
  MatrixD intensity(20, 20);
  for (auto& v : intensity) v = rng.uniform();
  const std::vector<double> g{0.3, -1.2, 0.5, 2.0};

  const auto scores = strategy.readout(intensity);
  double lhs = 0.0;
  for (std::size_t c = 0; c < 4; ++c) lhs += scores[c] * g[c];

  const MatrixD scattered = strategy.scatter(g);
  double rhs = 0.0;
  for (std::size_t i = 0; i < intensity.size(); ++i) {
    rhs += intensity[i] * scattered[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-10);
}

TEST(Detector, DifferentialScatterMatchesFiniteDifferencesPerPair) {
  // FD parity per region pair: bumping a pixel in the + region of class k
  // moves score k by +h, in the - region by -h, elsewhere not at all.
  const auto strategy = ReadoutStrategy::evenly_spaced(
      DetectorMode::Differential, 20, 3, 3);
  Rng rng(5);
  MatrixD intensity(20, 20);
  for (auto& v : intensity) v = rng.uniform();

  const double h = 1e-6;
  for (std::size_t k = 0; k < strategy.num_classes(); ++k) {
    std::vector<double> g(strategy.num_classes(), 0.0);
    g[k] = 1.0;
    const MatrixD scattered = strategy.scatter(g);
    for (std::size_t pair = 0; pair < 2; ++pair) {
      const auto& region = strategy.layout().regions()[2 * k + pair];
      MatrixD bumped = intensity;
      bumped(region.r0, region.c0) += h;
      const double numeric =
          (strategy.readout(bumped)[k] - strategy.readout(intensity)[k]) / h;
      const double expected = (pair == 0) ? 1.0 : -1.0;
      EXPECT_NEAR(numeric, expected, 1e-6) << "class " << k << " pair " << pair;
      EXPECT_DOUBLE_EQ(scattered(region.r0, region.c0), expected);
    }
  }
}

TEST(Detector, DifferentialNeedsEvenRegions) {
  EXPECT_THROW(ReadoutStrategy(DetectorMode::Differential,
                               DetectorLayout::evenly_spaced(20, 3, 3)),
               Error);
}

TEST(Detector, ModeNamesRoundTrip) {
  EXPECT_EQ(parse_detector_mode("standard"), DetectorMode::Standard);
  EXPECT_EQ(parse_detector_mode("differential"), DetectorMode::Differential);
  EXPECT_STREQ(detector_mode_name(DetectorMode::Differential), "differential");
  EXPECT_THROW(parse_detector_mode("argmax"), ConfigError);
}

TEST(Loss, SoftmaxIsStableAndNormalized) {
  const auto p = softmax({1000.0, 1001.0, 999.0});
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_GT(p[1], p[0]);
  EXPECT_GT(p[0], p[2]);
}

TEST(Loss, PerfectPredictionHasLowLoss) {
  LossOptions opt;
  const auto good = evaluate_loss({100.0, 0.1, 0.1, 0.1}, 0, opt);
  const auto bad = evaluate_loss({100.0, 0.1, 0.1, 0.1}, 1, opt);
  EXPECT_LT(good.loss, bad.loss);
  EXPECT_EQ(good.predicted, 0u);
}

TEST(LossGrad, MatchesFiniteDifferences) {
  const LossOptions opt;
  const std::vector<double> sums{0.31, 0.12, 0.44, 0.08, 0.21};
  const std::size_t label = 2;
  const auto result = evaluate_loss(sums, label, opt);

  const double h = 1e-7;
  for (std::size_t j = 0; j < sums.size(); ++j) {
    auto hi = sums, lo = sums;
    hi[j] += h;
    lo[j] -= h;
    const double numeric = (evaluate_loss(hi, label, opt).loss -
                            evaluate_loss(lo, label, opt).loss) /
                           (2.0 * h);
    EXPECT_NEAR(result.grad_sums[j], numeric, 1e-5)
        << "logit " << j;
  }
}

TEST(Loss, TotalPowerNormalizesSignedScoresByAbsSum) {
  // Regression for differential readout: signed scores used to normalize by
  // the raw sum, which can cancel toward zero and blow the logits up (or
  // flip their signs). The scale must use sum(|s|).
  const LossOptions opt;
  // Raw sum = 0.0 exactly; abs sum = 0.84.
  const std::vector<double> sums{0.4, -0.39, 0.02, -0.03};
  const auto result = evaluate_loss(sums, 0, opt);
  EXPECT_TRUE(std::isfinite(result.loss));
  EXPECT_EQ(result.predicted, 0u);

  const double h = 1e-7;
  for (std::size_t j = 0; j < sums.size(); ++j) {
    auto hi = sums, lo = sums;
    hi[j] += h;
    lo[j] -= h;
    const double numeric = (evaluate_loss(hi, 0, opt).loss -
                            evaluate_loss(lo, 0, opt).loss) /
                           (2.0 * h);
    EXPECT_NEAR(result.grad_sums[j], numeric, 1e-5) << "logit " << j;
  }
}

TEST(SignedLossGrad, MatchesFiniteDifferences) {
  const LossOptions opt;
  const std::vector<double> sums{0.31, -0.12, 0.44, -0.08, 0.21};
  const std::size_t label = 1;
  const auto result = evaluate_loss(sums, label, opt);

  const double h = 1e-7;
  for (std::size_t j = 0; j < sums.size(); ++j) {
    auto hi = sums, lo = sums;
    hi[j] += h;
    lo[j] -= h;
    const double numeric = (evaluate_loss(hi, label, opt).loss -
                            evaluate_loss(lo, label, opt).loss) /
                           (2.0 * h);
    EXPECT_NEAR(result.grad_sums[j], numeric, 1e-5) << "logit " << j;
  }
}

TEST(Loss, InvalidInputsThrow) {
  EXPECT_THROW(evaluate_loss({1.0}, 0, {}), Error);
  EXPECT_THROW(evaluate_loss({1.0, 2.0}, 5, {}), Error);
}

TEST(Model, ForwardIsDeterministic) {
  Rng rng(7);
  DonnModel model(tiny_config(), rng);
  const auto input = random_input(model.config().grid, 11);
  const auto a = model.detector_sums(input);
  const auto b = model.detector_sums(input);
  EXPECT_EQ(a, b);
}

TEST(Model, EnergyConservedThroughLayers) {
  // Phase-only modulation and unitary propagation preserve power.
  Rng rng(8);
  DonnModel model(tiny_config(32, 3), rng);
  const auto input = random_input(model.config().grid, 12);
  const auto output = model.propagate_through(input);
  EXPECT_NEAR(output.power(), input.power(), 1e-6 * input.power());
}

TEST(Model, TwoPiPhaseShiftLeavesInferenceInvariant) {
  // The §III-D2 identity: adding 2*pi to any phase pixel leaves the forward
  // pass numerically unchanged (up to fp rounding in cos/sin).
  Rng rng(9);
  DonnModel model(tiny_config(), rng);
  const auto input = random_input(model.config().grid, 13);
  const auto before = model.detector_sums(input);

  auto phases = model.phases();
  Rng pick(99);
  for (auto& phi : phases) {
    for (std::size_t i = 0; i < phi.size(); ++i) {
      if (pick.bernoulli(0.3)) phi[i] += 2.0 * M_PI;
    }
  }
  model.set_phases(std::move(phases));
  const auto after = model.detector_sums(input);
  for (std::size_t c = 0; c < before.size(); ++c) {
    EXPECT_NEAR(after[c], before[c], 1e-9 * (before[c] + 1.0));
  }
}

TEST(Model, ForwardBackwardGradientMatchesFiniteDifferences) {
  Rng rng(10);
  DonnConfig cfg = tiny_config(16, 2);
  DonnModel model(cfg, rng);
  const auto input = random_input(cfg.grid, 14);
  const std::size_t label = 3;
  LossOptions loss_opt;

  auto grads = model.zero_gradients();
  model.forward_backward(input, label, grads, loss_opt);

  // Check a probe subset of each layer's gradient entries numerically.
  for (std::size_t layer = 0; layer < model.num_layers(); ++layer) {
    const MatrixD numeric = numerical_gradient(
        [&](const MatrixD& probe) {
          DonnModel m2 = model;
          auto phases = m2.phases();
          phases[layer] = probe;
          m2.set_phases(std::move(phases));
          return evaluate_loss(m2.detector_sums(input), label, loss_opt).loss;
        },
        model.phases()[layer], 1e-5);
    EXPECT_LT(gradient_rel_error(grads[layer], numeric), 2e-4)
        << "layer " << layer;
  }
}

TEST(Model, FiveLayerGradientMatchesFiniteDifferences) {
  // Per-layer adjoint through the deep stack: the five-layer recipe axis
  // must backpropagate correctly through every mask, not just the first two.
  Rng rng(12);
  DonnConfig cfg = tiny_config(16, 5);
  DonnModel model(cfg, rng);
  const auto input = random_input(cfg.grid, 15);
  const std::size_t label = 1;
  LossOptions loss_opt;

  auto grads = model.zero_gradients();
  model.forward_backward(input, label, grads, loss_opt);

  for (std::size_t layer = 0; layer < model.num_layers(); ++layer) {
    const MatrixD numeric = numerical_gradient(
        [&](const MatrixD& probe) {
          DonnModel m2 = model;
          auto phases = m2.phases();
          phases[layer] = probe;
          m2.set_phases(std::move(phases));
          return evaluate_loss(m2.detector_sums(input), label, loss_opt).loss;
        },
        model.phases()[layer], 1e-5);
    EXPECT_LT(gradient_rel_error(grads[layer], numeric), 2e-4)
        << "layer " << layer;
  }
}

TEST(Model, DifferentialGradientMatchesFiniteDifferences) {
  // The differential scatter adjoint must agree with FD through the full
  // optical stack (signed scores feed the TotalPower-normalized loss).
  Rng rng(13);
  DonnConfig cfg = tiny_config(16, 3);
  cfg.detector = DetectorMode::Differential;
  DonnModel model(cfg, rng);
  EXPECT_EQ(model.detector().num_regions(), 2 * cfg.num_classes);
  const auto input = random_input(cfg.grid, 16);
  const std::size_t label = 4;
  LossOptions loss_opt;

  auto grads = model.zero_gradients();
  model.forward_backward(input, label, grads, loss_opt);

  for (std::size_t layer = 0; layer < model.num_layers(); ++layer) {
    const MatrixD numeric = numerical_gradient(
        [&](const MatrixD& probe) {
          DonnModel m2 = model;
          auto phases = m2.phases();
          phases[layer] = probe;
          m2.set_phases(std::move(phases));
          return evaluate_loss(m2.detector_sums(input), label, loss_opt).loss;
        },
        model.phases()[layer], 1e-5);
    EXPECT_LT(gradient_rel_error(grads[layer], numeric), 2e-4)
        << "layer " << layer;
  }
}

bool same_bits(const double* a, const double* b, std::size_t count) {
  return std::memcmp(a, b, count * sizeof(double)) == 0;
}

/// Frame-layout gradients as row-major n x n matrices.
std::vector<MatrixD> row_major(const DonnModel::FrameGradients& grads,
                               std::size_t n) {
  std::vector<MatrixD> out;
  for (const fft::Plane& g : grads) {
    MatrixD m(n, n);
    fft::for_each_element(
        n, n, 0, (n + fft::Frame::kLanes - 1) / fft::Frame::kLanes,
        [&](std::size_t f, std::size_t i) { m[i] = g[f]; });
    out.push_back(std::move(m));
  }
  return out;
}

std::vector<MatrixD> row_major(std::vector<MatrixD> grads, std::size_t) {
  return grads;
}

bool same_bits(const std::vector<MatrixD>& a, const std::vector<MatrixD>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t l = 0; l < a.size(); ++l) {
    if (!a[l].same_shape(b[l]) ||
        !same_bits(a[l].data(), b[l].data(), a[l].size())) {
      return false;
    }
  }
  return true;
}

/// One stack geometry the per-sample runner must handle: a radix-2 grid,
/// mixed-radix grids with whole (n=20) and partial (n=18) last lane groups,
/// a zero-padded (pad2x) grid and a deep differential stack.
struct StackCase {
  const char* name;
  std::size_t n;
  std::size_t layers;
  bool pad2x;
  DetectorMode detector;
};

DonnModel stack_model(const StackCase& c, std::uint64_t seed) {
  DonnConfig cfg = tiny_config(c.n, c.layers);
  cfg.pad2x = c.pad2x;
  cfg.detector = c.detector;
  cfg.init = PhaseInit::Uniform;  // structured masks, not near-flat
  Rng rng(seed);
  return DonnModel(cfg, rng);
}

std::vector<optics::Field> stack_inputs(const DonnModel& model,
                                        std::size_t count,
                                        std::uint64_t seed) {
  std::vector<optics::Field> inputs;
  for (std::size_t k = 0; k < count; ++k) {
    inputs.push_back(random_input(model.config().grid, seed + k));
  }
  return inputs;
}

class StackRunner : public ::testing::TestWithParam<StackCase> {};

TEST_P(StackRunner, ReusedWorkspaceMatchesFreshOneBitForBit) {
  // One workspace carried across 8 samples of one model, then across a
  // model of another grid, must leave no trace in any result: every loss
  // and gradient equals a call with a fresh workspace, bit for bit.
  const StackCase c = GetParam();
  const DonnModel model = stack_model(c, 41);
  const std::size_t other_n = c.n == 32 ? 24 : 32;
  const DonnModel other =
      stack_model({"other", other_n, 3, false, DetectorMode::Standard}, 42);
  const LossOptions loss;
  DonnModel::Workspace reused;
  const auto check = [&](const DonnModel& net,
                         const std::vector<optics::Field>& inputs) {
    const std::size_t n = net.config().grid.n;
    const DonnModel::ModulationFrames modulations = net.modulation_frames();
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const std::size_t label = k % net.config().num_classes;
      auto grads_reused = net.zero_frame_gradients();
      const auto a = net.forward_backward(inputs[k], label, modulations,
                                          reused, grads_reused, loss);
      DonnModel::Workspace fresh;
      auto grads_fresh = net.zero_frame_gradients();
      const auto b = net.forward_backward(inputs[k], label, modulations,
                                          fresh, grads_fresh, loss);
      auto grads_plain = net.zero_gradients();
      const auto p = net.forward_backward(inputs[k], label, grads_plain, loss);
      EXPECT_TRUE(same_bits(&a.loss, &b.loss, 1)) << c.name << " sample " << k;
      EXPECT_TRUE(same_bits(&a.loss, &p.loss, 1)) << c.name << " sample " << k;
      EXPECT_EQ(a.predicted, b.predicted);
      EXPECT_EQ(a.predicted, p.predicted);
      EXPECT_TRUE(same_bits(row_major(grads_reused, n),
                            row_major(grads_fresh, n)))
          << c.name << " sample " << k;
      EXPECT_TRUE(same_bits(row_major(grads_reused, n), grads_plain))
          << c.name << " sample " << k;
    }
  };
  check(model, stack_inputs(model, 8, 100));
  check(other, stack_inputs(other, 2, 200));
  check(model, stack_inputs(model, 2, 300));
}

TEST_P(StackRunner, EveryEntryPointAgreesBitForBit) {
  // infer_batch, detector_sums, predict and propagate_through run the same
  // runner; evaluate_accuracy counts the same predictions.
  const StackCase c = GetParam();
  const DonnModel model = stack_model(c, 43);
  const std::vector<optics::Field> inputs = stack_inputs(model, 8, 400);
  const DonnModel::ModulationFrames modulations = model.modulation_frames();

  std::vector<std::size_t> predictions;
  std::vector<std::vector<double>> sums;
  std::vector<MatrixD> intensities;
  model.infer_batch(inputs, modulations, &predictions, &sums, &intensities);
  ASSERT_EQ(sums.size(), inputs.size());
  DonnModel::Workspace workspace;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const std::vector<double> single = model.detector_sums(inputs[k]);
    ASSERT_EQ(sums[k].size(), single.size());
    EXPECT_TRUE(same_bits(sums[k].data(), single.data(), single.size()))
        << c.name << " sample " << k;
    EXPECT_EQ(predictions[k], model.predict(inputs[k], modulations, workspace));
    const MatrixD through = model.propagate_through(inputs[k]).intensity();
    ASSERT_EQ(through.size(), intensities[k].size());
    EXPECT_TRUE(
        same_bits(through.data(), intensities[k].data(), through.size()));
  }

  Rng rng(44);
  std::vector<MatrixD> images;
  std::vector<std::size_t> labels;
  const std::size_t classes = model.config().num_classes;
  for (std::size_t k = 0; k < 24; ++k) {
    MatrixD image(c.n, c.n);
    for (auto& v : image) v = rng.uniform();
    images.push_back(std::move(image));
    labels.push_back(k % classes);
  }
  const data::Dataset test(images, labels, classes);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const optics::Field input =
        optics::encode_image(test.image(i), model.config().grid);
    if (model.predict(input, modulations, workspace) == test.label(i)) {
      ++correct;
    }
  }
  EXPECT_EQ(train::evaluate_accuracy(model, test),
            static_cast<double>(correct) / static_cast<double>(test.size()));
}

TEST_P(StackRunner, FirstHopEntryPointsMatchFieldOnesBitForBit) {
  // infer_batch and forward_backward started from first hops return the
  // sums, intensities, losses and gradients of the field entry points bit
  // for bit, also when another model of the same geometry made the hops
  // (as for the Monte-Carlo evaluator's realizations and the robust
  // trainer's devices).
  const StackCase c = GetParam();
  const DonnModel model = stack_model(c, 47);
  const DonnModel maker = stack_model(c, 48);  // same geometry, other phases
  const std::vector<optics::Field> inputs = stack_inputs(model, 6, 500);
  const DonnModel::FirstHops hops = maker.first_hops(
      inputs.size(), [&](std::size_t k) { return inputs[k]; });
  ASSERT_EQ(hops.size(), inputs.size());
  EXPECT_TRUE(model.accepts(hops));
  const DonnModel::ModulationFrames modulations = model.modulation_frames();

  std::vector<std::size_t> predictions, hop_predictions;
  std::vector<std::vector<double>> sums, hop_sums;
  std::vector<MatrixD> intensities, hop_intensities;
  model.infer_batch(inputs, modulations, &predictions, &sums, &intensities);
  model.infer_batch(hops, modulations, &hop_predictions, &hop_sums,
                    &hop_intensities);
  ASSERT_EQ(hop_sums.size(), inputs.size());
  ASSERT_EQ(hop_intensities.size(), inputs.size());
  EXPECT_EQ(hop_predictions, predictions);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    ASSERT_EQ(hop_sums[k].size(), sums[k].size());
    EXPECT_TRUE(same_bits(hop_sums[k].data(), sums[k].data(), sums[k].size()))
        << c.name << " sample " << k;
    EXPECT_TRUE(same_bits(hop_intensities[k].data(), intensities[k].data(),
                          intensities[k].size()))
        << c.name << " sample " << k;
  }

  const LossOptions loss;
  DonnModel::Workspace field_workspace;
  DonnModel::Workspace hop_workspace;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const std::size_t label = k % model.config().num_classes;
    auto field_grads = model.zero_frame_gradients();
    auto hop_grads = model.zero_frame_gradients();
    const auto a = model.forward_backward(inputs[k], label, modulations,
                                          field_workspace, field_grads, loss);
    const auto b = model.forward_backward(hops, k, label, modulations,
                                          hop_workspace, hop_grads, loss);
    EXPECT_TRUE(same_bits(&a.loss, &b.loss, 1)) << c.name << " sample " << k;
    EXPECT_EQ(a.predicted, b.predicted);
    EXPECT_TRUE(same_bits(row_major(field_grads, c.n),
                          row_major(hop_grads, c.n)))
        << c.name << " sample " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, StackRunner,
    ::testing::Values(StackCase{"radix2_n32", 32, 3, false,
                                DetectorMode::Standard},
                      StackCase{"mixed_radix_n20", 20, 3, false,
                                DetectorMode::Standard},
                      StackCase{"mixed_radix_n18", 18, 3, false,
                                DetectorMode::Standard},
                      StackCase{"pad2x_n16", 16, 2, true,
                                DetectorMode::Standard},
                      StackCase{"differential_5layer_n16", 16, 5, false,
                                DetectorMode::Differential}),
    [](const ::testing::TestParamInfo<StackCase>& info) {
      return std::string(info.param.name);
    });

/// Folds `count` doubles into `hash` (fnv1a_mix over their IEEE-754 bits).
std::uint64_t fold(std::uint64_t hash, const double* values,
                   std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) hash = fnv1a_mix(hash, values[i]);
  return hash;
}

/// One pinned runner geometry and the digests every entry point must
/// reproduce on it.
struct PinCase {
  const char* name;
  std::size_t n;
  bool pad2x;
  DetectorMode detector;
  std::uint64_t sums;       ///< per sample: its class scores, then its class
  std::uint64_t intensity;  ///< every sample's detector-plane |f|^2
  std::uint64_t gradients;  ///< per sample loss and class, then the
                            ///< gradients accumulated over all samples
};

class RunnerBits : public ::testing::TestWithParam<PinCase> {};

// The pins below hold the bits of the per-sample runner: a change to any
// IEEE operation of the modulation, propagation, readout, loss or backward
// loops, or to their order, moves them. Each entry point that reaches the
// runner must reproduce its case's digest. Grid 18 has a partial last lane
// group, grid 64 is radix-2 and the pad2x grid 20 runs a mixed-radix
// length-40 transform.
TEST_P(RunnerBits, BitsArePinned) {
  const PinCase c = GetParam();
  const DonnModel model = stack_model({c.name, c.n, 3, c.pad2x, c.detector},
                                      900 + c.n);
  const std::vector<optics::Field> inputs = stack_inputs(model, 4, 910);
  const DonnModel::FirstHops hops = model.first_hops(
      inputs.size(), [&](std::size_t k) { return inputs[k]; });
  const DonnModel::ModulationFrames tables = model.modulation_frames();
  const std::size_t classes = model.config().num_classes;

  const auto fold_scores =
      [](std::uint64_t hash, const std::vector<double>& sums,
         std::size_t predicted) {
        hash = fold(hash, sums.data(), sums.size());
        return fnv1a_mix(hash, static_cast<double>(predicted));
      };
  DonnModel::Workspace workspace;
  std::uint64_t single = kFnv1aBasis;
  std::uint64_t through = kFnv1aBasis;
  for (const optics::Field& input : inputs) {
    single = fold_scores(single, model.detector_sums(input),
                         model.predict(input, tables, workspace));
    const MatrixD intensity = model.propagate_through(input).intensity();
    through = fold(through, intensity.data(), intensity.size());
  }
  EXPECT_EQ(single, c.sums) << std::hex << single;
  EXPECT_EQ(through, c.intensity) << std::hex << through;

  const auto check_batch = [&](const char* what,
                               const std::vector<std::size_t>& predictions,
                               const std::vector<std::vector<double>>& sums,
                               const std::vector<MatrixD>& intensities) {
    ASSERT_EQ(sums.size(), inputs.size()) << what;
    std::uint64_t scores = kFnv1aBasis;
    std::uint64_t planes = kFnv1aBasis;
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      scores = fold_scores(scores, sums[k], predictions[k]);
      planes = fold(planes, intensities[k].data(), intensities[k].size());
    }
    EXPECT_EQ(scores, c.sums) << what << ' ' << std::hex << scores;
    EXPECT_EQ(planes, c.intensity) << what << ' ' << std::hex << planes;
  };
  std::vector<std::size_t> predictions;
  std::vector<std::vector<double>> sums;
  std::vector<MatrixD> intensities;
  model.infer_batch(inputs, tables, &predictions, &sums, &intensities);
  check_batch("infer_batch(fields)", predictions, sums, intensities);
  model.infer_batch(inputs, model.modulation_tables(), &predictions, &sums,
                    &intensities);
  check_batch("infer_batch(fields, row-major tables)", predictions, sums,
              intensities);
  model.infer_batch(hops, tables, &predictions, &sums, &intensities);
  check_batch("infer_batch(hops)", predictions, sums, intensities);

  // run(k, grads) runs sample k through one forward_backward overload,
  // accumulating into grads (a frame-layout or a row-major set).
  const LossOptions loss;
  const auto gradient_digest = [&](auto grads, const auto& run) {
    std::uint64_t hash = kFnv1aBasis;
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const DonnModel::ForwardBackwardResult r = run(k, grads);
      hash = fnv1a_mix(hash, r.loss);
      hash = fnv1a_mix(hash, static_cast<double>(r.predicted));
    }
    for (const MatrixD& g : row_major(grads, c.n)) {
      hash = fold(hash, g.data(), g.size());
    }
    return hash;
  };
  const std::uint64_t on_fields = gradient_digest(
      model.zero_frame_gradients(),
      [&](std::size_t k, DonnModel::FrameGradients& grads) {
        return model.forward_backward(inputs[k], k % classes, tables,
                                      workspace, grads, loss);
      });
  const std::uint64_t on_hops = gradient_digest(
      model.zero_frame_gradients(),
      [&](std::size_t k, DonnModel::FrameGradients& grads) {
        return model.forward_backward(hops, k, k % classes, tables, workspace,
                                      grads, loss);
      });
  const std::uint64_t through_row_major = gradient_digest(
      model.zero_gradients(), [&](std::size_t k, std::vector<MatrixD>& grads) {
        return model.forward_backward(inputs[k], k % classes, grads, loss);
      });
  EXPECT_EQ(on_fields, c.gradients) << std::hex << on_fields;
  EXPECT_EQ(on_hops, c.gradients) << std::hex << on_hops;
  EXPECT_EQ(through_row_major, c.gradients) << std::hex << through_row_major;
}

INSTANTIATE_TEST_SUITE_P(
    Pins, RunnerBits,
    ::testing::Values(
        PinCase{"n18_standard", 18, false, DetectorMode::Standard,
                0x36f8f928159a4ed2ULL, 0xdca8d05b74b67a1eULL,
                0x5af18c3cbd41dd1bULL},
        PinCase{"n18_differential", 18, false, DetectorMode::Differential,
                0x8450401aff512fccULL, 0xdca8d05b74b67a1eULL,
                0x992e80e436ffad6eULL},
        PinCase{"n64_standard", 64, false, DetectorMode::Standard,
                0xce2fa76e833ce741ULL, 0x6f8b6f054e0064c8ULL,
                0xb3e3e564499bc744ULL},
        PinCase{"n64_differential", 64, false, DetectorMode::Differential,
                0xfd0c6baca21db8c4ULL, 0x6f8b6f054e0064c8ULL,
                0xb41fa197a7129eb2ULL},
        PinCase{"pad2x_n20_standard", 20, true, DetectorMode::Standard,
                0x8121c32f15304e3aULL, 0x5e80e420e3bc4cf7ULL,
                0xc011e6ce497c612aULL},
        PinCase{"pad2x_n20_differential", 20, true, DetectorMode::Differential,
                0x1f64648cbc356325ULL, 0x5e80e420e3bc4cf7ULL,
                0xd754e34a7df1594bULL}),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return std::string(info.param.name);
    });

TEST(Model, RunnerRejectsMismatchedTablesAndGradients) {
  Rng rng(45);
  const DonnModel model(tiny_config(16, 2), rng);
  const auto input = random_input(model.config().grid, 46);
  DonnModel::Workspace workspace;
  auto grads = model.zero_frame_gradients();
  DonnModel::ModulationFrames short_tables = model.modulation_frames();
  short_tables.pop_back();
  EXPECT_THROW(model.forward_backward(input, 0, short_tables, workspace, grads,
                                      {}),
               ShapeError);
  EXPECT_THROW(model.predict(input, short_tables, workspace), ShapeError);
  DonnModel::ModulationFrames small_tables = model.modulation_frames();
  small_tables[1] = fft::Frame(8, 8);
  EXPECT_THROW(model.predict(input, small_tables, workspace), ShapeError);
  DonnModel::FrameGradients bad_grads = {fft::Plane(64), fft::Plane(64)};
  EXPECT_THROW(model.forward_backward(input, 0, model.modulation_frames(),
                                      workspace, bad_grads, {}),
               ShapeError);
  std::vector<MatrixD> bad_row_major = {MatrixD(8, 8), MatrixD(8, 8)};
  EXPECT_THROW(model.forward_backward(input, 0, bad_row_major, {}),
               ShapeError);
  const auto wrong_grid = random_input(DonnConfig::scaled(32).grid, 47);
  EXPECT_THROW(model.predict(wrong_grid, model.modulation_frames(), workspace),
               ShapeError);
}

TEST(Model, FirstHopsOfAnotherGeometryAreRejected) {
  // Frames are only valid for the grid and PropagatorOptions that made
  // them: a model with another distance, grid or padding must not start
  // from them.
  Rng rng(49);
  const DonnConfig cfg = tiny_config(16, 2);
  const DonnModel model(cfg, rng);
  const std::vector<optics::Field> inputs = {random_input(cfg.grid, 50),
                                             random_input(cfg.grid, 51)};
  const auto make_hops = [&](const DonnModel& maker) {
    return maker.first_hops(inputs.size(),
                            [&](std::size_t k) { return inputs[k]; });
  };
  DonnConfig farther = cfg;
  farther.distance *= 2.0;
  DonnConfig padded = cfg;
  padded.pad2x = true;
  const DonnModel::FirstHops own = make_hops(model);
  const DonnModel::FirstHops far = make_hops(DonnModel(farther, rng));
  const DonnModel::FirstHops pad = make_hops(DonnModel(padded, rng));
  const DonnConfig wider = tiny_config(20, 2);
  const DonnModel::FirstHops wide = DonnModel(wider, rng).first_hops(
      1, [&](std::size_t) { return random_input(wider.grid, 52); });

  const DonnModel::ModulationFrames modulations = model.modulation_frames();
  DonnModel::Workspace workspace;
  auto grads = model.zero_frame_gradients();
  std::vector<std::size_t> predictions;
  EXPECT_TRUE(model.accepts(own));
  EXPECT_NO_THROW(
      model.infer_batch(own, modulations, &predictions, nullptr, nullptr));
  for (const DonnModel::FirstHops* hops : {&far, &pad, &wide}) {
    EXPECT_FALSE(model.accepts(*hops));
    EXPECT_THROW(
        model.infer_batch(*hops, modulations, &predictions, nullptr, nullptr),
        ShapeError);
    EXPECT_THROW(model.forward_backward(*hops, 0, 0, modulations, workspace,
                                        grads, {}),
                 ShapeError);
  }
  EXPECT_THROW(model.forward_backward(own, inputs.size(), 0, modulations,
                                      workspace, grads, {}),
               ShapeError);
  // Inputs of the wrong grid fail while the frames are made.
  EXPECT_THROW(model.first_hops(1,
                                [&](std::size_t) {
                                  return random_input(wider.grid, 53);
                                }),
               ShapeError);
}

TEST(Model, MasksZeroPhasesAndGradients) {
  Rng rng(11);
  DonnModel model(tiny_config(), rng);
  std::vector<sparsify::SparsityMask> masks;
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    sparsify::SparsityMask m(16, 16, 1);
    m(0, 0) = 0;
    m(5, 7) = 0;
    masks.push_back(std::move(m));
  }
  model.set_masks(masks);
  EXPECT_DOUBLE_EQ(model.phases()[0](0, 0), 0.0);
  EXPECT_DOUBLE_EQ(model.phases()[1](5, 7), 0.0);

  auto grads = model.zero_gradients();
  const auto input = random_input(model.config().grid, 15);
  model.forward_backward(input, 0, grads, {});
  model.mask_gradients(grads);
  EXPECT_DOUBLE_EQ(grads[0](0, 0), 0.0);
  EXPECT_DOUBLE_EQ(grads[1](5, 7), 0.0);
}

TEST(Model, ConfigValidation) {
  Rng rng(12);
  DonnConfig cfg = tiny_config();
  cfg.num_layers = 0;
  EXPECT_THROW(DonnModel(cfg, rng), Error);
  EXPECT_THROW(DonnConfig::scaled(8), Error);
}

TEST(Model, ScaledConfigKeepsMixingRatio) {
  for (std::size_t n : {32u, 64u, 128u}) {
    const DonnConfig cfg = DonnConfig::scaled(n);
    const double mixing = cfg.wavelength * cfg.distance /
                          (static_cast<double>(n) * cfg.grid.pitch *
                           cfg.grid.pitch);
    EXPECT_NEAR(mixing, 0.5735, 1e-6) << "n=" << n;
  }
}

TEST(Crosstalk, SmoothMaskNearlyUnchanged) {
  MatrixD smooth(16, 16, 3.0);
  const MatrixD deployed = apply_crosstalk(smooth);
  // Interior is constant => zero roughness => no change there.
  EXPECT_NEAR(deployed(8, 8), 3.0, 1e-9);
}

TEST(Crosstalk, RoughMaskDistortedMoreThanSmoothMask) {
  Rng rng(13);
  MatrixD rough(16, 16);
  for (auto& v : rough) v = rng.uniform(0.0, 2.0 * M_PI);
  MatrixD smooth(16, 16);
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < 16; ++c) {
      smooth(r, c) = 0.1 * static_cast<double>(r + c);  // gentle ramp
    }
  }
  // Compare mean interior distortion (the boundary's zero padding makes
  // even the smooth ramp "rough" at the rim, by design).
  const auto interior_mean_change = [](const MatrixD& a, const MatrixD& b) {
    double acc = 0.0;
    std::size_t count = 0;
    for (std::size_t r = 2; r < a.rows() - 2; ++r) {
      for (std::size_t c = 2; c < a.cols() - 2; ++c) {
        acc += std::abs(a(r, c) - b(r, c));
        ++count;
      }
    }
    return acc / static_cast<double>(count);
  };
  const double rough_change =
      interior_mean_change(apply_crosstalk(rough), rough);
  const double smooth_change =
      interior_mean_change(apply_crosstalk(smooth), smooth);
  EXPECT_GT(rough_change, 4.0 * smooth_change);
}

TEST(Crosstalk, StrengthZeroIsIdentity) {
  Rng rng(14);
  MatrixD phi(8, 8);
  for (auto& v : phi) v = rng.uniform(0.0, 6.0);
  CrosstalkOptions opt;
  opt.strength = 0.0;
  EXPECT_LT(max_abs_diff(apply_crosstalk(phi, opt), phi), 1e-12);
}

TEST(Crosstalk, OptionValidation) {
  MatrixD phi(4, 4, 1.0);
  CrosstalkOptions bad;
  bad.strength = 1.5;
  EXPECT_THROW(apply_crosstalk(phi, bad), Error);
}

}  // namespace
}  // namespace odonn::donn
