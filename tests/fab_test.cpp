// src/fab tests: perturbation statistics (roughness-field RMS and
// correlation length), quantization exactness, per-model determinism, spec
// parsing and its hostile inputs, and the MonteCarloEvaluator's
// determinism / common-random-number contracts and first-hop reuse.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <type_traits>

#include "common/error.hpp"
#include "data/synthetic.hpp"
#include "data/transform.hpp"
#include "fab/montecarlo.hpp"
#include "fab/perturbation.hpp"
#include "fab/spec.hpp"
#include "obs/metrics.hpp"
#include "optics/fabrication.hpp"
#include "tensor/stats.hpp"

namespace odonn::fab {
namespace {

constexpr double kTwoPi = 2.0 * M_PI;

MatrixD random_phase(std::size_t n, Rng& rng, double lo = 0.0,
                     double hi = kTwoPi) {
  MatrixD phase(n, n);
  for (auto& v : phase) v = rng.uniform(lo, hi);
  return phase;
}

double sample_rms(const MatrixD& m) {
  double acc = 0.0;
  for (const auto& v : m) acc += v * v;
  return std::sqrt(acc / static_cast<double>(m.size()));
}

// ------------------------------------------------- gaussian random field

TEST(GaussianRandomField, UnitRmsExactAndSeedDeterministic) {
  Rng rng(11);
  const MatrixD field = gaussian_random_field(64, 64, 3.0, rng);
  EXPECT_NEAR(sample_rms(field), 1.0, 1e-12);

  Rng again(11);
  const MatrixD replay = gaussian_random_field(64, 64, 3.0, again);
  EXPECT_EQ(max_abs_diff(field, replay), 0.0);

  Rng other(12);
  const MatrixD different = gaussian_random_field(64, 64, 3.0, other);
  EXPECT_GT(max_abs_diff(field, different), 0.1);
}

TEST(GaussianRandomField, CorrelationLengthMatchesSpec) {
  // The normalized autocorrelation of the field is exp(-(d/L)^2): at lag
  // d = L it must be close to e^-1, and far beyond L close to zero.
  const double L = 4.0;
  const std::size_t n = 192;
  Rng rng(21);
  const MatrixD field = gaussian_random_field(n, n, L, rng);

  const auto autocorr_at = [&](std::size_t lag) {
    double num = 0.0, den = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c + lag < n; ++c) {
        num += field(r, c) * field(r, c + lag);
      }
    }
    for (const auto& v : field) den += v * v;
    // Scale the lagged sum to the same pair count as the variance sum.
    return (num / static_cast<double>(n * (n - lag))) /
           (den / static_cast<double>(n * n));
  };

  const double at_L = autocorr_at(static_cast<std::size_t>(L));
  EXPECT_NEAR(at_L, std::exp(-1.0), 0.12);
  EXPECT_LT(std::abs(autocorr_at(static_cast<std::size_t>(4.0 * L))), 0.15);
}

TEST(GaussianRandomField, ZeroCorrelationIsWhite) {
  const std::size_t n = 128;
  Rng rng(31);
  const MatrixD field = gaussian_random_field(n, n, 0.0, rng);
  EXPECT_NEAR(sample_rms(field), 1.0, 1e-12);
  // Neighboring pixels essentially uncorrelated.
  double num = 0.0, den = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c + 1 < n; ++c) num += field(r, c) * field(r, c + 1);
  }
  for (const auto& v : field) den += v * v;
  EXPECT_LT(std::abs(num / den), 0.05);
}

// ------------------------------------------------------ surface roughness

TEST(SurfaceRoughness, InjectedPhaseRmsMatchesThicknessSpec) {
  SurfaceRoughnessOptions options;
  options.sigma_um = 0.08;
  options.correlation_px = 2.0;
  const SurfaceRoughness model(options);

  Rng rng(41);
  FabricatedDevice device{{random_phase(48, rng)}, {}};
  const MatrixD original = device.phases[0];
  Rng stream(42);
  model.apply(device, stream);

  // phase <-> thickness is linear and the field has exact unit RMS, so the
  // injected phase RMS is exactly 2*pi * sigma / zone_height.
  const MatrixD diff = device.phases[0] - original;
  const double expected =
      kTwoPi * options.sigma_um * 1e-6 / optics::MaterialSpec{}.zone_height();
  EXPECT_NEAR(sample_rms(diff), expected, expected * 1e-9);
}

// ------------------------------------------------------------ quantization

TEST(QuantizeLevels, ExactlyOnLevelGridAndIdempotent) {
  const std::size_t levels = 8;
  const QuantizeLevels model(QuantizeLevelsOptions{levels});
  const double step = kTwoPi / static_cast<double>(levels);

  Rng rng(51);
  // Multi-zone relief (the 2*pi optimizer's output shape): [-2*pi, 4*pi).
  FabricatedDevice device{{random_phase(32, rng, -kTwoPi, 2.0 * kTwoPi)}, {}};
  Rng unused(0);
  model.apply(device, unused);

  for (const auto& v : device.phases[0]) {
    const double k = v / step;
    EXPECT_NEAR(k, std::round(k), 1e-9) << "value off the level grid: " << v;
  }
  // Wrapped into one zone, at most `levels` distinct values survive.
  std::set<long> wrapped;
  for (const auto& v : device.phases[0]) {
    long k = std::lround(v / step) % static_cast<long>(levels);
    if (k < 0) k += static_cast<long>(levels);
    wrapped.insert(k);
  }
  EXPECT_LE(wrapped.size(), levels);

  FabricatedDevice twice = device;
  model.apply(twice, unused);
  EXPECT_EQ(max_abs_diff(device.phases[0], twice.phases[0]), 0.0);
}

TEST(QuantizeLevels, PreservesFullTwoPiZones) {
  // Printing resolution must not wrap away the smoother's +2*pi zones:
  // quantize(phi + 2*pi) == quantize(phi) + 2*pi.
  const QuantizeLevels model(QuantizeLevelsOptions{16});
  Rng rng(61);
  FabricatedDevice base{{random_phase(16, rng)}, {}};
  FabricatedDevice lifted = base;
  lifted.phases[0].transform([](double v) { return v + kTwoPi; });

  Rng unused(0);
  model.apply(base, unused);
  model.apply(lifted, unused);
  MatrixD shifted_back = lifted.phases[0];
  shifted_back.transform([](double v) { return v - kTwoPi; });
  EXPECT_LT(max_abs_diff(base.phases[0], shifted_back), 1e-9);
}

// ------------------------------------------------------------ misalignment

TEST(LateralMisalignment, ZeroSigmaIsIdentityAndDrawsAreConsumed) {
  Rng rng(71);
  const MatrixD original = random_phase(24, rng);

  const LateralMisalignment none(MisalignmentOptions{0.0});
  FabricatedDevice device{{original}, {}};
  Rng stream_a(5);
  none.apply(device, stream_a);
  EXPECT_EQ(max_abs_diff(device.phases[0], original), 0.0);
  // Draws happen even at sigma 0 (fixed stream layout): the stream advanced.
  Rng stream_b(5);
  EXPECT_NE(stream_a.next_u64(), stream_b.next_u64());

  const LateralMisalignment some(MisalignmentOptions{0.4});
  FabricatedDevice shifted{{original}, {}};
  Rng stream_c(5);
  some.apply(shifted, stream_c);
  EXPECT_GT(max_abs_diff(shifted.phases[0], original), 0.0);
}

TEST(LateralMisalignment, PerLayerIndependentShifts) {
  Rng rng(81);
  const MatrixD original = random_phase(24, rng);
  const LateralMisalignment model(MisalignmentOptions{0.5});
  FabricatedDevice device{{original, original}, {}};
  Rng stream(9);
  model.apply(device, stream);
  // Same input mask, different per-layer draws -> different outputs.
  EXPECT_GT(max_abs_diff(device.phases[0], device.phases[1]), 0.0);
}

// ----------------------------------------------------------------- detune

TEST(WavelengthDetune, UniformPhaseRescaleAcrossLayers) {
  WavelengthDetuneOptions options;
  options.sigma_rel = 0.01;
  const WavelengthDetune model(options);

  Rng rng(91);
  FabricatedDevice device{{random_phase(16, rng, 0.5, kTwoPi),
                           random_phase(16, rng, 0.5, kTwoPi)},
                          {}};
  const std::vector<MatrixD> original = device.phases;
  Rng stream(13);
  model.apply(device, stream);

  // One laser: every pixel of every layer rescales by the same factor.
  const double factor = device.phases[0][0] / original[0][0];
  EXPECT_NE(factor, 1.0);
  for (std::size_t l = 0; l < 2; ++l) {
    for (std::size_t i = 0; i < original[l].size(); ++i) {
      EXPECT_NEAR(device.phases[l][i] / original[l][i], factor, 1e-9);
    }
  }
}

// --------------------------------------------------------------- ctjitter

TEST(CrosstalkJitter, ClampsStrengthToUnitInterval) {
  const CrosstalkJitter model(CrosstalkJitterOptions{10.0});  // huge spread
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    FabricatedDevice device{{}, {}};
    device.crosstalk.strength = 0.5;
    Rng stream(seed);
    model.apply(device, stream);
    EXPECT_GE(device.crosstalk.strength, 0.0);
    EXPECT_LE(device.crosstalk.strength, 1.0);
  }
}

// ------------------------------------------------------------ spec parser

TEST(SpecParser, ParsesNamesArgsAndDefaults) {
  const auto stack = parse_perturbation_stack(
      "roughness(sigma_um=0.1,corr=3.5)+quantize(levels=8)+misalign+detune("
      "sigma_rel=0.01)+ctjitter");
  ASSERT_EQ(stack.size(), 5u);
  EXPECT_EQ(stack[0]->name(), "roughness");
  const auto& rough = dynamic_cast<const SurfaceRoughness&>(*stack[0]);
  EXPECT_DOUBLE_EQ(rough.options().sigma_um, 0.1);
  EXPECT_DOUBLE_EQ(rough.options().correlation_px, 3.5);
  const auto& quant = dynamic_cast<const QuantizeLevels&>(*stack[1]);
  EXPECT_EQ(quant.options().levels, 8u);
  const auto& mis = dynamic_cast<const LateralMisalignment&>(*stack[2]);
  EXPECT_DOUBLE_EQ(mis.options().sigma_px, MisalignmentOptions{}.sigma_px);
  EXPECT_EQ(stack[3]->name(), "detune");
  EXPECT_EQ(stack[4]->name(), "ctjitter");
}

TEST(SpecParser, DescribeRoundTrips) {
  const std::string spec =
      "roughness(sigma_um=0.05,corr=2)+quantize(levels=16)";
  const auto stack = parse_perturbation_stack(spec);
  const std::string described = describe_stack(stack);
  const auto reparsed = parse_perturbation_stack(described);
  EXPECT_EQ(describe_stack(reparsed), described);
}

TEST(SpecParser, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_perturbation_stack(""), ConfigError);
  EXPECT_THROW(parse_perturbation_stack("frobnicate"), ConfigError);
  EXPECT_THROW(parse_perturbation_stack("roughness(bogus=1)"), ConfigError);
  EXPECT_THROW(parse_perturbation_stack("roughness(sigma_um=abc)"),
               ConfigError);
  EXPECT_THROW(parse_perturbation_stack("roughness(sigma_um=0.1"),
               ConfigError);
  EXPECT_THROW(parse_perturbation_stack("roughness+"), ConfigError);
  // Invalid parameter values fail the model's own precondition checks.
  EXPECT_THROW(parse_perturbation_stack("quantize(levels=1)"), Error);
  // Non-integer / negative level counts must not be cast to size_t.
  EXPECT_THROW(parse_perturbation_stack("quantize(levels=-3)"), ConfigError);
  EXPECT_THROW(parse_perturbation_stack("quantize(levels=7.5)"), ConfigError);
}

TEST(SpecParser, PlusInsideArgumentsIsNotASeparator) {
  // strtod numbers may contain '+': splitting happens only at depth 0.
  const auto stack = parse_perturbation_stack(
      "roughness(sigma_um=1e+0,corr=+2)+quantize(levels=16)");
  ASSERT_EQ(stack.size(), 2u);
  const auto& rough = dynamic_cast<const SurfaceRoughness&>(*stack[0]);
  EXPECT_DOUBLE_EQ(rough.options().sigma_um, 1.0);
  EXPECT_DOUBLE_EQ(rough.options().correlation_px, 2.0);
}

// ------------------------------------------------------------ monte carlo

struct McSetup {
  donn::DonnModel model;
  data::Dataset eval;
};

McSetup mc_setup(std::uint64_t seed = 7, std::size_t grid = 16,
                 bool pad2x = false) {
  donn::DonnConfig config = donn::DonnConfig::scaled(grid);
  config.num_layers = 2;
  config.pad2x = pad2x;
  config.init = donn::PhaseInit::Uniform;
  Rng rng(seed);
  donn::DonnModel model(config, rng);
  const auto raw =
      data::make_synthetic(data::SyntheticFamily::Digits, 40, seed + 1);
  return {std::move(model), data::resize_dataset(raw, grid)};
}

// The pin below holds the bits of a realized device under the two models
// that convert phase to printed thickness and back: a change to a draw,
// its order, the material constants or the conversions moves it.
TEST(RealizeDevice, BitsArePinned) {
  donn::DonnConfig config = donn::DonnConfig::scaled(16);
  config.num_layers = 2;
  config.init = donn::PhaseInit::Uniform;
  Rng model_rng(73);
  const donn::DonnModel model(config, model_rng);
  const auto stack = parse_perturbation_stack(
      "roughness(sigma_um=0.05,corr=2)+detune(sigma_rel=0.01)");
  std::uint64_t digest = kFnv1aBasis;
  for (std::uint64_t r = 0; r < 4; ++r) {
    Rng rng = realization_rng(9, r, /*antithetic=*/false);
    const donn::DonnModel realized =
        realize_device(model, stack, {}, /*deploy_crosstalk=*/false, rng);
    for (const MatrixD& phase : realized.phases()) {
      for (const double v : phase) digest = fnv1a_mix(digest, v);
    }
  }
  EXPECT_EQ(digest, 0x9febc683122d956bULL) << std::hex << digest;
}

TEST(RealizationSeed, CounterBasedStreamsAreDistinct) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t r = 0; r < 256; ++r) {
    seen.insert(realization_seed(7, r));
  }
  EXPECT_EQ(seen.size(), 256u);
  EXPECT_EQ(realization_seed(7, 3), realization_seed(7, 3));
  EXPECT_NE(realization_seed(7, 3), realization_seed(8, 3));
}

TEST(RealizationRng, PlainModeMatchesSeededStream) {
  Rng via_helper = realization_rng(7, 5, /*antithetic=*/false);
  Rng direct(realization_seed(7, 5));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(via_helper.next_u64(), direct.next_u64());
}

TEST(RealizationRng, AntitheticPairsShareSeedWithMirroredNormals) {
  // Pair (2m, 2m+1) consumes the SAME uniform stream; the odd member's
  // normal draws are exact sign flips.
  Rng even = realization_rng(7, 4, /*antithetic=*/true);
  Rng odd = realization_rng(7, 5, /*antithetic=*/true);
  EXPECT_FALSE(even.antithetic());
  EXPECT_TRUE(odd.antithetic());
  for (int i = 0; i < 16; ++i) {
    const double z = even.normal();
    EXPECT_EQ(odd.normal(), -z);  // bitwise: negation is exact
  }
  // Distinct pairs draw from distinct seeds (realizations 4,5 -> pair 2;
  // realizations 6,7 -> pair 3).
  EXPECT_NE(realization_rng(7, 6, true).next_u64(),
            realization_rng(7, 4, true).next_u64());
}

TEST(GaussianRandomField, AntitheticStreamYieldsExactMirrorField) {
  // The GRF pipeline (white normals -> separable blur -> exact-RMS
  // renormalization) commutes with negation in IEEE arithmetic, so the
  // antithetic partner's field is the bitwise negation of the plain one.
  Rng plain = realization_rng(11, 2, /*antithetic=*/true);   // even: plain
  Rng mirror = realization_rng(11, 3, /*antithetic=*/true);  // odd: flipped
  const MatrixD field = gaussian_random_field(32, 32, 2.0, plain);
  const MatrixD anti = gaussian_random_field(32, 32, 2.0, mirror);
  for (std::size_t i = 0; i < field.size(); ++i) {
    EXPECT_EQ(anti[i], -field[i]) << "pixel " << i;
  }
}

TEST(MonteCarloEvaluatorTest, RepeatedEvaluationIsBitwiseIdentical) {
  const McSetup setup = mc_setup();
  MonteCarloOptions options;
  options.realizations = 6;
  options.seed = 99;
  const MonteCarloEvaluator evaluator(setup.eval, options);
  const auto stack = parse_perturbation_stack(kDefaultPerturbationSpec);

  const auto first = evaluator.evaluate("m", setup.model, stack);
  const auto second = evaluator.evaluate("m", setup.model, stack);
  ASSERT_EQ(first.accuracies.size(), 6u);
  for (std::size_t r = 0; r < first.accuracies.size(); ++r) {
    EXPECT_EQ(first.accuracies[r], second.accuracies[r]);
  }
  EXPECT_EQ(first.digest(), second.digest());

  MonteCarloOptions reseeded = options;
  reseeded.seed = 100;
  const MonteCarloEvaluator other(setup.eval, reseeded);
  EXPECT_NE(other.evaluate("m", setup.model, stack).digest(), first.digest());
}

TEST(MonteCarloEvaluatorTest, CleanAccuracyCountsPerSamplePredictions) {
  // evaluate() scores the clean model with infer_batch; its accuracy must
  // be exactly the share of eval samples whose per-sample predict() hits
  // the label, on a radix-2 grid and on mixed-radix grids whose last lane
  // group is whole (20) and partial (18).
  for (const std::size_t grid : {16, 20, 18}) {
    SCOPED_TRACE("grid " + std::to_string(grid));
    const McSetup setup = mc_setup(37, grid);
    MonteCarloOptions options;
    options.realizations = 1;
    const MonteCarloEvaluator evaluator(setup.eval, options);
    const auto report = evaluator.evaluate(
        "m", setup.model, parse_perturbation_stack("quantize"));

    const donn::DonnModel::ModulationFrames modulations =
        setup.model.modulation_frames();
    donn::DonnModel::Workspace workspace;
    std::size_t correct = 0;
    for (std::size_t i = 0; i < setup.eval.size(); ++i) {
      const optics::Field input = optics::encode_image(
          setup.eval.image(i), setup.model.config().grid);
      if (setup.model.predict(input, modulations, workspace) ==
          setup.eval.label(i)) {
        ++correct;
      }
    }
    EXPECT_EQ(report.clean_accuracy,
              static_cast<double>(correct) /
                  static_cast<double>(setup.eval.size()));
  }
}

TEST(MonteCarloEvaluatorTest, ReportStatisticsAreConsistent) {
  const McSetup setup = mc_setup(17);
  MonteCarloOptions options;
  options.realizations = 8;
  options.yield_threshold = 0.0;  // everything passes
  const MonteCarloEvaluator evaluator(setup.eval, options);
  const auto stack = parse_perturbation_stack("roughness(sigma_um=0.03)");
  const auto report = evaluator.evaluate("m", setup.model, stack);

  ASSERT_EQ(report.accuracies.size(), 8u);
  double sum = 0.0, lo = 1.0, hi = 0.0;
  for (const double acc : report.accuracies) {
    sum += acc;
    lo = std::min(lo, acc);
    hi = std::max(hi, acc);
  }
  EXPECT_DOUBLE_EQ(report.mean, sum / 8.0);
  EXPECT_DOUBLE_EQ(report.min, lo);
  EXPECT_DOUBLE_EQ(report.max, hi);
  EXPECT_GE(report.p50, report.p5);
  EXPECT_GE(report.p95, report.p50);
  EXPECT_DOUBLE_EQ(report.yield, 1.0);
  EXPECT_DOUBLE_EQ(yield_at(report, 2.0), 0.0);  // accuracy never exceeds 1
  EXPECT_DOUBLE_EQ(yield_at(report, report.min), 1.0);
}

TEST(MonteCarloEvaluatorTest, CommonRandomNumbersAcrossVariants) {
  const McSetup setup_a = mc_setup(23);
  const McSetup setup_b = mc_setup(29);  // a different model, same grid
  MonteCarloOptions options;
  options.realizations = 4;
  const MonteCarloEvaluator evaluator(setup_a.eval, options);
  const auto stack = parse_perturbation_stack(kDefaultPerturbationSpec);

  // compare() must equal the two standalone evaluations exactly: the
  // perturbation draws depend on (seed, r) only, never on the model.
  const auto paired = evaluator.compare(
      {{"a", &setup_a.model}, {"b", &setup_b.model}}, stack);
  ASSERT_EQ(paired.size(), 2u);
  EXPECT_EQ(paired[0].digest(),
            evaluator.evaluate("a", setup_a.model, stack).digest());
  EXPECT_EQ(paired[1].digest(),
            evaluator.evaluate("b", setup_b.model, stack).digest());
}

TEST(MonteCarloEvaluatorTest, AntitheticReportsAreDeterministicAndPaired) {
  const McSetup setup = mc_setup(43);
  MonteCarloOptions options;
  options.realizations = 6;
  options.antithetic = true;
  const MonteCarloEvaluator evaluator(setup.eval, options);
  const auto stack = parse_perturbation_stack("roughness(sigma_um=0.05)");

  const auto report = evaluator.evaluate("m", setup.model, stack);
  EXPECT_EQ(report.digest(), evaluator.evaluate("m", setup.model, stack).digest());

  // Antithetic draws differ from the plain stream at equal (seed, R).
  MonteCarloOptions plain = options;
  plain.antithetic = false;
  const MonteCarloEvaluator plain_eval(setup.eval, plain);
  EXPECT_NE(plain_eval.evaluate("m", setup.model, stack).digest(),
            report.digest());
}

TEST(MonteCarloEvaluatorTest, AntitheticLowersMeanEstimatorVariance) {
  // The variance-reduction claim: across independent evaluator seeds, the
  // spread of the R-realization mean-accuracy estimate is measurably
  // smaller with antithetic pairs than with plain streams at equal R (the
  // pair mean cancels the accuracy response's linear term in the noise).
  const McSetup setup = mc_setup(47);
  const auto stack = parse_perturbation_stack("roughness(sigma_um=0.06,corr=2)");

  const auto estimator_variance = [&](bool antithetic) {
    std::vector<double> means;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      MonteCarloOptions options;
      options.realizations = 8;
      options.seed = seed * 101;
      options.antithetic = antithetic;
      const MonteCarloEvaluator evaluator(setup.eval, options);
      means.push_back(evaluator.evaluate("m", setup.model, stack).mean);
    }
    double mu = 0.0;
    for (const double m : means) mu += m;
    mu /= static_cast<double>(means.size());
    double var = 0.0;
    for (const double m : means) var += (m - mu) * (m - mu);
    return var / static_cast<double>(means.size());
  };

  const double var_plain = estimator_variance(false);
  const double var_anti = estimator_variance(true);
  EXPECT_LT(var_anti, var_plain)
      << "plain " << var_plain << " vs antithetic " << var_anti;
}

TEST(MonteCarloEvaluatorTest, ConcurrentEvaluatesOnOneInstanceAreSafe) {
  // The encoding cache is shared across evaluate() calls; two concurrent
  // evaluations of one evaluator must neither race on it nor change any
  // result (regression: the cache used to be rebuilt unguarded inside the
  // const call).
  const McSetup setup_a = mc_setup(53);
  const McSetup setup_b = mc_setup(59);
  MonteCarloOptions options;
  options.realizations = 4;
  const MonteCarloEvaluator evaluator(setup_a.eval, options);
  const auto stack = parse_perturbation_stack(kDefaultPerturbationSpec);

  const auto expected_a = evaluator.evaluate("a", setup_a.model, stack);
  const auto expected_b = evaluator.evaluate("b", setup_b.model, stack);

  for (int round = 0; round < 4; ++round) {
    RobustnessReport got_a, got_b;
    std::thread ta([&] { got_a = evaluator.evaluate("a", setup_a.model, stack); });
    std::thread tb([&] { got_b = evaluator.evaluate("b", setup_b.model, stack); });
    ta.join();
    tb.join();
    EXPECT_EQ(got_a.digest(), expected_a.digest());
    EXPECT_EQ(got_b.digest(), expected_b.digest());
  }
}

TEST(MonteCarloEvaluatorTest, RejectsGridMismatchAndEmptyConfig) {
  const McSetup setup = mc_setup(31);
  MonteCarloOptions options;
  options.realizations = 0;
  EXPECT_THROW(MonteCarloEvaluator(setup.eval, options), Error);

  options.realizations = 2;
  for (const double threshold : {2.0, -1.0}) {
    options.yield_threshold = threshold;
    EXPECT_THROW(MonteCarloEvaluator(setup.eval, options), Error) << threshold;
  }
  options.yield_threshold = 0.5;
  const auto raw =
      data::make_synthetic(data::SyntheticFamily::Digits, 10, 5);
  const auto wrong_grid = data::resize_dataset(raw, 20);  // model is 16
  const MonteCarloEvaluator evaluator(wrong_grid, options);
  const auto stack = parse_perturbation_stack("quantize");
  EXPECT_THROW(evaluator.evaluate("m", setup.model, stack), Error);
}

// A temporary eval set would dangle: the evaluator keeps a reference.
static_assert(std::is_constructible_v<MonteCarloEvaluator,
                                      const data::Dataset&,
                                      const MonteCarloOptions&>);
static_assert(!std::is_constructible_v<MonteCarloEvaluator, data::Dataset&&,
                                       const MonteCarloOptions&>);

/// Accuracy of `model` on the encoded eval `inputs` against the eval
/// labels, as the evaluator computes it: infer_batch through the model's own
/// tables.
double accuracy(const donn::DonnModel& model,
                const std::vector<optics::Field>& inputs,
                const data::Dataset& eval) {
  std::vector<std::size_t> predictions;
  model.infer_batch(inputs, model.modulation_frames(), &predictions, nullptr,
                    nullptr);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    correct += predictions[i] == eval.label(i) ? 1 : 0;
  }
  return static_cast<double>(correct) /
         static_cast<double>(predictions.size());
}

struct ParityCase {
  const char* name;
  std::size_t grid;
  bool pad2x;
  bool antithetic;
};

class FirstHopParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(FirstHopParity, EvaluateAndCompareMatchARealizeAndPredictLoop) {
  // The evaluator scores every model from cached first hops; its reports
  // must equal realize_device + infer_batch over the encoded eval set,
  // accuracy for accuracy, for the clean model and every realization, in
  // evaluate() and in both variants of a compare().
  const ParityCase c = GetParam();
  const McSetup a = mc_setup(61, c.grid, c.pad2x);
  const McSetup b = mc_setup(67, c.grid, c.pad2x);
  MonteCarloOptions options;
  options.realizations = 4;
  options.seed = 5;
  options.antithetic = c.antithetic;
  const MonteCarloEvaluator evaluator(a.eval, options);
  const auto stack = parse_perturbation_stack(kDefaultPerturbationSpec);

  std::vector<optics::Field> inputs;
  for (std::size_t i = 0; i < a.eval.size(); ++i) {
    inputs.push_back(optics::encode_image(a.eval.image(i),
                                          a.model.config().grid));
  }
  const auto check = [&](const RobustnessReport& report,
                         const donn::DonnModel& model) {
    SCOPED_TRACE(report.model_name);
    EXPECT_EQ(report.clean_accuracy,
              accuracy(model, inputs, a.eval));
    ASSERT_EQ(report.accuracies.size(), options.realizations);
    for (std::size_t r = 0; r < options.realizations; ++r) {
      Rng rng = realization_rng(options.seed, r, options.antithetic);
      const donn::DonnModel realized =
          realize_device(model, stack, options.crosstalk,
                         options.deploy_crosstalk, rng);
      EXPECT_EQ(report.accuracies[r],
                accuracy(realized, inputs, a.eval))
          << "realization " << r;
    }
  };
  check(evaluator.evaluate("a", a.model, stack), a.model);
  const auto reports =
      evaluator.compare({{"a", &a.model}, {"b", &b.model}}, stack);
  ASSERT_EQ(reports.size(), 2u);
  check(reports[0], a.model);
  check(reports[1], b.model);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, FirstHopParity,
    ::testing::Values(ParityCase{"radix2_n16", 16, false, false},
                      ParityCase{"radix2_n16_antithetic", 16, false, true},
                      ParityCase{"mixed_radix_n20", 20, false, false},
                      ParityCase{"mixed_radix_n20_antithetic", 20, false,
                                 true},
                      ParityCase{"mixed_radix_n18", 18, false, false},
                      ParityCase{"pad2x_n16", 16, true, false},
                      ParityCase{"pad2x_n16_antithetic", 16, true, true}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return std::string(info.param.name);
    });

TEST(MonteCarloEvaluatorTest, FirstHopsArePropagatedOncePerInput) {
  // An evaluate of R realizations over K inputs of an L-layer model costs
  // K + (R+1)*K*L propagations on a cold cache and (R+1)*K*L on a warm one
  // (the field path paid (R+1)*K*(L+1)); the constructor propagates
  // nothing, and a model of other propagation options rebuilds the cache.
#ifdef ODONN_OBS_DISABLE
  GTEST_SKIP() << "counters are compiled out";
#endif
  const McSetup setup = mc_setup(71);
  const McSetup padded = mc_setup(73, 16, /*pad2x=*/true);
  MonteCarloOptions options;
  options.realizations = 3;
  const auto stack = parse_perturbation_stack(kDefaultPerturbationSpec);
  const obs::Counter& propagations =
      obs::MetricsRegistry::global().counter("optics.propagations");
  const auto cost = [&](const auto& run) {
    const std::uint64_t before = propagations.value();
    run();
    return propagations.value() - before;
  };
  const std::uint64_t k = setup.eval.size();
  const std::uint64_t r = options.realizations;
  const std::uint64_t l = setup.model.num_layers();
  const std::uint64_t cold = k + (r + 1) * k * l;
  const std::uint64_t warm = (r + 1) * k * l;

  std::optional<MonteCarloEvaluator> evaluator;
  EXPECT_EQ(cost([&] { evaluator.emplace(setup.eval, options); }), 0u);
  const auto evaluate = [&](const donn::DonnModel& model) {
    return cost([&] { evaluator->evaluate("m", model, stack); });
  };
  EXPECT_EQ(evaluate(setup.model), cold);
  EXPECT_EQ(evaluate(setup.model), warm);
  EXPECT_EQ(evaluate(padded.model), cold);  // pad2x: other frames
  EXPECT_EQ(evaluate(padded.model), warm);
  EXPECT_EQ(cost([&] {
              evaluator->compare({{"a", &setup.model}, {"b", &setup.model}},
                                 stack);
            }),
            cold + warm);
}

// ------------------------------------------------- hostile perturbation specs

TEST(HostileSpec, InfiniteRoughnessSigmaIsAConfigError) {
  EXPECT_THROW(parse_perturbation_stack("roughness(sigma_um=inf)"),
               ConfigError);
  EXPECT_THROW(parse_perturbation_stack("roughness(sigma_um=nan)"),
               ConfigError);
}

TEST(HostileSpec, InfiniteMisalignSigmaIsAConfigError) {
  EXPECT_THROW(parse_perturbation_stack("misalign(sigma_px=inf)"),
               ConfigError);
}

TEST(HostileSpec, InfiniteCorrelationIsAConfigErrorAndSafeBelowTheParser) {
  EXPECT_THROW(parse_perturbation_stack("roughness(corr=inf)"), ConfigError);
  // Called directly, the field's blur radius is capped at the field size
  // before the double -> long cast, so the field stays finite.
  Rng rng(79);
  const MatrixD field =
      gaussian_random_field(16, 16, std::numeric_limits<double>::infinity(),
                            rng);
  for (const double v : field) ASSERT_TRUE(std::isfinite(v));
  EXPECT_NEAR(sample_rms(field), 1.0, 1e-12);
}

TEST(HostileSpec, OverflowingRoughnessSigmaFailsTheRealization) {
  // 1e308 um is finite, so the parser takes it; the realized phase is not.
  const auto stack = parse_perturbation_stack("roughness(sigma_um=1e308)");
  const McSetup setup = mc_setup(83);
  Rng rng(84);
  EXPECT_THROW(realize_device(setup.model, stack, {}, true, rng),
               NumericsError);
  MonteCarloOptions options;
  options.realizations = 2;
  const MonteCarloEvaluator evaluator(setup.eval, options);
  EXPECT_THROW(evaluator.evaluate("m", setup.model, stack), NumericsError);
}

TEST(HostileSpec, HugeCorrelationEvaluatesWithoutExhaustingMemory) {
  // corr=1e12 px asked for a ~3e12-tap blur kernel (std::bad_alloc); the
  // capped radius covers the whole field with the same taps.
  const auto stack = parse_perturbation_stack("roughness(corr=1e12)");
  const McSetup setup = mc_setup(89);
  MonteCarloOptions options;
  options.realizations = 2;
  const MonteCarloEvaluator evaluator(setup.eval, options);
  const RobustnessReport report = evaluator.evaluate("m", setup.model, stack);
  ASSERT_EQ(report.accuracies.size(), 2u);
  for (const double acc : report.accuracies) {
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
  }
}

}  // namespace
}  // namespace odonn::fab
