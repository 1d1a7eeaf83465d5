// Tests for src/smooth2pi: Gumbel-sigmoid statistics, the exact 1-D DP
// (validated by exhaustive enumeration), greedy and Gumbel-Softmax solver
// quality, the §III-D2 guarantee that 2*pi smoothing never hurts, and the
// concurrent per-layer solve (in the `concurrency` ctest label).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "roughness/roughness.hpp"
#include "smooth2pi/gumbel.hpp"
#include "smooth2pi/two_pi_opt.hpp"
#include "sparsify/block_sparsify.hpp"
#include "tensor/stats.hpp"

namespace odonn::smooth2pi {
namespace {

constexpr double kTwoPi = 2.0 * M_PI;

TEST(Gumbel, SigmoidBasics) {
  EXPECT_DOUBLE_EQ(sigmoid(0.0), 0.5);
  EXPECT_NEAR(sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-100.0), 0.0, 1e-12);
  EXPECT_NEAR(sigmoid(2.0) + sigmoid(-2.0), 1.0, 1e-12);
}

TEST(Gumbel, SampleMeanTracksLogitSign) {
  Rng rng(1);
  const std::size_t n = 20000;
  std::vector<double> soft_pos(n), soft_neg(n), gumbels;
  gumbel_sigmoid_samples(std::vector<double>(n, 2.0), 1.0, rng, gumbels,
                         soft_pos);
  gumbel_sigmoid_samples(std::vector<double>(n, -2.0), 1.0, rng, gumbels,
                         soft_neg);
  double mean_pos = 0.0, mean_neg = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mean_pos += soft_pos[i];
    mean_neg += soft_neg[i];
  }
  mean_pos /= n;
  mean_neg /= n;
  EXPECT_GT(mean_pos, 0.75);
  EXPECT_LT(mean_neg, 0.25);
  EXPECT_NEAR(mean_pos + mean_neg, 1.0, 0.02);  // symmetry
}

TEST(Gumbel, LowTemperatureSharpensSamples) {
  Rng rng(2);
  const std::size_t n = 5000;
  const std::vector<double> theta(n, 0.5);
  std::vector<double> hot(n), cold(n), gumbels;
  gumbel_sigmoid_samples(theta, 5.0, rng, gumbels, hot);
  gumbel_sigmoid_samples(theta, 0.05, rng, gumbels, cold);
  int extreme_hot = 0, extreme_cold = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(hot[i] - 0.5) > 0.45) ++extreme_hot;
    if (std::abs(cold[i] - 0.5) > 0.45) ++extreme_cold;
  }
  EXPECT_GT(extreme_cold, extreme_hot * 3);
}

TEST(Gumbel, BatchedSamplesMatchPerPixelDraws) {
  // Pixel i takes the stream's Gumbels 2i and 2i + 1, in that order, as
  // sigmoid((theta + (G1 - G2)) / tau) drawn one pixel at a time would.
  const std::vector<double> theta = {-3.0, -0.25, 0.0, -0.0, 0.5, 2.0, 7.5};
  const double tau = 0.7;
  Rng batched(5);
  Rng single(5);
  std::vector<double> soft(theta.size()), gumbels;
  gumbel_sigmoid_samples(theta, tau, batched, gumbels, soft);
  for (std::size_t i = 0; i < theta.size(); ++i) {
    const double g1 = single.gumbel();
    const double g2 = single.gumbel();
    const double expected = sigmoid((theta[i] + (g1 - g2)) / tau);
    EXPECT_EQ(std::memcmp(&soft[i], &expected, sizeof(double)), 0)
        << "pixel " << i;
  }
  EXPECT_EQ(batched.next_u64(), single.next_u64());  // same stream position
}

TEST(Gumbel, AnnealInterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(anneal_tau(2.0, 0.2, 0, 10), 2.0);
  EXPECT_DOUBLE_EQ(anneal_tau(2.0, 0.2, 9, 10), 0.2);
  EXPECT_NEAR(anneal_tau(2.0, 0.2, 4, 9), 1.1, 1e-12);
  EXPECT_DOUBLE_EQ(anneal_tau(2.0, 0.2, 0, 1), 0.2);
}

/// Brute-force optimum for tiny 1-row instances.
double brute_force_1d(const std::vector<double>& values,
                      const roughness::RoughnessOptions& ropt,
                      std::vector<std::uint8_t>* best_sel = nullptr) {
  const std::size_t n = values.size();
  double best = 1e300;
  for (std::size_t bits = 0; bits < (std::size_t{1} << n); ++bits) {
    MatrixD row(1, n);
    for (std::size_t i = 0; i < n; ++i) {
      row(0, i) = values[i] + (((bits >> i) & 1U) != 0 ? kTwoPi : 0.0);
    }
    const double r = roughness::mask_roughness(row, ropt);
    if (r < best) {
      best = r;
      if (best_sel != nullptr) {
        best_sel->assign(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
          (*best_sel)[i] = static_cast<std::uint8_t>((bits >> i) & 1U);
        }
      }
    }
  }
  return best;
}

double selection_roughness(const std::vector<double>& values,
                           const std::vector<std::uint8_t>& sel,
                           const roughness::RoughnessOptions& ropt) {
  MatrixD row(1, values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    row(0, i) = values[i] + (sel[i] != 0 ? kTwoPi : 0.0);
  }
  return roughness::mask_roughness(row, ropt);
}

class Dp1d : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Dp1d, MatchesBruteForceOnRandomInstances) {
  Rng rng(GetParam());
  const std::size_t n = 2 + rng.uniform_index(9);  // 2..10
  std::vector<double> values(n);
  for (auto& v : values) v = rng.uniform(0.0, kTwoPi);
  // Mix in some zeros as sparsified pixels.
  for (auto& v : values) {
    if (rng.bernoulli(0.3)) v = 0.0;
  }
  for (auto nb : {roughness::Neighborhood::Four, roughness::Neighborhood::Eight}) {
    roughness::RoughnessOptions ropt;
    ropt.neighborhood = nb;
    const auto dp = exact_1d_selection(values, ropt);
    const double dp_score = selection_roughness(values, dp, ropt);
    const double brute = brute_force_1d(values, ropt);
    EXPECT_NEAR(dp_score, brute, 1e-9) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Dp1d, ::testing::Range<std::uint64_t>(1, 13));

TEST(Greedy, NeverWorseThanIdentityAndMatchesDpOn1d) {
  Rng rng(50);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 4 + rng.uniform_index(6);
    MatrixD row(1, n);
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = rng.bernoulli(0.4) ? 0.0 : rng.uniform(0.0, kTwoPi);
      row(0, i) = values[i];
    }
    roughness::RoughnessOptions ropt;
    const auto result = greedy_2pi(row, ropt);
    EXPECT_LE(result.roughness_after, result.roughness_before + 1e-12);
    // Greedy is locally optimal; on these tiny chains it should be within
    // 10% of the DP optimum.
    const auto dp = exact_1d_selection(values, ropt);
    const double dp_score = selection_roughness(values, dp, ropt);
    EXPECT_LE(result.roughness_after, dp_score * 1.10 + 1e-9);
    EXPECT_GE(result.roughness_after, dp_score - 1e-9);  // DP is optimal
  }
}

MatrixD sparsified_phase_mask(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  MatrixD phi(n, n);
  // A smooth-ish trained mask: values near 5 rad with mild variation.
  for (auto& v : phi) v = 5.0 + rng.uniform(-0.4, 0.4);
  const auto mask = sparsify::block_sparsify(phi, {n / 4, 0.25});
  sparsify::apply_mask(phi, mask);
  return phi;
}

TEST(Optimize2Pi, ReducesRoughnessOfSparsifiedMask) {
  // Sparsified pixels sit at 0 while their surroundings sit near 5 rad
  // (~2*pi - 1.3): lifting the zeros by 2*pi brings them within ~1.3 rad,
  // so a large reduction must be found (the paper's §III-D2 scenario).
  const MatrixD phi = sparsified_phase_mask(16, 3);
  TwoPiOptions opt;
  opt.iterations = 200;
  const auto result = optimize_2pi(phi, opt);
  EXPECT_LT(result.roughness_after, result.roughness_before * 0.9);
  EXPECT_GT(result.added_count, 0u);
}

TEST(Optimize2Pi, NeverWorseThanIdentity) {
  Rng rng(4);
  for (int trial = 0; trial < 4; ++trial) {
    MatrixD phi(10, 10);
    for (auto& v : phi) v = rng.uniform(0.0, kTwoPi);
    TwoPiOptions opt;
    opt.iterations = 60;
    opt.seed = 100 + static_cast<std::uint64_t>(trial);
    const auto result = optimize_2pi(phi, opt);
    EXPECT_LE(result.roughness_after, result.roughness_before + 1e-12);
  }
}

TEST(Optimize2Pi, DeterministicForSameSeed) {
  const MatrixD phi = sparsified_phase_mask(12, 5);
  TwoPiOptions opt;
  opt.iterations = 80;
  const auto a = optimize_2pi(phi, opt);
  const auto b = optimize_2pi(phi, opt);
  EXPECT_EQ(a.selection, b.selection);
  EXPECT_DOUBLE_EQ(a.roughness_after, b.roughness_after);
}

TEST(Optimize2Pi, SelectionMatchesOptimizedValues) {
  const MatrixD phi = sparsified_phase_mask(12, 7);
  const auto result = optimize_2pi(phi, {});
  for (std::size_t i = 0; i < phi.size(); ++i) {
    const double expected = phi[i] + (result.selection[i] != 0 ? kTwoPi : 0.0);
    EXPECT_DOUBLE_EQ(result.optimized[i], expected);
  }
  std::size_t count = 0;
  for (std::size_t i = 0; i < result.selection.size(); ++i) {
    if (result.selection[i] != 0) ++count;
  }
  EXPECT_EQ(count, result.added_count);
}

/// Folds a solve's optimized phases, selection and roughness_after into
/// `hash` (fnv1a_mix over their IEEE-754 bits).
std::uint64_t fold_result(std::uint64_t hash, const TwoPiResult& result) {
  for (const double v : result.optimized) hash = fnv1a_mix(hash, v);
  for (const std::uint8_t s : result.selection) {
    hash = fnv1a_mix(hash, static_cast<double>(s));
  }
  return fnv1a_mix(hash, result.roughness_after);
}

// The two pins below hold the solver's bits: a change to any IEEE
// operation, libm call or the order the noise stream is consumed in moves
// them. Both digests were recorded before the noise draws were batched.
TEST(Optimize2Pi, BitsArePinned) {
  TwoPiOptions opt;
  opt.iterations = 300;
  const std::uint64_t digest =
      fold_result(kFnv1aBasis, optimize_2pi(sparsified_phase_mask(32, 11), opt));
  EXPECT_EQ(digest, 0x911fffea845b24b1ULL) << std::hex << digest;
}

TEST(Optimize2PiAll, BitsArePinned) {
  const std::vector<MatrixD> masks = {sparsified_phase_mask(32, 12),
                                      sparsified_phase_mask(32, 13),
                                      sparsified_phase_mask(32, 14)};
  TwoPiOptions opt;
  opt.iterations = 300;
  std::uint64_t digest = kFnv1aBasis;
  for (const TwoPiResult& result : optimize_2pi_all(masks, opt)) {
    digest = fold_result(digest, result);
  }
  EXPECT_EQ(digest, 0x5f62616b8fb05324ULL) << std::hex << digest;
}

TEST(Optimize2Pi, GumbelComparableToGreedyOnSparsifiedMasks) {
  const MatrixD phi = sparsified_phase_mask(16, 8);
  TwoPiOptions opt;
  opt.iterations = 300;
  const auto gs = optimize_2pi(phi, opt);
  const auto greedy = greedy_2pi(phi);
  // GS should land within 15% of the greedy local optimum.
  EXPECT_LE(gs.roughness_after, greedy.roughness_after * 1.15);
}

TEST(Optimize2PiAll, ProcessesEveryLayer) {
  // Layers are solved concurrently; each must still equal, bit for bit, a
  // sequential optimize_2pi with its derived seed — on one thread and on
  // the whole pool.
  Rng rng(9);
  std::vector<MatrixD> masks;
  for (int layer = 0; layer < 5; ++layer) {
    MatrixD phi(12, 12);
    for (auto& v : phi) v = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, kTwoPi);
    masks.push_back(std::move(phi));
  }
  TwoPiOptions opt;
  opt.iterations = 100;
  std::vector<TwoPiResult> sequential;
  for (std::size_t i = 0; i < masks.size(); ++i) {
    TwoPiOptions layer_opt = opt;
    layer_opt.seed = opt.seed + i * 0x9e3779b9ULL;
    sequential.push_back(optimize_2pi(masks[i], layer_opt));
  }
  // The solves depend on the seed, so matching them checks the seeds too.
  TwoPiOptions other_seed = opt;
  other_seed.seed = opt.seed + 1;
  EXPECT_FALSE(optimize_2pi(masks[1], other_seed).selection ==
               sequential[1].selection);
  for (const std::size_t budget : {std::size_t{1}, std::size_t{0}}) {
    const ScopedThreadBudget scoped(budget);
    const auto results = optimize_2pi_all(masks, opt);
    ASSERT_EQ(results.size(), masks.size());
    for (std::size_t i = 0; i < masks.size(); ++i) {
      const TwoPiResult& r = results[i];
      const TwoPiResult& ref = sequential[i];
      EXPECT_LE(r.roughness_after, r.roughness_before + 1e-12);
      ASSERT_TRUE(r.optimized.same_shape(ref.optimized));
      ASSERT_TRUE(r.selection.same_shape(ref.selection));
      EXPECT_EQ(std::memcmp(r.optimized.data(), ref.optimized.data(),
                            ref.optimized.size() * sizeof(double)),
                0)
          << "budget " << budget << " layer " << i;
      EXPECT_EQ(std::memcmp(r.selection.data(), ref.selection.data(),
                            ref.selection.size()),
                0)
          << "budget " << budget << " layer " << i;
      EXPECT_EQ(std::memcmp(&r.roughness_after, &ref.roughness_after,
                            sizeof(double)),
                0)
          << "budget " << budget << " layer " << i;
    }
  }
}

}  // namespace
}  // namespace odonn::smooth2pi
