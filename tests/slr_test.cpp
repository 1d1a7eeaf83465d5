// Tests for src/slr: projection correctness, penalty gradients vs finite
// differences, multiplier/stepsize behavior, convergence of both SLR and
// ADMM on an analytically tractable quadratic problem.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "slr/admm.hpp"
#include "slr/slr.hpp"
#include "sparsify/mask.hpp"

#include "support/gradcheck.hpp"

namespace odonn::slr {
namespace {

std::vector<MatrixD> random_weights(std::size_t layers, std::size_t n,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<MatrixD> out;
  for (std::size_t l = 0; l < layers; ++l) {
    MatrixD w(n, n);
    for (auto& v : w) v = rng.uniform(-2.0, 2.0);
    out.push_back(std::move(w));
  }
  return out;
}

SlrOptions test_options(double ratio = 0.25, std::size_t block = 2) {
  SlrOptions opt;
  opt.scheme.scheme = sparsify::Scheme::Block;
  opt.scheme.ratio = ratio;
  opt.scheme.block_size = block;
  return opt;
}

TEST(Slr, InitialZIsBlockSparseProjection) {
  const auto w = random_weights(2, 8, 1);
  SlrState state(w, test_options());
  for (const auto& z : state.z()) {
    std::size_t zeros = 0;
    for (std::size_t i = 0; i < z.size(); ++i) {
      if (z[i] == 0.0) ++zeros;
    }
    EXPECT_EQ(zeros, 16u);  // 25% of 64
  }
}

TEST(Slr, PenaltyGradientMatchesFiniteDifferences) {
  const auto w = random_weights(2, 6, 2);
  SlrState state(w, test_options(0.25, 3));
  // Perturb W so W != Z and Lambda != 0 after one round.
  state.round(w, /*surrogate_loss=*/1.0);

  for (std::size_t layer = 0; layer < w.size(); ++layer) {
    auto grads = std::vector<MatrixD>{MatrixD(6, 6, 0.0), MatrixD(6, 6, 0.0)};
    state.add_penalty_gradient(w, grads);
    const MatrixD numeric = donn::numerical_gradient(
        [&](const MatrixD& probe) {
          auto w2 = w;
          w2[layer] = probe;
          return state.penalty_value(w2);
        },
        w[layer], 1e-6);
    EXPECT_LT(donn::gradient_rel_error(grads[layer], numeric), 1e-6)
        << "layer " << layer;
  }
}

TEST(Slr, MasksMatchZSupport) {
  const auto w = random_weights(1, 8, 3);
  SlrState state(w, test_options());
  const auto masks = state.masks();
  ASSERT_EQ(masks.size(), 1u);
  for (std::size_t i = 0; i < masks[0].size(); ++i) {
    EXPECT_EQ(masks[0][i] == 0, state.z()[0][i] == 0.0);
  }
  EXPECT_NEAR(sparsify::sparsity_ratio(masks[0]), 0.25, 1e-12);
}

TEST(Slr, StepsizeAdvancesOnlyOnImprovement) {
  const auto w = random_weights(1, 8, 4);
  SlrState state(w, test_options());
  const std::size_t k0 = state.multiplier_updates();
  state.round(w, 10.0);  // first evaluation always counts as improvement
  const std::size_t k1 = state.multiplier_updates();
  EXPECT_GT(k1, k0);
  state.round(w, 20.0);  // worse surrogate: W-side update suppressed
  // The Z-side update still advances multipliers, but at most one extra.
  EXPECT_LE(state.multiplier_updates(), k1 + 1);
}

/// Quadratic toy problem: minimize ||W - T||^2 subject to block sparsity.
/// The constrained optimum keeps the largest-norm target blocks; both SLR
/// and ADMM should converge to a W close to the sparse projection of T.
template <typename State>
double solve_quadratic(State& state, std::vector<MatrixD>& w,
                       const MatrixD& target, int iterations, double lr,
                       bool is_slr) {
  for (int it = 0; it < iterations; ++it) {
    // W-step: a few gradient steps on 0.5||W-T||^2 + penalty.
    for (int gs = 0; gs < 5; ++gs) {
      std::vector<MatrixD> grads{MatrixD(w[0].rows(), w[0].cols(), 0.0)};
      for (std::size_t i = 0; i < w[0].size(); ++i) {
        grads[0][i] = w[0][i] - target[i];
      }
      state.add_penalty_gradient(w, grads);
      for (std::size_t i = 0; i < w[0].size(); ++i) {
        w[0][i] -= lr * grads[0][i];
      }
    }
    double data_loss = 0.0;
    for (std::size_t i = 0; i < w[0].size(); ++i) {
      const double d = w[0][i] - target[i];
      data_loss += 0.5 * d * d;
    }
    if constexpr (std::is_same_v<State, SlrState>) {
      state.round(w, data_loss + state.penalty_value(w));
    } else {
      state.round(w);
    }
    (void)is_slr;
  }
  // Distance of W to its own sparse projection (constraint violation).
  double violation = 0.0;
  for (std::size_t i = 0; i < w[0].size(); ++i) {
    const double d = w[0][i] - state.z()[0][i];
    violation += d * d;
  }
  return std::sqrt(violation);
}

/// Target with well-separated block norms: the four blocks in the top-left
/// quadrant are tiny, the rest are large — so the 0.25-sparse projection
/// support is unambiguous and stable.
MatrixD structured_target() {
  MatrixD target(8, 8, 0.0);
  Rng rng(5);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      const bool tiny_quadrant = r < 4 && c < 4;
      target(r, c) = tiny_quadrant ? rng.uniform(-0.05, 0.05)
                                   : rng.uniform(1.5, 3.0);
    }
  }
  return target;
}

TEST(Slr, ConvergesOnQuadraticToyProblem) {
  const MatrixD target = structured_target();
  auto w = random_weights(1, 8, 6);

  SlrOptions opt = test_options();
  opt.rho = 1.0;
  opt.s0 = 0.3;  // toy problem: larger steps than the paper's DONN setting
  SlrState state(w, opt);
  const double initial_violation = [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < w[0].size(); ++i) {
      const double d = w[0][i] - state.z()[0][i];
      acc += d * d;
    }
    return std::sqrt(acc);
  }();
  const double violation =
      solve_quadratic(state, w, target, /*iterations=*/150, /*lr=*/0.2, true);
  // Multipliers pull W toward the block-sparse set...
  EXPECT_LT(violation, initial_violation * 0.5);
  // ...the projection zeroes the tiny quadrant...
  const auto masks = state.masks();
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(masks[0](r, c), 0);
  }
  // ...and W tracks the dense target on the kept blocks.
  for (std::size_t i = 0; i < w[0].size(); ++i) {
    if (masks[0][i] != 0) {
      EXPECT_NEAR(w[0][i], target[i], 0.5);
    }
  }
}

TEST(Admm, ConvergesOnQuadraticToyProblem) {
  const MatrixD target = structured_target();
  auto w = random_weights(1, 8, 8);

  AdmmOptions opt;
  opt.rho = 1.0;
  opt.scheme.scheme = sparsify::Scheme::Block;
  opt.scheme.ratio = 0.25;
  opt.scheme.block_size = 2;
  AdmmState state(w, opt);
  const double violation =
      solve_quadratic(state, w, target, /*iterations=*/150, /*lr=*/0.2, false);
  EXPECT_LT(violation, 0.5);
  const auto masks = state.masks();
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(masks[0](r, c), 0);
  }
}

TEST(Admm, PenaltyGradientMatchesFiniteDifferences) {
  const auto w = random_weights(1, 6, 9);
  AdmmOptions opt;
  opt.rho = 0.3;
  opt.scheme.block_size = 3;
  opt.scheme.ratio = 0.25;
  AdmmState state(w, opt);
  state.round(w);

  std::vector<MatrixD> grads{MatrixD(6, 6, 0.0)};
  state.add_penalty_gradient(w, grads);
  const MatrixD numeric = donn::numerical_gradient(
      [&](const MatrixD& probe) {
        return state.penalty_value({probe});
      },
      w[0], 1e-6);
  EXPECT_LT(donn::gradient_rel_error(grads[0], numeric), 1e-6);
}

TEST(Slr, OptionValidation) {
  const auto w = random_weights(1, 4, 10);
  SlrOptions opt = test_options();
  opt.rho = 0.0;
  EXPECT_THROW(SlrState(w, opt), Error);
  opt = test_options();
  opt.s0 = -1.0;
  EXPECT_THROW(SlrState(w, opt), Error);
  EXPECT_THROW(SlrState({}, test_options()), Error);
}

}  // namespace
}  // namespace odonn::slr
