// Tests for src/train: Adam (convergence + its known first step), and the
// Trainer end to end on small separable tasks, including the regularizer
// and SLR integrations.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "donn/model.hpp"
#include "fab/spec.hpp"
#include "roughness/report.hpp"
#include "train/optim.hpp"
#include "train/recipe.hpp"
#include "train/trainer.hpp"

namespace odonn::train {
namespace {

/// Quadratic objective 0.5 * ||w - target||^2 for optimizer tests.
MatrixD quadratic_grad(const MatrixD& w, const MatrixD& target) {
  MatrixD g = w;
  g -= target;
  return g;
}

TEST(Optim, AdamFirstStepHasMagnitudeLr) {
  // With bias correction, Adam's very first update is lr * g/|g| (+eps).
  std::vector<MatrixD> w{MatrixD(1, 2, 0.0)};
  std::vector<MatrixD> g{MatrixD(1, 2, 0.0)};
  g[0][0] = 0.5;
  g[0][1] = -3.0;
  Adam opt(0.1);
  opt.step(w, g);
  EXPECT_NEAR(w[0][0], -0.1, 1e-6);
  EXPECT_NEAR(w[0][1], 0.1, 1e-6);
}

TEST(Optim, AdamConvergesOnQuadratic) {
  MatrixD target(4, 4, -1.5);
  std::vector<MatrixD> w{MatrixD(4, 4, 3.0)};
  Adam opt(0.2);
  for (int i = 0; i < 300; ++i) {
    std::vector<MatrixD> g{quadratic_grad(w[0], target)};
    opt.step(w, g);
  }
  EXPECT_LT(max_abs_diff(w[0], target), 1e-3);
}

TEST(Optim, AdamValidatesLrAndShapes) {
  EXPECT_THROW(Adam(-0.1), Error);
  std::vector<MatrixD> w{MatrixD(2, 2, 0.0)};
  std::vector<MatrixD> bad{MatrixD(3, 3, 0.0)};
  Adam opt(0.1);
  EXPECT_THROW(opt.step(w, bad), ShapeError);
}

/// Binary task on the optical grid: class 0 lights the left half, class 1
/// the right half. Very separable; a DONN learns it in a couple of epochs.
data::Dataset halves_dataset(std::size_t n, std::size_t count,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<MatrixD> images;
  std::vector<std::size_t> labels;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t label = i % 2;
    MatrixD img(n, n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        const bool left = c < n / 2;
        if (left == (label == 0)) {
          img(r, c) = 0.6 + 0.4 * rng.uniform();
        } else if (rng.bernoulli(0.05)) {
          img(r, c) = 0.3 * rng.uniform();
        }
      }
    }
    images.push_back(std::move(img));
    labels.push_back(label);
  }
  return data::Dataset(std::move(images), std::move(labels), 2);
}

donn::DonnConfig tiny_config(std::size_t n = 24) {
  donn::DonnConfig cfg = donn::DonnConfig::scaled(n);
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  return cfg;
}

TEST(Trainer, LearnsSeparableBinaryTask) {
  const auto cfg = tiny_config();
  Rng rng(3);
  donn::DonnModel model(cfg, rng);
  const auto train_set = halves_dataset(cfg.grid.n, 80, 1);
  const auto test_set = halves_dataset(cfg.grid.n, 40, 2);

  const double before = evaluate_accuracy(model, test_set);
  TrainOptions opt;
  opt.epochs = 4;
  opt.batch_size = 20;
  opt.lr = 0.2;
  opt.seed = 5;
  Trainer trainer(model, train_set, opt);
  const auto history = trainer.run();
  ASSERT_EQ(history.size(), 4u);
  for (const auto& st : history) {
    EXPECT_TRUE(std::isfinite(st.data_loss));
  }
  const double after = evaluate_accuracy(model, test_set);
  EXPECT_GT(after, 0.85);
  EXPECT_GE(after, before);
}

TEST(Trainer, RoughnessRegularizationLowersMaskRoughness) {
  const auto cfg = tiny_config();
  const auto train_set = halves_dataset(cfg.grid.n, 60, 3);

  auto run_with_p = [&](double p) {
    Rng rng(7);
    donn::DonnModel model(cfg, rng);
    TrainOptions opt;
    opt.epochs = 3;
    opt.batch_size = 20;
    opt.lr = 0.2;
    opt.seed = 9;
    opt.reg.roughness_p = p;
    Trainer trainer(model, train_set, opt);
    trainer.run();
    return roughness::report(model.phases()).overall;
  };
  const double rough_noreg = run_with_p(0.0);
  const double rough_reg = run_with_p(0.5);
  EXPECT_LT(rough_reg, rough_noreg * 0.9);
}

TEST(Trainer, SlrDrivesBlockSparsity) {
  const auto cfg = tiny_config();
  Rng rng(11);
  donn::DonnModel model(cfg, rng);
  const auto train_set = halves_dataset(cfg.grid.n, 60, 4);

  // Dense warmup.
  {
    TrainOptions opt;
    opt.epochs = 2;
    opt.batch_size = 20;
    opt.lr = 0.2;
    Trainer trainer(model, train_set, opt);
    trainer.run();
  }
  slr::SlrOptions slr_opt;
  slr_opt.scheme.scheme = sparsify::Scheme::Block;
  slr_opt.scheme.ratio = 0.25;
  slr_opt.scheme.block_size = 4;
  slr::SlrState state(model.phases(), slr_opt);
  {
    TrainOptions opt;
    opt.epochs = 2;
    opt.batch_size = 20;
    opt.lr = 0.01;
    opt.slr = &state;
    Trainer trainer(model, train_set, opt);
    trainer.run();
  }
  model.set_masks(state.masks());
  double total_sparsity = 0.0;
  for (const auto& m : model.masks()) {
    total_sparsity += sparsify::sparsity_ratio(m);
  }
  EXPECT_NEAR(total_sparsity / 2.0, 0.25, 1e-9);
  // Still better than chance after hard pruning.
  const auto test_set = halves_dataset(cfg.grid.n, 40, 5);
  EXPECT_GT(evaluate_accuracy(model, test_set), 0.6);
}

TEST(Trainer, DeployedAccuracyDoesNotBeatClean) {
  const auto cfg = tiny_config();
  Rng rng(13);
  donn::DonnModel model(cfg, rng);
  const auto train_set = halves_dataset(cfg.grid.n, 60, 6);
  TrainOptions opt;
  opt.epochs = 3;
  opt.batch_size = 20;
  opt.lr = 0.2;
  Trainer trainer(model, train_set, opt);
  trainer.run();

  const auto test_set = halves_dataset(cfg.grid.n, 40, 7);
  const double clean = evaluate_accuracy(model, test_set);
  donn::CrosstalkOptions strong;
  strong.strength = 0.9;
  const double deployed =
      evaluate_deployed_accuracy(model, test_set, strong);
  EXPECT_LE(deployed, clean + 0.05);
}

TEST(Trainer, RejectsBadConfigurations) {
  const auto cfg = tiny_config();
  Rng rng(17);
  donn::DonnModel model(cfg, rng);
  const auto good = halves_dataset(cfg.grid.n, 10, 8);
  const auto wrong_size = halves_dataset(cfg.grid.n / 2, 10, 8);
  TrainOptions opt;
  EXPECT_THROW(Trainer(model, wrong_size, opt), ShapeError);

  slr::SlrOptions so;
  so.scheme.block_size = 4;
  slr::SlrState s1(model.phases(), so);
  slr::AdmmState s2(model.phases(), {0.1, so.scheme});
  TrainOptions both;
  both.slr = &s1;
  both.admm = &s2;
  EXPECT_THROW(Trainer(model, good, both), Error);
}

TEST(Trainer, RobustTrainingCountsRealizationsAndIsBitwiseDeterministic) {
  const auto cfg = tiny_config(16);
  const auto train_set = halves_dataset(cfg.grid.n, 60, 11);
  const auto stack =
      fab::parse_perturbation_stack("roughness(sigma_um=0.04,corr=2)");

  const auto run_robust = [&](bool per_epoch, std::uint64_t counter_start) {
    Rng rng(23);
    donn::DonnModel model(cfg, rng);
    TrainOptions opt;
    opt.epochs = 2;
    opt.batch_size = 20;  // 60 samples -> 3 batches per epoch
    opt.lr = 0.05;
    opt.robust.stack = &stack;
    opt.robust.realizations = 2;
    opt.robust.per_epoch = per_epoch;
    opt.robust.counter_start = counter_start;
    Trainer trainer(model, train_set, opt);
    const auto history = trainer.run();
    for (const auto& st : history) EXPECT_TRUE(std::isfinite(st.data_loss));
    return std::pair(trainer.realizations_sampled(), model.phases());
  };

  // Per-batch sampling: 2 epochs x 3 batches x K=2; per-epoch: 2 x K.
  const auto [per_batch_count, phases_a] = run_robust(false, 0);
  EXPECT_EQ(per_batch_count, 12u);
  const auto [per_epoch_count, phases_b] = run_robust(true, 0);
  EXPECT_EQ(per_epoch_count, 4u);
  // The two sampling cadences draw different streams -> different models.
  EXPECT_GT(max_abs_diff(phases_a[0], phases_b[0]), 0.0);

  // counter_start shifts the stream (resume contract) and is included in
  // the total.
  const auto [resumed_count, phases_c] = run_robust(false, 12);
  EXPECT_EQ(resumed_count, 24u);
  EXPECT_GT(max_abs_diff(phases_a[0], phases_c[0]), 0.0);

  // Bitwise determinism: identical options reproduce identical phases.
  const auto [replay_count, phases_replay] = run_robust(false, 0);
  EXPECT_EQ(replay_count, per_batch_count);
  for (std::size_t l = 0; l < phases_a.size(); ++l) {
    EXPECT_EQ(max_abs_diff(phases_a[l], phases_replay[l]), 0.0);
  }
}

TEST(Trainer, RobustTrainingLearnsUnderFabricationNoise) {
  // Noise-in-the-loop training on the separable task still learns it: the
  // expected-fabricated-loss objective is a usable training signal, and
  // the reported stats are the perturbed (not clean) quantities.
  const auto cfg = tiny_config(16);
  Rng rng(29);
  donn::DonnModel model(cfg, rng);
  const auto train_set = halves_dataset(cfg.grid.n, 80, 13);
  const auto test_set = halves_dataset(cfg.grid.n, 40, 14);
  const auto stack =
      fab::parse_perturbation_stack("roughness(sigma_um=0.03,corr=2)+misalign");

  TrainOptions opt;
  opt.epochs = 4;
  opt.batch_size = 20;
  opt.lr = 0.2;
  opt.robust.stack = &stack;
  opt.robust.realizations = 2;
  Trainer trainer(model, train_set, opt);
  const auto history = trainer.run();
  ASSERT_EQ(history.size(), 4u);
  for (const auto& st : history) {
    EXPECT_TRUE(std::isfinite(st.data_loss));
    EXPECT_GE(st.train_accuracy, 0.0);
    EXPECT_LE(st.train_accuracy, 1.0);
  }
  EXPECT_GT(evaluate_accuracy(model, test_set), 0.8);
}

TEST(Trainer, RobustTrainingRejectsZeroAndOddAntitheticRealizations) {
  const auto cfg = tiny_config(16);
  Rng rng(31);
  donn::DonnModel model(cfg, rng);
  const auto train_set = halves_dataset(cfg.grid.n, 20, 15);
  const auto stack = fab::parse_perturbation_stack("quantize(levels=8)");
  TrainOptions opt;
  opt.robust.stack = &stack;
  opt.robust.realizations = 0;
  EXPECT_THROW(Trainer(model, train_set, opt), Error);
  // Odd K with antithetic pairing would straddle pair boundaries across
  // steps (silent plain sampling) — rejected up front.
  opt.robust.realizations = 3;
  opt.robust.antithetic = true;
  EXPECT_THROW(Trainer(model, train_set, opt), Error);
  opt.robust.antithetic = false;
  EXPECT_NO_THROW(Trainer(model, train_set, opt));
}

TEST(Recipe, ParseAndNames) {
  EXPECT_EQ(parse_recipe("baseline"), RecipeKind::Baseline);
  EXPECT_EQ(parse_recipe("ours-c"), RecipeKind::OursC);
  EXPECT_EQ(parse_recipe("D"), RecipeKind::OursD);
  EXPECT_THROW(parse_recipe("ours-z"), ConfigError);
  EXPECT_STREQ(recipe_name(RecipeKind::OursB), "ours-b");
}

}  // namespace
}  // namespace odonn::train
