// End-to-end integration tests: the full recipe pipeline (train -> SLR
// sparsify -> 2*pi smooth -> evaluate) on a reduced configuration, checking
// the paper's qualitative claims hold on fresh synthetic data.
#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.hpp"
#include "data/transform.hpp"
#include "smooth2pi/two_pi_opt.hpp"
#include "train/recipe.hpp"
#include "train/trainer.hpp"

namespace odonn::train {
namespace {

struct TinySetup {
  RecipeOptions options;
  data::Dataset train;
  data::Dataset test;
};

TinySetup tiny_setup(std::uint64_t seed = 21) {
  TinySetup setup;
  setup.options.model = donn::DonnConfig::scaled(32);
  setup.options.model.num_layers = 2;
  setup.options.epochs_dense = 2;
  setup.options.epochs_sparse = 1;
  setup.options.epochs_finetune = 1;
  setup.options.batch_size = 25;
  setup.options.roughness_p = 0.1;
  setup.options.intra_q = 0.03;
  setup.options.block_size = 4;
  setup.options.sparsity_ratio = 0.1;
  setup.options.two_pi_iterations = 2000;
  setup.options.seed = seed;

  const auto full = data::make_synthetic(data::SyntheticFamily::Digits, 360,
                                         seed + 1);
  const auto resized = data::resize_dataset(full, 32);
  Rng rng(seed + 2);
  auto [train, test] = resized.split(0.75, rng);
  setup.train = std::move(train);
  setup.test = std::move(test);
  return setup;
}

class RecipePipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    setup_ = new TinySetup(tiny_setup());
    baseline_ = new RecipeResult(run_recipe(RecipeKind::Baseline,
                                            setup_->options, setup_->train,
                                            setup_->test));
    ours_c_ = new RecipeResult(run_recipe(RecipeKind::OursC, setup_->options,
                                          setup_->train, setup_->test));
  }
  static void TearDownTestSuite() {
    delete setup_;
    delete baseline_;
    delete ours_c_;
    setup_ = nullptr;
    baseline_ = nullptr;
    ours_c_ = nullptr;
  }

  static TinySetup* setup_;
  static RecipeResult* baseline_;
  static RecipeResult* ours_c_;
};

TinySetup* RecipePipeline::setup_ = nullptr;
RecipeResult* RecipePipeline::baseline_ = nullptr;
RecipeResult* RecipePipeline::ours_c_ = nullptr;

TEST_F(RecipePipeline, BaselineLearnsAboveChance) {
  // 10-class task, chance = 0.1; even the tiny config should be well clear.
  EXPECT_GT(baseline_->accuracy, 0.35);
  EXPECT_DOUBLE_EQ(baseline_->sparsity, 0.0);
}

TEST_F(RecipePipeline, RoughnessAwareRecipeIsSmoother) {
  // The paper's central claim (Tables II-V): sparsity + roughness training
  // yields lower roughness than the baseline, at modest accuracy cost.
  EXPECT_LT(ours_c_->roughness_after, baseline_->roughness_before);
  EXPECT_GT(ours_c_->accuracy, baseline_->accuracy - 0.25);
}

TEST_F(RecipePipeline, TwoPiNeverIncreasesRoughness) {
  EXPECT_LE(baseline_->roughness_after, baseline_->roughness_before + 1e-9);
  EXPECT_LE(ours_c_->roughness_after, ours_c_->roughness_before + 1e-9);
}

TEST_F(RecipePipeline, SparsityHitsConfiguredRatio) {
  EXPECT_NEAR(ours_c_->sparsity, setup_->options.sparsity_ratio, 0.02);
}

TEST_F(RecipePipeline, DeploymentGapNarrowsWithSmoothing) {
  // The motivation (§II-B): deployment degrades accuracy; smoother masks
  // degrade less. Check the smoothed variant is not worse than the raw
  // deployment of the same recipe.
  EXPECT_GE(ours_c_->deployed_accuracy_after_2pi + 0.05,
            ours_c_->deployed_accuracy);
}

TEST(Integration, TwoPiSmoothingPreservesInference) {
  // Train briefly, then verify §III-D2's core identity on real trained
  // masks: predictions before and after 2*pi addition are identical.
  auto setup = tiny_setup(33);
  Rng rng(setup.options.seed);
  donn::DonnModel model(setup.options.model, rng);
  TrainOptions topt;
  topt.epochs = 1;
  topt.batch_size = 25;
  topt.lr = 0.2;
  Trainer trainer(model, setup.train, topt);
  trainer.run();

  const double acc_before = evaluate_accuracy(model, setup.test);
  smooth2pi::TwoPiOptions tp;
  tp.iterations = 100;
  const auto results = smooth2pi::optimize_2pi_all(model.phases(), tp);
  std::vector<MatrixD> smoothed;
  for (const auto& r : results) smoothed.push_back(r.optimized);
  model.set_phases(std::move(smoothed));
  const double acc_after = evaluate_accuracy(model, setup.test);
  EXPECT_NEAR(acc_before, acc_after, 1.0 / static_cast<double>(setup.test.size()) + 1e-9);
}

TEST(Integration, TrainingIsReproducibleForFixedSeed) {
  auto setup = tiny_setup(55);
  setup.options.epochs_dense = 1;
  const auto a = run_recipe(RecipeKind::Baseline, setup.options, setup.train,
                            setup.test);
  const auto b = run_recipe(RecipeKind::Baseline, setup.options, setup.train,
                            setup.test);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_DOUBLE_EQ(a.roughness_before, b.roughness_before);
}

}  // namespace
}  // namespace odonn::train
