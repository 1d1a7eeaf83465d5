// Pipeline API tests: recipe parity (run_recipe vs an explicitly composed
// pipeline, live vs checkpoint-restored, and vs recipe_models' trimmed
// pipeline — bit-for-bit), declarative construction, validation,
// checkpoint resume, robust training stage, and the PublishStage ->
// ModelRegistry -> InferenceEngine hand-off.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "data/idx.hpp"
#include "data/synthetic.hpp"
#include "data/transform.hpp"
#include "pipeline/artifact_store.hpp"
#include "pipeline/parser.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/stages.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "tensor/stats.hpp"
#include "train/recipe.hpp"
#include "train/trainer.hpp"

namespace odonn::pipeline {
namespace {

struct TinySetup {
  train::RecipeOptions options;
  data::Dataset train;
  data::Dataset test;
};

TinySetup tiny_setup(std::uint64_t seed = 33) {
  TinySetup setup;
  setup.options.model = donn::DonnConfig::scaled(24);
  setup.options.model.num_layers = 2;
  setup.options.epochs_dense = 1;
  setup.options.epochs_sparse = 1;
  setup.options.epochs_finetune = 1;
  setup.options.batch_size = 25;
  setup.options.roughness_p = 0.1;
  setup.options.intra_q = 0.03;
  setup.options.block_size = 4;
  setup.options.sparsity_ratio = 0.1;
  setup.options.two_pi_iterations = 400;
  setup.options.seed = seed;

  const auto full =
      data::make_synthetic(data::SyntheticFamily::Digits, 160, seed + 1);
  const auto resized = data::resize_dataset(full, 24);
  Rng rng(seed + 2);
  auto [train, test] = resized.split(0.75, rng);
  setup.train = std::move(train);
  setup.test = std::move(test);
  return setup;
}

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void expect_bit_identical(const train::RecipeResult& lhs,
                          const train::RecipeResult& rhs) {
  EXPECT_EQ(lhs.name, rhs.name);
  EXPECT_EQ(lhs.accuracy, rhs.accuracy);
  EXPECT_EQ(lhs.roughness_before, rhs.roughness_before);
  EXPECT_EQ(lhs.roughness_after, rhs.roughness_after);
  EXPECT_EQ(lhs.deployed_accuracy, rhs.deployed_accuracy);
  EXPECT_EQ(lhs.deployed_accuracy_after_2pi, rhs.deployed_accuracy_after_2pi);
  EXPECT_EQ(lhs.sparsity, rhs.sparsity);
  ASSERT_EQ(lhs.trained_phases.size(), rhs.trained_phases.size());
  for (std::size_t l = 0; l < lhs.trained_phases.size(); ++l) {
    EXPECT_EQ(max_abs_diff(lhs.trained_phases[l], rhs.trained_phases[l]), 0.0);
    EXPECT_EQ(max_abs_diff(lhs.smoothed_phases[l], rhs.smoothed_phases[l]),
              0.0);
  }
}

// ------------------------------------------------------------- parity

/// run_recipe's RecipeResult assembled from an explicitly composed
/// pipeline run (the spec built by hand from spec_for_recipe), optionally
/// checkpointing every stage and — when `resume_dir` is non-empty —
/// re-running from those checkpoints into a fresh store first.
train::RecipeResult recipe_via_explicit_pipeline(
    train::RecipeKind kind, const TinySetup& setup,
    const std::string& checkpoint_dir = "", bool resume = false) {
  ArtifactStore store;
  store.set_data(&setup.train, &setup.test);
  Pipeline pipe = build_pipeline(spec_for_recipe(kind), setup.options);
  RunOptions run_options;
  run_options.checkpoint_dir = checkpoint_dir;
  run_options.resume = resume;
  pipe.run(store, run_options);

  train::RecipeResult result;
  result.name = train::recipe_name(kind);
  result.accuracy = store.metric(artifacts::kAccuracy);
  result.roughness_before = store.metric(artifacts::kRoughnessBefore);
  result.roughness_after = store.metric(artifacts::kRoughnessAfter);
  result.deployed_accuracy = store.metric(artifacts::kDeployedAccuracy);
  result.deployed_accuracy_after_2pi =
      store.metric(artifacts::kDeployedAccuracyAfter2Pi);
  result.sparsity = store.metric(artifacts::kSparsity);
  result.trained_phases = store.model(artifacts::kMainModel).phases();
  result.smoothed_phases = store.model(artifacts::kSmoothedModel).phases();
  return result;
}

TEST(StageParity, OursDPipelineVsCheckpointedPipelineBitForBit) {
  // The parity bar, pipeline-vs-pipeline: run_recipe's composition of
  // Ours-D — the recipe exercising every stage: regularized training, SLR
  // sparsification, fine-tune, report, 2*pi smoothing, deployment eval —
  // must reproduce (a) an explicitly composed pipeline run bit-for-bit,
  // and (b) the same pipeline when every stage is checkpointed to disk and
  // the whole run is then satisfied purely from those checkpoints
  // (donn/serialize round-trips doubles exactly).
  const TinySetup setup = tiny_setup();
  const auto via_recipe = train::run_recipe(
      train::RecipeKind::OursD, setup.options, setup.train, setup.test);

  const std::string dir = temp_dir("parity_ours_d");
  const auto via_pipeline =
      recipe_via_explicit_pipeline(train::RecipeKind::OursD, setup, dir);
  expect_bit_identical(via_recipe, via_pipeline);
  EXPECT_GT(via_recipe.sparsity, 0.0);

  const auto via_checkpoints = recipe_via_explicit_pipeline(
      train::RecipeKind::OursD, setup, dir, /*resume=*/true);
  expect_bit_identical(via_pipeline, via_checkpoints);
  std::filesystem::remove_all(dir);
}

TEST(StageParity, BaselinePipelineVsCheckpointedPipelineBitForBit) {
  const TinySetup setup = tiny_setup(47);
  const auto via_recipe = train::run_recipe(
      train::RecipeKind::Baseline, setup.options, setup.train, setup.test);

  const std::string dir = temp_dir("parity_baseline");
  const auto via_pipeline =
      recipe_via_explicit_pipeline(train::RecipeKind::Baseline, setup, dir);
  expect_bit_identical(via_recipe, via_pipeline);
  EXPECT_EQ(via_recipe.sparsity, 0.0);

  const auto via_checkpoints = recipe_via_explicit_pipeline(
      train::RecipeKind::Baseline, setup, dir, /*resume=*/true);
  expect_bit_identical(via_pipeline, via_checkpoints);
  std::filesystem::remove_all(dir);
}

TEST(StageParity, RecipeModelsMatchRunRecipeBitForBit) {
  // recipe_models keeps only the model-producing stages (train, sparsify,
  // smooth). Dropping report and eval must not move a bit of either model,
  // and dropping sparsify would: Ours-C and Ours-D pin that it stays.
  const TinySetup setup = tiny_setup(59);
  const auto same_bits = [](const MatrixD& a, const MatrixD& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  for (const train::RecipeKind kind :
       {train::RecipeKind::Baseline, train::RecipeKind::OursC,
        train::RecipeKind::OursD}) {
    SCOPED_TRACE(train::recipe_name(kind));
    const auto row =
        train::run_recipe(kind, setup.options, setup.train, setup.test);
    const RecipeModels models =
        recipe_models(kind, setup.options, setup.train, setup.test);
    const auto& trained = models.main.phases();
    const auto& smoothed = models.smoothed.phases();
    ASSERT_EQ(trained.size(), row.trained_phases.size());
    ASSERT_EQ(smoothed.size(), row.smoothed_phases.size());
    for (std::size_t l = 0; l < trained.size(); ++l) {
      EXPECT_TRUE(same_bits(trained[l], row.trained_phases[l])) << l;
      EXPECT_TRUE(same_bits(smoothed[l], row.smoothed_phases[l])) << l;
    }
  }
}

/// Folds every phase of `phases` into `hash` (fnv1a_mix over their
/// IEEE-754 bits).
std::uint64_t fold_phases(std::uint64_t hash,
                          const std::vector<MatrixD>& phases) {
  for (const MatrixD& phase : phases) {
    for (const double v : phase) hash = fnv1a_mix(hash, v);
  }
  return hash;
}

// The two pins below hold the bits of the stage arithmetic that maps the
// recipe options onto the trainer, SLR and robust-training options: a
// changed default, seed offset or option the stages pass on there moves
// them. At this size the 2*pi solve keeps its warm start (lift the
// sparsified zeros) for any seed or iteration count, so they do not hold
// the smoothing options.
TEST(RunRecipeOursD, BitsArePinned) {
  const TinySetup setup = tiny_setup(61);
  const auto row = train::run_recipe(train::RecipeKind::OursD, setup.options,
                                     setup.train, setup.test);
  const std::uint64_t digest = fold_phases(
      fold_phases(kFnv1aBasis, row.trained_phases), row.smoothed_phases);
  EXPECT_EQ(digest, 0x038eb2f5a01b7aa1ULL) << std::hex << digest;
}

TEST(RecipeModelsRobustTrain, BitsArePinned) {
  const TinySetup setup = tiny_setup(67);
  const RobustTrainStageOptions robust_train;  // one robust epoch, K = 2
  const RecipeModels models =
      recipe_models(train::RecipeKind::Baseline, setup.options, setup.train,
                    setup.test, &robust_train);
  const std::uint64_t digest = fold_phases(
      fold_phases(kFnv1aBasis, models.main.phases()), models.smoothed.phases());
  EXPECT_EQ(digest, 0x1c196baf65da45f5ULL) << std::hex << digest;
}

// ------------------------------------------------------ spec / parser

TEST(Parser, StageListRoundTripAndErrors) {
  const auto stages = parse_stage_list("train,sparsify,smooth,eval");
  ASSERT_EQ(stages.size(), 4u);
  EXPECT_EQ(stages[0], StageKind::Train);
  EXPECT_EQ(stages[1], StageKind::Sparsify);
  EXPECT_EQ(stages[2], StageKind::Smooth);
  EXPECT_EQ(stages[3], StageKind::Evaluate);
  EXPECT_EQ(parse_stage_list("report,publish"),
            (std::vector<StageKind>{StageKind::Report, StageKind::Publish}));
  EXPECT_THROW(parse_stage_list("train,,eval"), ConfigError);
  EXPECT_THROW(parse_stage_list("train,frobnicate"), ConfigError);
}

TEST(Parser, RecipesAreFiveStageLists) {
  const auto baseline = spec_for_recipe(train::RecipeKind::Baseline);
  EXPECT_EQ(baseline.stages.size(), 4u);  // train, report, smooth, eval
  EXPECT_FALSE(baseline.flags.roughness);
  EXPECT_FALSE(baseline.flags.intra);

  const auto ours_a = spec_for_recipe(train::RecipeKind::OursA);
  EXPECT_EQ(ours_a.stages, baseline.stages);  // same list, flags differ
  EXPECT_TRUE(ours_a.flags.roughness);

  const auto ours_d = spec_for_recipe(train::RecipeKind::OursD);
  EXPECT_EQ(ours_d.stages.size(), 5u);
  EXPECT_EQ(ours_d.stages[1], StageKind::Sparsify);
  EXPECT_TRUE(ours_d.flags.roughness);
  EXPECT_TRUE(ours_d.flags.intra);
}

TEST(Parser, SpecFromConfigOverrides) {
  const char* argv[] = {"prog", "recipe=ours-b", "pipeline=train,smooth",
                        "roughness=1"};
  const Config cfg = Config::from_args(4, argv);
  const PipelineSpec spec = spec_from_config(cfg);
  EXPECT_EQ(spec.stages,
            (std::vector<StageKind>{StageKind::Train, StageKind::Smooth}));
  EXPECT_TRUE(spec.flags.roughness);  // overridden (ours-b default: off)
  EXPECT_FALSE(spec.flags.intra);
}

TEST(Parser, OptionsFromConfigMapsKeys) {
  const char* argv[] = {"prog",        "grid=20",      "layers=3",
                        "epochs=5",    "p=0.25",       "sparsity=0.3",
                        "seed=11",     "init=uniform", "crosstalk=1",
                        "sweep=0,0.5,1"};
  const Config cfg = Config::from_args(10, argv);
  std::vector<std::string> keys = config_keys();
  keys.push_back("sweep");  // odonn_cli run's own key
  cfg.strict(keys);
  const train::RecipeOptions opt = options_from_config(cfg);
  EXPECT_EQ(opt.model.grid.n, 20u);
  EXPECT_EQ(opt.model.num_layers, 3u);
  EXPECT_EQ(opt.model.init, donn::PhaseInit::Uniform);
  EXPECT_EQ(opt.epochs_dense, 5u);
  EXPECT_EQ(opt.epochs_sparse, 2u);  // derived: epochs / 2
  EXPECT_DOUBLE_EQ(opt.roughness_p, 0.25);
  EXPECT_DOUBLE_EQ(opt.sparsity_ratio, 0.3);
  EXPECT_DOUBLE_EQ(opt.crosstalk, 1.0);
  EXPECT_EQ(opt.seed, 11u);
  EXPECT_EQ(sweep_from_config(cfg), (std::vector<double>{0.0, 0.5, 1.0}));
}

TEST(Parser, OutOfRangeValuesAreRejected) {
  // A seed is a count: -1 must not wrap to 2^64 - 1. Crosstalk strengths,
  // sweep strengths and yield thresholds are finite values in [0, 1]:
  // anything else fails while parsing, before any training.
  const auto parse = [](const char* arg) {
    const char* argv[] = {"prog", arg};
    return Config::from_args(2, argv);
  };
  EXPECT_THROW(dataset_options_from_config(parse("seed=-1")), ConfigError);
  for (const char* bad : {"seed=-1", "crosstalk=2", "crosstalk=-0.5"}) {
    EXPECT_THROW(options_from_config(parse(bad)), ConfigError) << bad;
  }
  for (const char* bad : {"sweep=nan", "sweep=inf", "sweep=-1", "sweep=2",
                          "sweep=0.5,x"}) {
    EXPECT_THROW(sweep_from_config(parse(bad)), ConfigError) << bad;
  }
  for (const char* bad : {"yield_threshold=2", "yield_threshold=-1"}) {
    EXPECT_THROW(robust_options_from_config(parse(bad)), ConfigError) << bad;
  }
}

TEST(Parser, RobustTrainingHasNoCrosstalkOrAntitheticOverrideKeys) {
  // antithetic= drives the training streams; the training realizations
  // never deploy crosstalk.
  for (const char* removed : {"train_crosstalk=1", "train_antithetic=0"}) {
    const char* argv[] = {"prog", "robust_train=1", removed};
    EXPECT_THROW(Config::from_args(3, argv).strict(config_keys()),
                 ConfigError)
        << removed;
  }
  const char* argv[] = {"prog", "antithetic=0", "train_realizations=3"};
  const RobustTrainStageOptions opt =
      robust_train_options_from_config(Config::from_args(3, argv));
  EXPECT_FALSE(opt.antithetic);
  EXPECT_EQ(opt.realizations, 3u);
}

TEST(Parser, PublishWithoutRegistryIsRejected) {
  const PipelineSpec spec{{StageKind::Train, StageKind::Publish}, {}};
  EXPECT_THROW(build_pipeline(spec, train::RecipeOptions{}), ConfigError);
}

// ------------------------------------------------- store / validation

TEST(ArtifactStoreTest, TypedAccessAndDottedKeys) {
  ArtifactStore store;
  EXPECT_FALSE(store.has_data());
  EXPECT_THROW(store.train(), Error);
  EXPECT_THROW(store.model("main"), ConfigError);
  EXPECT_THROW(store.metric("accuracy"), ConfigError);

  Rng rng(5);
  donn::DonnConfig cfg = donn::DonnConfig::scaled(16);
  cfg.num_layers = 1;
  store.put_model("main", donn::DonnModel(cfg, rng));
  store.put_metric("accuracy", 0.5);
  EXPECT_TRUE(store.has_key("model.main"));
  EXPECT_TRUE(store.has_key("metric.accuracy"));
  EXPECT_FALSE(store.has_key("model.smoothed"));
  EXPECT_FALSE(store.has_key("data.train"));
  EXPECT_FALSE(store.has_key("accuracy"));  // must be namespaced
  EXPECT_EQ(store.metric("accuracy"), 0.5);
  EXPECT_EQ(store.model_names(), (std::vector<std::string>{"main"}));
}

TEST(PipelineValidation, RejectsUnsatisfiedInputsBeforeRunning) {
  const TinySetup setup = tiny_setup();
  ArtifactStore store;
  store.set_data(&setup.train, &setup.test);

  // eval needs model.main, which nothing produces: must throw before any
  // training happens (and name the stage + missing artifact).
  Pipeline bad = build_pipeline({{StageKind::Evaluate}, {}}, setup.options);
  try {
    bad.run(store);
    FAIL() << "validate() accepted an unsatisfiable pipeline";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("model.main"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("eval"), std::string::npos);
  }

  // The same stage is fine once an earlier stage produces the model.
  Pipeline good = build_pipeline(
      {{StageKind::Train, StageKind::Evaluate}, {}}, setup.options);
  EXPECT_NO_THROW(good.validate(store));

  // A store with no datasets fails train's data.train input.
  ArtifactStore empty;
  EXPECT_THROW(good.validate(empty), ConfigError);
}

TEST(PipelineValidation, RejectsDuplicateDeclaredOutputs) {
  // A stage declaring the same output twice is a authoring bug (one write
  // silently wins); validate() must name the stage and the key.
  class DupStage : public Stage {
   public:
    std::string name() const override { return "dup"; }
    std::vector<std::string> outputs() const override {
      return {"metric.x", "metric.x"};
    }
    void run(ArtifactStore&) override {}
  };
  Pipeline pipe;
  pipe.add(std::make_unique<DupStage>());
  ArtifactStore store;
  try {
    pipe.validate(store);
    FAIL() << "validate() accepted duplicate declared outputs";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("dup"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("metric.x"), std::string::npos);
  }
}

TEST(PipelineProgressTest, ReportsStagesInOrderWithTimings) {
  const TinySetup setup = tiny_setup();
  ArtifactStore store;
  store.set_data(&setup.train, &setup.test);
  Pipeline pipe = build_pipeline(
      {{StageKind::Train, StageKind::Report}, {}}, setup.options);

  std::vector<std::string> started, ended;
  RunOptions options;
  options.trace_label = "tiny";
  options.progress = [&](const train::TableProgress& event) {
    EXPECT_EQ(event.label, "tiny");
    if (!event.finished) {
      EXPECT_EQ(event.stage, started.size());
      started.push_back(event.stage_name);
      return;
    }
    EXPECT_EQ(event.stage, ended.size());
    EXPECT_FALSE(event.skipped);
    EXPECT_GE(event.seconds, 0.0);
    ended.push_back(event.stage_name);
  };

  const auto finished = pipe.run(store, options);
  const std::vector<std::string> expected = {"train", "report"};
  EXPECT_EQ(started, expected);
  EXPECT_EQ(ended, expected);
  ASSERT_EQ(finished.size(), 2u);
  EXPECT_EQ(finished[1].stage, 1u);
  EXPECT_EQ(finished[1].stage_name, "report");
  EXPECT_TRUE(finished[1].finished);
}

// -------------------------------------------------- checkpoint resume

TEST(Checkpointing, ResumeMidPipelineReproducesTheFullRun) {
  const TinySetup setup = tiny_setup(55);
  const PipelineSpec full_spec = spec_for_recipe(train::RecipeKind::OursA);
  const std::string dir = temp_dir("pipeline_resume");

  // Reference: the full pipeline, no checkpointing.
  ArtifactStore reference;
  reference.set_data(&setup.train, &setup.test);
  build_pipeline(full_spec, setup.options).run(reference);

  // Pass 1: only the training prefix, checkpointed.
  PipelineSpec prefix = full_spec;
  prefix.stages = {StageKind::Train};
  ArtifactStore first;
  first.set_data(&setup.train, &setup.test);
  RunOptions checkpointed;
  checkpointed.checkpoint_dir = dir;
  build_pipeline(prefix, setup.options).run(first, checkpointed);

  // Pass 2: the full pipeline resumes — train is satisfied from disk
  // (index and stage name match), the rest runs live.
  ArtifactStore second;
  second.set_data(&setup.train, &setup.test);
  Pipeline full = build_pipeline(full_spec, setup.options);
  RunOptions resume = checkpointed;
  resume.resume = true;
  const auto timings = full.run(second, resume);
  ASSERT_EQ(timings.size(), full_spec.stages.size());
  EXPECT_TRUE(timings[0].skipped);
  for (std::size_t i = 1; i < timings.size(); ++i) {
    EXPECT_FALSE(timings[i].skipped) << "stage " << timings[i].stage_name;
  }

  // The resumed run must be indistinguishable from the uninterrupted one:
  // donn/serialize round-trips doubles bit-exactly.
  for (const char* metric :
       {artifacts::kAccuracy, artifacts::kRoughnessBefore,
        artifacts::kRoughnessAfter, artifacts::kDeployedAccuracy,
        artifacts::kDeployedAccuracyAfter2Pi, artifacts::kSparsity}) {
    ASSERT_TRUE(second.has_metric(metric)) << metric;
    EXPECT_EQ(second.metric(metric), reference.metric(metric)) << metric;
  }
  for (std::size_t l = 0; l < setup.options.model.num_layers; ++l) {
    EXPECT_EQ(max_abs_diff(second.model(artifacts::kMainModel).phases()[l],
                           reference.model(artifacts::kMainModel).phases()[l]),
              0.0);
    EXPECT_EQ(
        max_abs_diff(second.model(artifacts::kSmoothedModel).phases()[l],
                     reference.model(artifacts::kSmoothedModel).phases()[l]),
        0.0);
  }

  // A full resume (checkpoints now cover every stage) skips everything.
  ArtifactStore third;
  third.set_data(&setup.train, &setup.test);
  Pipeline again = build_pipeline(full_spec, setup.options);
  const auto all_skipped = again.run(third, resume);
  for (const auto& timing : all_skipped) EXPECT_TRUE(timing.skipped);
  EXPECT_EQ(third.metric(artifacts::kAccuracy),
            reference.metric(artifacts::kAccuracy));
  std::filesystem::remove_all(dir);
}

TEST(Checkpointing, ResumeReplaysPublishSideEffects) {
  // Registry publishes are external side effects a checkpoint cannot
  // capture: a resumed run must replay the publish stage into the (fresh)
  // registry instead of skipping it.
  const TinySetup setup = tiny_setup(71);
  const PipelineSpec spec{
      {StageKind::Train, StageKind::Smooth, StageKind::Publish}, {}};
  const std::string dir = temp_dir("pipeline_publish_resume");
  RunOptions checkpointed;
  checkpointed.checkpoint_dir = dir;

  auto first_registry = std::make_shared<serve::ModelRegistry>();
  BuildContext first_context;
  first_context.registry = first_registry;
  first_context.publish_name = "m";
  ArtifactStore first;
  first.set_data(&setup.train, &setup.test);
  build_pipeline(spec, setup.options, first_context).run(first, checkpointed);
  ASSERT_EQ(first_registry->names(),
            (std::vector<std::string>{"m", "m-smoothed"}));

  // "New process": same checkpoints, empty registry.
  auto second_registry = std::make_shared<serve::ModelRegistry>();
  BuildContext second_context = first_context;
  second_context.registry = second_registry;
  ArtifactStore second;
  second.set_data(&setup.train, &setup.test);
  RunOptions resume = checkpointed;
  resume.resume = true;
  const auto timings =
      build_pipeline(spec, setup.options, second_context).run(second, resume);
  ASSERT_EQ(timings.size(), 3u);
  EXPECT_TRUE(timings[0].skipped);   // train: restored from disk
  EXPECT_TRUE(timings[1].skipped);   // smooth: restored from disk
  EXPECT_FALSE(timings[2].skipped);  // publish: replayed
  ASSERT_EQ(second_registry->names(),
            (std::vector<std::string>{"m", "m-smoothed"}));
  for (std::size_t l = 0; l < setup.options.model.num_layers; ++l) {
    EXPECT_EQ(max_abs_diff(second_registry->get("m")->phases()[l],
                           first_registry->get("m")->phases()[l]),
              0.0);
  }
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- dataset stage

TEST(DatasetStageTest, SyntheticFallbackMatchesPreAttachedData) {
  // A pipeline starting with the data stage must reproduce the classic
  // "caller attaches datasets" path bit-for-bit: both go through
  // load_or_synthesize with the same arithmetic.
  DatasetStageOptions data_opt;
  data_opt.family = data::SyntheticFamily::Digits;
  data_opt.samples = 120;
  data_opt.grid = 16;
  data_opt.seed = 33;

  const auto [train_set, test_set] = load_or_synthesize(data_opt);
  EXPECT_EQ(train_set.size() + test_set.size(), 120u);
  EXPECT_EQ(train_set.image(0).rows(), 16u);

  ArtifactStore store;
  EXPECT_FALSE(store.has_key("data.train"));
  DatasetStage stage(data_opt);
  EXPECT_TRUE(stage.has_side_effects());  // replayed on resume
  stage.run(store);
  ASSERT_TRUE(store.has_key("data.train"));
  ASSERT_TRUE(store.has_key("data.test"));
  ASSERT_EQ(store.train().size(), train_set.size());
  ASSERT_EQ(store.test().size(), test_set.size());
  for (std::size_t i = 0; i < store.train().size(); ++i) {
    EXPECT_EQ(store.train().label(i), train_set.label(i));
    EXPECT_EQ(max_abs_diff(store.train().image(i), train_set.image(i)), 0.0);
  }
}

TEST(DatasetStageTest, LoadsIdxPairsFromDataDir) {
  const std::string dir = temp_dir("pipeline_idx_data");
  std::filesystem::create_directories(dir);
  const auto train_raw =
      data::make_synthetic(data::SyntheticFamily::Digits, 30, 5);
  const auto test_raw =
      data::make_synthetic(data::SyntheticFamily::Digits, 10, 6);
  data::write_idx(train_raw, dir + "/train-images-idx3-ubyte",
                  dir + "/train-labels-idx1-ubyte");
  data::write_idx(test_raw, dir + "/t10k-images-idx3-ubyte",
                  dir + "/t10k-labels-idx1-ubyte");

  DatasetStageOptions data_opt;
  data_opt.data_dir = dir;
  data_opt.grid = 20;
  ArtifactStore store;
  DatasetStage(data_opt).run(store);
  EXPECT_EQ(store.train().size(), 30u);
  EXPECT_EQ(store.test().size(), 10u);
  EXPECT_EQ(store.train().image(0).rows(), 20u);  // resized to the grid
  EXPECT_EQ(store.test().num_classes(), 10u);
  for (std::size_t i = 0; i < store.train().size(); ++i) {
    EXPECT_EQ(store.train().label(i), train_raw.label(i));
  }

  // A missing file fails fast (data_dir set means IDX is mandatory).
  DatasetStageOptions missing = data_opt;
  missing.data_dir = dir + "/nope";
  ArtifactStore empty;
  EXPECT_THROW(DatasetStage(missing).run(empty), IoError);
  std::filesystem::remove_all(dir);
}

TEST(DatasetStageTest, DataStagePipelineValidatesAndRuns) {
  // pipeline=data,train,eval on an EMPTY store: the data stage's declared
  // outputs satisfy train/eval inputs, and the run produces metrics.
  TinySetup setup = tiny_setup(91);
  setup.options.epochs_dense = 1;
  const char* argv[] = {"prog", "pipeline=data,train,eval"};
  const Config cfg = Config::from_args(2, argv);
  const PipelineSpec spec = spec_from_config(cfg);
  ASSERT_EQ(spec.stages.front(), StageKind::Dataset);

  BuildContext context;
  context.data.samples = 100;
  context.data.grid = setup.options.model.grid.n;
  context.data.seed = 91;
  Pipeline pipe = build_pipeline(spec, setup.options, context);

  ArtifactStore store;  // no set_data: the stage provides it
  EXPECT_NO_THROW(pipe.validate(store));
  pipe.run(store);
  EXPECT_TRUE(store.has_metric(artifacts::kAccuracy));
  EXPECT_TRUE(store.has_model(artifacts::kMainModel));
}

// ------------------------------------------------------- robust stage

TEST(RobustStage, CheckpointResumeReproducesTheIdenticalReport) {
  // The RobustEvalStage report is part of the store's metrics, so a
  // resumed pipeline must reproduce it bit-for-bit from the checkpoint
  // without re-simulating.
  const TinySetup setup = tiny_setup(87);
  const char* argv[] = {"prog", "pipeline=train,smooth,robust",
                        "realizations=4",
                        "perturb=roughness(sigma_um=0.04,corr=2)+misalign"};
  const Config cfg = Config::from_args(4, argv);
  cfg.strict(config_keys());
  const PipelineSpec spec = spec_from_config(cfg);
  BuildContext context;
  context.robust = robust_options_from_config(cfg);
  ASSERT_EQ(context.robust.realizations, 4u);

  const std::string dir = temp_dir("pipeline_robust_resume");
  RunOptions checkpointed;
  checkpointed.checkpoint_dir = dir;

  ArtifactStore reference;
  reference.set_data(&setup.train, &setup.test);
  build_pipeline(spec, setup.options, context)
      .run(reference, checkpointed);
  ASSERT_TRUE(reference.has_metric(artifacts::kRobustMean));
  ASSERT_TRUE(reference.has_metric(artifacts::kRobustYield));
  ASSERT_TRUE(reference.has_metric(artifacts::kRobustSmoothedMean));

  // Resume with complete checkpoints: every stage is skipped and the
  // restored metrics equal the live run exactly (text round-trip of
  // doubles is %.17g — lossless).
  ArtifactStore resumed;
  resumed.set_data(&setup.train, &setup.test);
  RunOptions resume = checkpointed;
  resume.resume = true;
  const auto timings =
      build_pipeline(spec, setup.options, context).run(resumed, resume);
  for (const auto& timing : timings) {
    EXPECT_TRUE(timing.skipped) << timing.stage_name;
  }
  for (const char* metric :
       {artifacts::kRobustMean, artifacts::kRobustStd, artifacts::kRobustMin,
        artifacts::kRobustP50, artifacts::kRobustYield,
        artifacts::kRobustSmoothedMean, artifacts::kRobustSmoothedYield}) {
    ASSERT_TRUE(resumed.has_metric(metric)) << metric;
    EXPECT_EQ(resumed.metric(metric), reference.metric(metric)) << metric;
  }

  // And a live re-run (no checkpoints) also reproduces the report: the
  // Monte-Carlo stage is deterministic given the seed.
  ArtifactStore rerun;
  rerun.set_data(&setup.train, &setup.test);
  build_pipeline(spec, setup.options, context).run(rerun);
  EXPECT_EQ(rerun.metric(artifacts::kRobustMean),
            reference.metric(artifacts::kRobustMean));
  EXPECT_EQ(rerun.metric(artifacts::kRobustYield),
            reference.metric(artifacts::kRobustYield));
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------- robust_train stage

TEST(RobustTrainStage, ConfigMapsTrainToRobustTrainAndCountsRealizations) {
  // robust_train=1 swaps every train stage for robust_train; the stage
  // trains noise-in-the-loop and records the sampled-realization counter
  // as a metric.
  const TinySetup setup = tiny_setup(101);
  const char* argv[] = {"prog",
                        "pipeline=train,smooth,eval",
                        "robust_train=1",
                        "train_realizations=2",
                        "train_warmup=0",
                        "perturb=roughness(sigma_um=0.04,corr=2)"};
  const Config cfg = Config::from_args(6, argv);
  cfg.strict(config_keys());
  const PipelineSpec spec = spec_from_config(cfg);
  ASSERT_EQ(spec.stages.front(), StageKind::RobustTrain);

  BuildContext context;
  context.robust_train = robust_train_options_from_config(cfg);
  ASSERT_EQ(context.robust_train.realizations, 2u);
  ASSERT_EQ(context.robust_train.warmup_epochs, 0);

  ArtifactStore store;
  store.set_data(&setup.train, &setup.test);
  build_pipeline(spec, setup.options, context).run(store);

  EXPECT_TRUE(store.has_model(artifacts::kMainModel));
  EXPECT_TRUE(store.has_metric(artifacts::kAccuracy));
  ASSERT_TRUE(store.has_metric(artifacts::kRobustTrainRealizations));
  // 120 train samples / batch 25 -> 5 batches; 1 epoch x K=2 per batch.
  EXPECT_EQ(store.metric(artifacts::kRobustTrainRealizations), 10.0);
}

TEST(RobustTrainStage, CheckpointResumeAndStreamContinuation) {
  const TinySetup setup = tiny_setup(103);
  const char* argv[] = {"prog", "pipeline=robust_train,smooth,eval",
                        "train_realizations=2", "train_warmup=0"};
  const Config cfg = Config::from_args(4, argv);
  cfg.strict(config_keys());
  const PipelineSpec spec = spec_from_config(cfg);
  BuildContext context;
  context.robust_train = robust_train_options_from_config(cfg);

  const std::string dir = temp_dir("pipeline_robust_train_resume");
  RunOptions checkpointed;
  checkpointed.checkpoint_dir = dir;

  ArtifactStore reference;
  reference.set_data(&setup.train, &setup.test);
  build_pipeline(spec, setup.options, context).run(reference, checkpointed);
  ASSERT_TRUE(reference.has_metric(artifacts::kRobustTrainRealizations));
  const double counter =
      reference.metric(artifacts::kRobustTrainRealizations);
  EXPECT_EQ(counter, 10.0);  // 5 batches x K=2, one epoch

  // Resume: every stage satisfied from checkpoints, counter and model
  // restored bit-for-bit.
  ArtifactStore resumed;
  resumed.set_data(&setup.train, &setup.test);
  RunOptions resume = checkpointed;
  resume.resume = true;
  const auto timings =
      build_pipeline(spec, setup.options, context).run(resumed, resume);
  for (const auto& timing : timings) EXPECT_TRUE(timing.skipped);
  EXPECT_EQ(resumed.metric(artifacts::kRobustTrainRealizations), counter);
  EXPECT_EQ(resumed.metric(artifacts::kAccuracy),
            reference.metric(artifacts::kAccuracy));
  for (std::size_t l = 0; l < setup.options.model.num_layers; ++l) {
    EXPECT_EQ(
        max_abs_diff(resumed.model(artifacts::kMainModel).phases()[l],
                     reference.model(artifacts::kMainModel).phases()[l]),
        0.0);
  }

  // Training FURTHER on the restored store continues the realization
  // stream where the checkpoint left off instead of replaying it.
  const PipelineSpec train_only{{StageKind::RobustTrain}, {}};
  build_pipeline(train_only, setup.options, context).run(resumed);
  EXPECT_EQ(resumed.metric(artifacts::kRobustTrainRealizations),
            2.0 * counter);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------- publish -> serve hand-off

TEST(PublishHandoff, PipelineToRegistryToInferenceEngineEndToEnd) {
  // The acceptance scenario: a declaratively-built pipeline
  // (pipeline=train,sparsify,smooth,eval,publish — the odonn_cli run
  // path) publishes into a ModelRegistry that an InferenceEngine serves
  // from, with predictions matching the trained model exactly.
  const TinySetup setup = tiny_setup(61);
  const char* argv[] = {"prog", "pipeline=train,sparsify,smooth,eval,publish",
                        "roughness=1", "intra=1"};
  const Config cfg = Config::from_args(4, argv);
  cfg.strict(config_keys());
  const PipelineSpec spec = spec_from_config(cfg);
  ASSERT_EQ(spec.stages.back(), StageKind::Publish);

  auto registry = std::make_shared<serve::ModelRegistry>();
  BuildContext context;
  context.registry = registry;
  context.publish_name = "ours-d";
  Pipeline pipe = build_pipeline(spec, setup.options, context);

  ArtifactStore store;
  store.set_data(&setup.train, &setup.test);
  pipe.run(store);

  ASSERT_EQ(registry->names(),
            (std::vector<std::string>{"ours-d", "ours-d-smoothed"}));

  serve::InferenceEngine engine(registry);
  const auto published = registry->get("ours-d");
  std::vector<std::future<serve::PredictResult>> futures;
  const std::size_t count = std::min<std::size_t>(8, setup.test.size());
  for (std::size_t k = 0; k < count; ++k) {
    futures.push_back(engine.submit(
        "ours-d", optics::encode_image(setup.test.image(k),
                                       published->config().grid)));
  }
  const std::vector<MatrixC> published_tables = published->modulation_tables();
  donn::DonnModel::Workspace workspace;
  for (std::size_t k = 0; k < count; ++k) {
    const auto result = futures[k].get();
    EXPECT_EQ(result.predicted,
              published->predict(optics::encode_image(setup.test.image(k),
                                                      published->config().grid),
                                 published_tables, workspace));
  }

  // The smoothed variant is inference-equivalent in the ideal simulation
  // (2*pi periodicity) — serving it returns the same classes.
  const auto smoothed = registry->get("ours-d-smoothed");
  const std::vector<MatrixC> smoothed_tables = smoothed->modulation_tables();
  for (std::size_t k = 0; k < count; ++k) {
    const auto input =
        optics::encode_image(setup.test.image(k), smoothed->config().grid);
    EXPECT_EQ(smoothed->predict(input, smoothed_tables, workspace),
              published->predict(input, published_tables, workspace));
  }
}

}  // namespace
}  // namespace odonn::pipeline
