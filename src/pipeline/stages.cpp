#include "pipeline/stages.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/error.hpp"
#include "data/idx.hpp"
#include "data/transform.hpp"
#include "fab/montecarlo.hpp"
#include "fab/spec.hpp"
#include "pipeline/parser.hpp"
#include "roughness/report.hpp"
#include "slr/slr.hpp"
#include "smooth2pi/two_pi_opt.hpp"
#include "train/trainer.hpp"

namespace odonn::pipeline {

namespace {

// The RecipeOptions -> TrainOptions, SlrOptions and TwoPiOptions mappings
// below are part of every recipe digest: changing one changes the trained
// or smoothed phase bits that the table digests and perfbench/digests.txt
// pin.
train::TrainOptions base_train_options(const train::RecipeOptions& options,
                                       RegularizerFlags flags) {
  train::TrainOptions base;
  base.batch_size = options.batch_size;
  base.seed = options.seed + 1;
  base.verbose = options.verbose;
  if (flags.roughness) base.reg.roughness_p = options.roughness_p;
  if (flags.intra) base.reg.intra_q = options.intra_q;
  return base;
}

double overall_sparsity(const donn::DonnModel& model) {
  if (!model.has_masks()) return 0.0;
  double total = 0.0;
  for (const auto& m : model.masks()) total += sparsify::sparsity_ratio(m);
  return total / static_cast<double>(model.masks().size());
}

}  // namespace

// ------------------------------------------------------------------ Data

namespace {

data::Dataset load_idx_resized(const DatasetStageOptions& options,
                               const char* images, const char* labels) {
  const std::filesystem::path dir(options.data_dir);
  return data::resize_dataset(
      data::load_idx((dir / images).string(), (dir / labels).string()),
      options.grid);
}

}  // namespace

std::pair<data::Dataset, data::Dataset> load_or_synthesize(
    const DatasetStageOptions& options) {
  if (!options.data_dir.empty()) {
    return {load_idx_resized(options, "train-images-idx3-ubyte",
                             "train-labels-idx1-ubyte"),
            load_idx_resized(options, "t10k-images-idx3-ubyte",
                             "t10k-labels-idx1-ubyte")};
  }
  // Same arithmetic (seed offsets, resize, split) the CLI drivers have
  // always used, so pre-attached and stage-produced datasets are identical.
  const auto raw = data::make_synthetic(options.family, options.samples,
                                        options.seed + 10);
  const auto resized = data::resize_dataset(raw, options.grid);
  Rng split_rng(options.seed + 11);
  return resized.split(0.8, split_rng);
}

data::Dataset load_eval_set(const DatasetStageOptions& options) {
  if (!options.data_dir.empty()) {
    return load_idx_resized(options, "t10k-images-idx3-ubyte",
                            "t10k-labels-idx1-ubyte");
  }
  return load_or_synthesize(options).second;
}

DatasetStage::DatasetStage(DatasetStageOptions options)
    : options_(std::move(options)) {}

void DatasetStage::run(ArtifactStore& store) {
  auto [train, test] = load_or_synthesize(options_);
  store.put_data(std::move(train), std::move(test));
}

// ---------------------------------------------------------------- Train

TrainStage::TrainStage(train::RecipeOptions options, RegularizerFlags flags)
    : options_(std::move(options)), flags_(flags) {}

void TrainStage::run(ArtifactStore& store) {
  if (!store.has_model(artifacts::kMainModel)) {
    Rng rng(options_.seed);
    store.put_model(artifacts::kMainModel,
                    donn::DonnModel(options_.model, rng));
  }
  donn::DonnModel& model = store.mutable_model(artifacts::kMainModel);
  train::TrainOptions dense = base_train_options(options_, flags_);
  dense.epochs = options_.epochs_dense;
  dense.lr = options_.lr_dense;
  train::Trainer trainer(model, store.train(), dense);
  trainer.run();
}

// ---------------------------------------------------------- RobustTrain

RobustTrainStage::RobustTrainStage(train::RecipeOptions options,
                                   RegularizerFlags flags,
                                   RobustTrainStageOptions robust)
    : options_(std::move(options)),
      flags_(flags),
      robust_(std::move(robust)) {
  ODONN_CHECK(robust_.realizations > 0,
              "robust_train stage: need at least one realization");
}

void RobustTrainStage::run(ArtifactStore& store) {
  if (!store.has_model(artifacts::kMainModel)) {
    Rng rng(options_.seed);
    store.put_model(artifacts::kMainModel,
                    donn::DonnModel(options_.model, rng));
  }
  donn::DonnModel& model = store.mutable_model(artifacts::kMainModel);

  // Split the dense budget into clean warm-up + noise-in-the-loop epochs
  // (see RobustTrainStageOptions::warmup_epochs); total epochs — and thus
  // the clean-accuracy budget — match a plain TrainStage exactly.
  const long total = static_cast<long>(options_.epochs_dense);
  long warmup = robust_.warmup_epochs;
  if (warmup < 0) warmup = total - std::max<long>(1, total / 4);
  warmup = std::clamp<long>(warmup, 0, total);
  const long robust_epochs = total - warmup;

  if (warmup > 0) {
    train::TrainOptions clean = base_train_options(options_, flags_);
    clean.epochs = static_cast<std::size_t>(warmup);
    clean.lr = options_.lr_dense;
    train::Trainer trainer(model, store.train(), clean);
    trainer.run();
  }
  if (robust_epochs > 0) {
    const fab::PerturbationStack stack = fab::parse_perturbation_stack(
        robust_.perturb.empty() ? fab::kDefaultPerturbationSpec
                                : robust_.perturb);
    train::TrainOptions dense = base_train_options(options_, flags_);
    dense.epochs = static_cast<std::size_t>(robust_epochs);
    dense.lr = options_.lr_dense * robust_.lr_scale;
    dense.robust.stack = &stack;
    dense.robust.realizations = robust_.realizations;
    dense.robust.antithetic = robust_.antithetic;
    dense.robust.per_epoch = robust_.per_epoch;
    dense.robust.seed = options_.seed + 500;  // apart from train/smooth/mc
    // Continuation training on a checkpointed model resumes the
    // realization stream where the previous run stopped (counter
    // round-trips exactly: metrics are doubles, integral up to 2^53).
    if (store.has_metric(artifacts::kRobustTrainRealizations)) {
      dense.robust.counter_start = static_cast<std::uint64_t>(
          store.metric(artifacts::kRobustTrainRealizations));
    }
    train::Trainer trainer(model, store.train(), dense);
    trainer.run();
    store.put_metric(artifacts::kRobustTrainRealizations,
                     static_cast<double>(trainer.realizations_sampled()));
  } else if (!store.has_metric(artifacts::kRobustTrainRealizations)) {
    // All-warm-up configuration: the declared output must still exist, but
    // a counter restored from a checkpoint is NOT reset — a later robust
    // session resumes the stream where the previous one stopped.
    store.put_metric(artifacts::kRobustTrainRealizations, 0.0);
  }
}

// ------------------------------------------------------------- Sparsify

SparsifyStage::SparsifyStage(train::RecipeOptions options,
                             RegularizerFlags flags)
    : options_(std::move(options)), flags_(flags) {}

void SparsifyStage::run(ArtifactStore& store) {
  donn::DonnModel& model = store.mutable_model(artifacts::kMainModel);
  const train::TrainOptions base = base_train_options(options_, flags_);

  slr::SlrOptions slr_options;  // §IV-A2: rho=0.1, M=300, r=0.1, s0=0.01
  slr_options.scheme = {sparsify::Scheme::Block, options_.sparsity_ratio,
                        options_.block_size};
  slr::SlrState slr_state(model.phases(), slr_options);
  {
    train::TrainOptions sparse = base;
    sparse.epochs = options_.epochs_sparse;
    sparse.lr = options_.lr_sparse;
    sparse.slr = &slr_state;
    train::Trainer trainer(model, store.train(), sparse);
    trainer.run();
  }
  model.set_masks(slr_state.masks());
  if (options_.epochs_finetune > 0) {
    train::TrainOptions finetune = base;
    finetune.epochs = options_.epochs_finetune;
    finetune.lr = options_.lr_sparse;
    train::Trainer trainer(model, store.train(), finetune);
    trainer.run();
  }
}

// --------------------------------------------------------------- Smooth

SmoothTwoPiStage::SmoothTwoPiStage(train::RecipeOptions options)
    : options_(std::move(options)) {}

void SmoothTwoPiStage::run(ArtifactStore& store) {
  const donn::DonnModel& model = store.model(artifacts::kMainModel);

  smooth2pi::TwoPiOptions two_pi;
  two_pi.iterations = options_.two_pi_iterations;
  two_pi.seed = options_.seed + 99;
  const auto layer_results =
      smooth2pi::optimize_2pi_all(model.phases(), two_pi);
  std::vector<MatrixD> smoothed;
  smoothed.reserve(layer_results.size());
  double after_sum = 0.0;
  for (std::size_t i = 0; i < layer_results.size(); ++i) {
    const auto& lr = layer_results[i];
    smoothed.push_back(lr.optimized);
    after_sum += lr.roughness_after;
    // Per-layer detail next to the overall mean, so multi-layer stacks show
    // which mask the smoother actually flattened.
    store.put_metric(std::string(artifacts::kRoughnessAfter) + ".layer" +
                         std::to_string(i),
                     lr.roughness_after);
  }
  store.put_metric(artifacts::kRoughnessAfter,
                   after_sum / static_cast<double>(layer_results.size()));

  donn::DonnModel smoothed_model = model;
  smoothed_model.clear_masks();  // +2*pi pixels are no longer exact zeros
  smoothed_model.set_phases(std::move(smoothed));
  store.put_model(artifacts::kSmoothedModel, std::move(smoothed_model));
}

// ----------------------------------------------------------------- Eval

EvaluateStage::EvaluateStage(train::RecipeOptions options)
    : options_(std::move(options)) {}

void EvaluateStage::run(ArtifactStore& store) {
  const donn::DonnModel& model = store.model(artifacts::kMainModel);
  store.put_metric(artifacts::kAccuracy,
                   train::evaluate_accuracy(model, store.test()));
  const donn::CrosstalkOptions crosstalk{options_.crosstalk};
  store.put_metric(
      artifacts::kDeployedAccuracy,
      train::evaluate_deployed_accuracy(model, store.test(), crosstalk));
  if (store.has_model(artifacts::kSmoothedModel)) {
    store.put_metric(
        artifacts::kDeployedAccuracyAfter2Pi,
        train::evaluate_deployed_accuracy(
            store.model(artifacts::kSmoothedModel), store.test(), crosstalk));
  }
}

// --------------------------------------------------------------- Robust

RobustEvalStage::RobustEvalStage(train::RecipeOptions options,
                                 RobustStageOptions robust)
    : options_(std::move(options)), robust_(std::move(robust)) {
  ODONN_CHECK(robust_.realizations > 0,
              "robust stage: need at least one realization");
}

void RobustEvalStage::run(ArtifactStore& store) {
  const fab::PerturbationStack stack = fab::parse_perturbation_stack(
      robust_.perturb.empty() ? fab::kDefaultPerturbationSpec
                              : robust_.perturb);
  const fab::MonteCarloEvaluator evaluator(
      store.test(), monte_carlo_options(options_, robust_));

  const auto put = [&store](const char* mean_key, const char* std_key,
                            const char* min_key, const char* p50_key,
                            const char* yield_key,
                            const fab::RobustnessReport& report) {
    store.put_metric(mean_key, report.mean);
    store.put_metric(std_key, report.stddev);
    store.put_metric(min_key, report.min);
    store.put_metric(p50_key, report.p50);
    store.put_metric(yield_key, report.yield);
  };
  // Realization seeds depend only on (mc.seed, r): main and smoothed see
  // identical perturbation draws (common random numbers).
  put(artifacts::kRobustMean, artifacts::kRobustStd, artifacts::kRobustMin,
      artifacts::kRobustP50, artifacts::kRobustYield,
      evaluator.evaluate(artifacts::kMainModel,
                         store.model(artifacts::kMainModel), stack));
  if (store.has_model(artifacts::kSmoothedModel)) {
    put(artifacts::kRobustSmoothedMean, artifacts::kRobustSmoothedStd,
        artifacts::kRobustSmoothedMin, artifacts::kRobustSmoothedP50,
        artifacts::kRobustSmoothedYield,
        evaluator.evaluate(artifacts::kSmoothedModel,
                           store.model(artifacts::kSmoothedModel), stack));
  }
}

// --------------------------------------------------------------- Report

ReportStage::ReportStage(train::RecipeOptions options)
    : options_(std::move(options)) {}

void ReportStage::run(ArtifactStore& store) {
  const donn::DonnModel& model = store.model(artifacts::kMainModel);
  const auto before = roughness::report(model.phases());
  store.put_metric(artifacts::kRoughnessBefore, before.overall);
  for (std::size_t i = 0; i < before.per_layer.size(); ++i) {
    store.put_metric(std::string(artifacts::kRoughnessBefore) + ".layer" +
                         std::to_string(i),
                     before.per_layer[i]);
  }
  store.put_metric(artifacts::kSparsity, overall_sparsity(model));
}

// -------------------------------------------------------------- Publish

PublishStage::PublishStage(std::shared_ptr<serve::ModelRegistry> registry,
                           std::string base_name, std::string save_dir)
    : registry_(std::move(registry)),
      base_name_(std::move(base_name)),
      save_dir_(std::move(save_dir)) {
  ODONN_CHECK(registry_ != nullptr, "publish stage: registry must be set");
  ODONN_CHECK(!base_name_.empty(),
              "publish stage: base name must be non-empty");
}

void PublishStage::run(ArtifactStore& store) {
  std::vector<std::string> published;
  registry_->add(base_name_, donn::DonnModel(store.model(artifacts::kMainModel)));
  published.push_back(base_name_);
  if (store.has_model(artifacts::kSmoothedModel)) {
    const std::string name = base_name_ + "-smoothed";
    registry_->add(name,
                   donn::DonnModel(store.model(artifacts::kSmoothedModel)));
    published.push_back(name);
  }
  if (!save_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(save_dir_, ec);
    if (ec) {
      throw IoError("cannot create publish directory " + save_dir_ + ": " +
                    ec.message());
    }
    for (const std::string& name : published) {
      registry_->save(
          name, (std::filesystem::path(save_dir_) / (name + ".odnn")).string());
    }
  }
}

}  // namespace odonn::pipeline
