// Declarative pipeline construction.
//
// A workflow is named either by a stage list ("pipeline=train,sparsify,
// smooth,eval,report,publish") or by one of the paper's recipe shortcuts
// ("recipe=ours-d"); the Baseline/Ours-A..D variants are nothing but five
// stage lists plus regularizer flags (spec_for_recipe). options_from_config
// maps the flat key=value Config onto train::RecipeOptions, and
// config_keys() exposes the full accepted key set for Config::strict().
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "fab/montecarlo.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/stages.hpp"
#include "train/recipe.hpp"

namespace odonn::pipeline {

enum class StageKind {
  Dataset,
  Train,
  RobustTrain,
  Sparsify,
  Smooth,
  Evaluate,
  Robust,
  Report,
  Publish,
};

StageKind parse_stage_kind(const std::string& name);

/// A fully-specified workflow: which stages, with which regularizers.
struct PipelineSpec {
  std::vector<StageKind> stages;
  RegularizerFlags flags;
};

/// The paper's five variants as stage lists (§IV-B):
///   baseline/ours-a:  train, report, smooth, eval   (flags differ)
///   ours-b/c/d:       train, sparsify, report, smooth, eval
PipelineSpec spec_for_recipe(train::RecipeKind kind);

/// Parses a comma-separated stage list; throws ConfigError on unknown
/// names or an empty list.
std::vector<StageKind> parse_stage_list(const std::string& csv);

/// Swaps every Train stage for RobustTrain (the `robust_train=1` mapping;
/// exposed for drivers that assemble specs without spec_from_config).
void apply_robust_train(PipelineSpec& spec);

/// Spec from Config: `recipe=` picks a shortcut, `pipeline=` overrides the
/// stage list, `roughness=`/`intra=` override the regularizer flags, and
/// `robust_train=1` swaps every train stage for its noise-in-the-loop
/// robust_train counterpart. Defaults to recipe=ours-c's spec when neither
/// recipe nor pipeline is present.
PipelineSpec spec_from_config(const Config& cfg);

/// RecipeOptions from flat config keys (grid=, samples-independent):
/// epochs/epochs_sparse/epochs_finetune, batch, lr/lr_sparse, p, q,
/// sparsity, block, layers, init=flat|uniform, crosstalk (in [0, 1]),
/// two_pi_iters, seed, verbose.
train::RecipeOptions options_from_config(const Config& cfg);

/// The crosstalk strengths of `sweep=` (comma-separated, each a finite
/// value in [0, 1]); empty when the key is absent.
std::vector<double> sweep_from_config(const Config& cfg);

/// DatasetStageOptions from flat config keys: dataset= (family), data_dir=,
/// samples=, grid=, seed= — the DatasetStage / driver data-preparation
/// contract.
DatasetStageOptions dataset_options_from_config(const Config& cfg);

/// RobustStageOptions from flat config keys: perturb=, realizations=,
/// yield_threshold= (in [0, 1]), antithetic=.
RobustStageOptions robust_options_from_config(const Config& cfg);

/// The Monte-Carlo options of every robust report (RobustEvalStage,
/// odonn_cli robust, the robust benches): `robust`'s realizations,
/// antithetic pairing and yield threshold, on the stream recipe.seed + 1000
/// (apart from the train and smooth streams), deploying the recipe's
/// crosstalk strength.
fab::MonteCarloOptions monte_carlo_options(const train::RecipeOptions& recipe,
                                           const RobustStageOptions& robust);

/// RobustTrainStageOptions from flat config keys: perturb= and antithetic=
/// (both shared with the robust eval stage), train_realizations=,
/// train_resample=batch|epoch, train_warmup=, train_lr_scale=.
RobustTrainStageOptions robust_train_options_from_config(const Config& cfg);

/// Every config key understood by spec_from_config/options_from_config
/// (for Config::strict; callers append their own driver-level keys).
std::vector<std::string> config_keys();

/// Everything build_pipeline needs beyond the spec and recipe options.
struct BuildContext {
  /// Required when the spec contains Publish.
  std::shared_ptr<serve::ModelRegistry> registry;
  std::string publish_name = "pipeline";
  /// When non-empty, PublishStage also saves each published model here.
  std::string publish_dir;
  /// Used when the spec contains a Dataset stage.
  DatasetStageOptions data;
  /// Used when the spec contains a Robust stage.
  RobustStageOptions robust;
  /// Used when the spec contains a RobustTrain stage.
  RobustTrainStageOptions robust_train;
};

/// Instantiates the stage objects for a spec. Throws ConfigError when the
/// spec needs a registry and the context has none.
Pipeline build_pipeline(const PipelineSpec& spec,
                        const train::RecipeOptions& options,
                        const BuildContext& context = {});

/// The two models a recipe produces: the trained (for Ours-B..D also
/// sparsified) model and its 2*pi-smoothed copy.
struct RecipeModels {
  donn::DonnModel main;
  donn::DonnModel smoothed;
};

/// Runs only the model-producing stages of a recipe (train, sparsify,
/// smooth; the report and eval stages are dropped) on pre-resized data
/// and returns kMainModel and kSmoothedModel, bitwise the trained_phases
/// and smoothed_phases of train::run_recipe. A non-null `robust_train`
/// swaps every train stage for robust_train with those options.
RecipeModels recipe_models(
    train::RecipeKind kind, const train::RecipeOptions& options,
    const data::Dataset& train, const data::Dataset& test,
    const RobustTrainStageOptions* robust_train = nullptr);

}  // namespace odonn::pipeline
