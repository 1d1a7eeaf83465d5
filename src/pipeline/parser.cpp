#include "pipeline/parser.hpp"

#include <algorithm>
#include <cctype>
#include <memory>
#include <sstream>

#include "common/error.hpp"

namespace odonn::pipeline {

namespace {

/// `value` of `key` when it lies in [0, 1] (a crosstalk strength, a yield
/// threshold): out-of-range values fail here, before any compute.
double unit_interval(double value, const std::string& key) {
  if (!(value >= 0.0 && value <= 1.0)) {
    std::ostringstream text;
    text << "key '" << key << "': " << value << " is outside [0, 1]";
    throw ConfigError(text.str());
  }
  return value;
}

}  // namespace

StageKind parse_stage_kind(const std::string& name) {
  std::string low(name.size(), '\0');
  std::transform(name.begin(), name.end(), low.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (low == "data" || low == "dataset") return StageKind::Dataset;
  if (low == "train") return StageKind::Train;
  if (low == "robust_train") return StageKind::RobustTrain;
  if (low == "sparsify") return StageKind::Sparsify;
  if (low == "smooth") return StageKind::Smooth;
  if (low == "eval" || low == "evaluate") return StageKind::Evaluate;
  if (low == "robust") return StageKind::Robust;
  if (low == "report") return StageKind::Report;
  if (low == "publish") return StageKind::Publish;
  throw ConfigError(
      "unknown pipeline stage '" + name +
      "' (expected data, train, robust_train, sparsify, smooth, eval, "
      "robust, report or publish)");
}

PipelineSpec spec_for_recipe(train::RecipeKind kind) {
  PipelineSpec spec;
  const bool sparsify = kind == train::RecipeKind::OursB ||
                        kind == train::RecipeKind::OursC ||
                        kind == train::RecipeKind::OursD;
  spec.stages.push_back(StageKind::Train);
  if (sparsify) spec.stages.push_back(StageKind::Sparsify);
  spec.stages.push_back(StageKind::Report);
  spec.stages.push_back(StageKind::Smooth);
  spec.stages.push_back(StageKind::Evaluate);
  spec.flags.roughness = kind == train::RecipeKind::OursA ||
                         kind == train::RecipeKind::OursC ||
                         kind == train::RecipeKind::OursD;
  spec.flags.intra = kind == train::RecipeKind::OursD;
  return spec;
}

std::vector<StageKind> parse_stage_list(const std::string& csv) {
  std::vector<StageKind> stages;
  for (const std::string& token : split_csv(csv)) {
    if (token.empty()) {
      throw ConfigError("empty stage name in pipeline list '" + csv + "'");
    }
    stages.push_back(parse_stage_kind(token));
  }
  if (stages.empty()) throw ConfigError("pipeline stage list is empty");
  return stages;
}

PipelineSpec spec_from_config(const Config& cfg) {
  return spec_from_config(
      cfg, train::parse_recipe(cfg.get_string("recipe", "ours-c")));
}

PipelineSpec spec_from_config(const Config& cfg, train::RecipeKind kind) {
  PipelineSpec spec = spec_for_recipe(kind);
  if (cfg.has("pipeline")) {
    spec.stages = parse_stage_list(cfg.get_string("pipeline", ""));
  }
  spec.flags.roughness = cfg.get_bool("roughness", spec.flags.roughness);
  spec.flags.intra = cfg.get_bool("intra", spec.flags.intra);
  if (cfg.get_bool("robust_train", false)) {
    apply_robust_train(spec);
  }
  return spec;
}

void apply_robust_train(PipelineSpec& spec) {
  for (StageKind& stage : spec.stages) {
    if (stage == StageKind::Train) stage = StageKind::RobustTrain;
  }
}

train::RecipeOptions options_from_config(const Config& cfg) {
  train::RecipeOptions opt;
  const std::size_t grid = cfg.get_count("grid", 48);
  opt.model = donn::DonnConfig::scaled(grid);
  opt.model.num_layers = cfg.get_count("layers", opt.model.num_layers);
  opt.model.detector = donn::parse_detector_mode(
      cfg.get_enum("detector", "standard", {"standard", "differential"}));
  const std::string init = cfg.get_enum("init", "flat", {"flat", "uniform"});
  opt.model.init =
      init == "flat" ? donn::PhaseInit::Flat : donn::PhaseInit::Uniform;

  opt.epochs_dense = cfg.get_count("epochs", 3);
  opt.epochs_sparse = cfg.get_count(
      "epochs_sparse", std::max<std::size_t>(1, opt.epochs_dense / 2));
  opt.epochs_finetune = cfg.get_count("epochs_finetune", 1);
  opt.batch_size = cfg.get_count("batch", 50);
  opt.lr_dense = cfg.get_double("lr", opt.lr_dense);
  opt.lr_sparse = cfg.get_double("lr_sparse", opt.lr_sparse);
  opt.roughness_p = cfg.get_double("p", opt.roughness_p);
  opt.intra_q = cfg.get_double("q", opt.intra_q);
  opt.sparsity_ratio = cfg.get_double("sparsity", opt.sparsity_ratio);
  opt.block_size = cfg.get_count("block", opt.block_size);
  opt.two_pi_iterations =
      cfg.get_count("two_pi_iters", opt.two_pi_iterations);
  opt.crosstalk =
      unit_interval(cfg.get_double("crosstalk", opt.crosstalk), "crosstalk");
  opt.seed = cfg.get_count("seed", 7);
  opt.verbose = cfg.get_bool("verbose", false);
  return opt;
}

std::vector<double> sweep_from_config(const Config& cfg) {
  std::vector<double> sweep;
  if (!cfg.has("sweep")) return sweep;
  for (const std::string& token : split_csv(cfg.get_string("sweep", ""))) {
    sweep.push_back(unit_interval(parse_double(token, "sweep"), "sweep"));
  }
  return sweep;
}

DatasetStageOptions dataset_options_from_config(const Config& cfg) {
  DatasetStageOptions opt;
  opt.family = data::parse_family(cfg.get_string("dataset", "mnist"));
  opt.data_dir = cfg.get_string("data_dir", "");
  opt.samples = cfg.get_count("samples", 1200);
  opt.grid = cfg.get_count("grid", 48);
  opt.seed = cfg.get_count("seed", 7);
  return opt;
}

RobustStageOptions robust_options_from_config(const Config& cfg) {
  RobustStageOptions opt;
  opt.perturb = cfg.get_string("perturb", "");
  const long realizations = cfg.get_int("realizations", 16);
  if (realizations < 1) {
    throw ConfigError("realizations must be >= 1");
  }
  opt.realizations = static_cast<std::size_t>(realizations);
  opt.yield_threshold = unit_interval(
      cfg.get_double("yield_threshold", opt.yield_threshold),
      "yield_threshold");
  opt.antithetic = cfg.get_bool("antithetic", opt.antithetic);
  return opt;
}

fab::MonteCarloOptions monte_carlo_options(const train::RecipeOptions& recipe,
                                           const RobustStageOptions& robust) {
  fab::MonteCarloOptions mc;
  mc.realizations = robust.realizations;
  mc.seed = recipe.seed + 1000;  // own stream, apart from train/smooth
  mc.antithetic = robust.antithetic;
  mc.yield_threshold = robust.yield_threshold;
  mc.crosstalk.strength = recipe.crosstalk;
  return mc;
}

RobustTrainStageOptions robust_train_options_from_config(const Config& cfg) {
  RobustTrainStageOptions opt;
  opt.perturb = cfg.get_string("perturb", "");
  const long realizations =
      cfg.get_int("train_realizations", static_cast<long>(opt.realizations));
  if (realizations < 1) {
    throw ConfigError("train_realizations must be >= 1");
  }
  opt.realizations = static_cast<std::size_t>(realizations);
  // antithetic= drives training and MC evaluation together; only the
  // defaults differ (pairs for training, plain streams for evaluation).
  opt.antithetic = cfg.get_bool("antithetic", opt.antithetic);
  if (opt.antithetic && opt.realizations % 2 != 0) {
    throw ConfigError(
        "train_realizations must be even with antithetic pairing (pass "
        "antithetic=0 for plain training streams)");
  }
  opt.per_epoch =
      cfg.get_enum("train_resample", "batch", {"batch", "epoch"}) == "epoch";
  opt.warmup_epochs = cfg.get_int("train_warmup", opt.warmup_epochs);
  opt.lr_scale = cfg.get_double("train_lr_scale", opt.lr_scale);
  if (opt.lr_scale <= 0.0) {
    throw ConfigError("train_lr_scale must be > 0");
  }
  return opt;
}

std::vector<std::string> config_keys() {
  return {"recipe",          "pipeline",  "roughness", "intra",
          "grid",            "layers",    "detector",  "init",
          "epochs",
          "epochs_sparse",   "epochs_finetune",        "batch",
          "lr",              "lr_sparse", "p",         "q",
          "sparsity",        "block",     "two_pi_iters",
          "crosstalk",       "seed",      "verbose",   "data_dir",
          "perturb",         "realizations",           "yield_threshold",
          "antithetic",      "robust_train",           "train_realizations",
          "train_resample",  "train_warmup",           "train_lr_scale"};
}

Pipeline build_pipeline(const PipelineSpec& spec,
                        const train::RecipeOptions& options,
                        const BuildContext& context) {
  ODONN_CHECK(!spec.stages.empty(), "pipeline spec has no stages");
  Pipeline pipe;
  for (const StageKind kind : spec.stages) {
    switch (kind) {
      case StageKind::Dataset:
        pipe.add(std::make_unique<DatasetStage>(context.data));
        break;
      case StageKind::Robust:
        pipe.add(std::make_unique<RobustEvalStage>(options, context.robust));
        break;
      case StageKind::Train:
        pipe.add(std::make_unique<TrainStage>(options, spec.flags));
        break;
      case StageKind::RobustTrain:
        pipe.add(std::make_unique<RobustTrainStage>(options, spec.flags,
                                                    context.robust_train));
        break;
      case StageKind::Sparsify:
        pipe.add(std::make_unique<SparsifyStage>(options, spec.flags));
        break;
      case StageKind::Smooth:
        pipe.add(std::make_unique<SmoothTwoPiStage>(options));
        break;
      case StageKind::Evaluate:
        pipe.add(std::make_unique<EvaluateStage>(options));
        break;
      case StageKind::Report:
        pipe.add(std::make_unique<ReportStage>(options));
        break;
      case StageKind::Publish:
        if (!context.registry) {
          throw ConfigError(
              "pipeline contains a publish stage but no model registry was "
              "provided");
        }
        pipe.add(std::make_unique<PublishStage>(
            context.registry, context.publish_name, context.publish_dir));
        break;
    }
  }
  return pipe;
}

RecipeModels recipe_models(train::RecipeKind kind,
                           const train::RecipeOptions& options,
                           const data::Dataset& train,
                           const data::Dataset& test,
                           const RobustTrainStageOptions* robust_train) {
  PipelineSpec spec = spec_for_recipe(kind);
  std::erase_if(spec.stages, [](StageKind stage) {
    return stage != StageKind::Train && stage != StageKind::Sparsify &&
           stage != StageKind::Smooth;
  });
  BuildContext context;
  if (robust_train != nullptr) {
    apply_robust_train(spec);
    context.robust_train = *robust_train;
  }
  ArtifactStore store;
  store.set_data(&train, &test);
  build_pipeline(spec, options, context).run(store);
  return {store.model(artifacts::kMainModel),
          store.model(artifacts::kSmoothedModel)};
}

}  // namespace odonn::pipeline
