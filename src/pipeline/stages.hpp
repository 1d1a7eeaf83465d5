// Concrete pipeline stages for the paper's workflow; train::run_recipe is
// their composition (tests/pipeline_test.cpp asserts bit-for-bit parity
// with explicitly composed, checkpointed and trimmed pipelines).
//
// Shared artifact names:
//   model  "main"      — the working model (created by TrainStage)
//   model  "smoothed"  — 2*pi-optimized copy (created by SmoothTwoPiStage)
//   metric "accuracy", "deployed_accuracy", "deployed_accuracy_after_2pi",
//          "roughness_before", "roughness_after", "sparsity"
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/synthetic.hpp"
#include "pipeline/stage.hpp"
#include "serve/registry.hpp"
#include "train/recipe.hpp"

namespace odonn::pipeline {

namespace artifacts {
inline constexpr const char* kMainModel = "main";
inline constexpr const char* kSmoothedModel = "smoothed";
inline constexpr const char* kAccuracy = "accuracy";
inline constexpr const char* kDeployedAccuracy = "deployed_accuracy";
inline constexpr const char* kDeployedAccuracyAfter2Pi =
    "deployed_accuracy_after_2pi";
inline constexpr const char* kRoughnessBefore = "roughness_before";
inline constexpr const char* kRoughnessAfter = "roughness_after";
inline constexpr const char* kSparsity = "sparsity";
// Monte-Carlo robustness metrics (RobustEvalStage). The model.main report;
// when model.smoothed exists a second set with the "robust_smoothed_"
// prefix is produced.
inline constexpr const char* kRobustMean = "robust_mean";
inline constexpr const char* kRobustStd = "robust_std";
inline constexpr const char* kRobustMin = "robust_min";
inline constexpr const char* kRobustP50 = "robust_p50";
inline constexpr const char* kRobustYield = "robust_yield";
inline constexpr const char* kRobustSmoothedMean = "robust_smoothed_mean";
inline constexpr const char* kRobustSmoothedStd = "robust_smoothed_std";
inline constexpr const char* kRobustSmoothedMin = "robust_smoothed_min";
inline constexpr const char* kRobustSmoothedP50 = "robust_smoothed_p50";
inline constexpr const char* kRobustSmoothedYield = "robust_smoothed_yield";
// RobustTrainStage: total realizations drawn from the robust training
// stream. Checkpointed with the other metrics, so a resumed pipeline that
// trains further continues the identical stream.
inline constexpr const char* kRobustTrainRealizations =
    "robust_train_realizations";
}  // namespace artifacts

/// Which of the paper's regularizers a training stage applies (the only
/// difference between Baseline and Ours-A, and between Ours-C and Ours-D).
struct RegularizerFlags {
  bool roughness = false;  ///< Eq. 5 roughness term (factor p)
  bool intra = false;      ///< Eq. 8 intra-block smoothness term (factor q)
};

/// How a DatasetStage obtains its data: real IDX files (MNIST container
/// format) from data_dir when set, else the synthetic generator — with
/// identical downstream arithmetic (resize to the optical grid, then a
/// deterministic shuffled 80/20 train/test split).
struct DatasetStageOptions {
  data::SyntheticFamily family = data::SyntheticFamily::Digits;
  /// Directory holding train-images-idx3-ubyte / train-labels-idx1-ubyte /
  /// t10k-images-idx3-ubyte / t10k-labels-idx1-ubyte. Empty -> synthetic.
  std::string data_dir;
  std::size_t samples = 1200;  ///< synthetic total (split train/test)
  std::size_t grid = 48;       ///< optical grid side (resize target)
  std::uint64_t seed = 7;
};

/// Loads (IDX) or synthesizes the train/test datasets described by
/// `options`. Shared by DatasetStage and the CLI drivers so the pipeline
/// path and the pre-attached path produce byte-identical datasets.
std::pair<data::Dataset, data::Dataset> load_or_synthesize(
    const DatasetStageOptions& options);

/// Evaluation split only: with data_dir set this reads just the t10k IDX
/// pair (no 60k-image train load for eval-only workloads like
/// `odonn_cli robust model=`); the synthetic fallback matches
/// load_or_synthesize's test half exactly.
data::Dataset load_eval_set(const DatasetStageOptions& options);

/// Produces data.train / data.test (owned by the store). Replayed on
/// checkpoint resume: datasets are deliberately not part of checkpoints
/// (they can be gigabytes and are cheap to re-derive), so a resumed
/// pipeline re-runs this stage to repopulate the store.
class DatasetStage : public Stage {
 public:
  explicit DatasetStage(DatasetStageOptions options);
  std::string name() const override { return "data"; }
  std::vector<std::string> outputs() const override {
    return {"data.train", "data.test"};
  }
  bool has_side_effects() const override { return true; }  // see class doc
  void run(ArtifactStore& store) override;

 private:
  DatasetStageOptions options_;
};

/// Dense training. Creates model.main (seeded from options.seed) when the
/// store does not already hold one — so a checkpointed model can be trained
/// further — then runs epochs_dense at lr_dense.
class TrainStage : public Stage {
 public:
  TrainStage(train::RecipeOptions options, RegularizerFlags flags);
  std::string name() const override { return "train"; }
  std::vector<std::string> inputs() const override { return {"data.train"}; }
  std::vector<std::string> outputs() const override { return {"model.main"}; }
  void run(ArtifactStore& store) override;

 private:
  train::RecipeOptions options_;
  RegularizerFlags flags_;
};

/// Noise-in-the-loop robust-training options for RobustTrainStage (the
/// perturbation stack is kept as its textual spec, like RobustStageOptions,
/// so the stage stays copyable and descriptions printable).
struct RobustTrainStageOptions {
  std::string perturb;  ///< fab spec; empty -> fab::kDefaultPerturbationSpec
  std::size_t realizations = 2;  ///< K device samples per optimizer step
  bool antithetic = true;        ///< mirrored realization pairs
  bool per_epoch = false;        ///< resample per epoch instead of per batch
  /// Clean warm-up epochs before the noise-in-the-loop epochs (the stage's
  /// epochs_dense total is split warmup + robust). Noise-averaged
  /// gradients steer best near convergence — training from scratch under
  /// fabrication noise mostly slows learning — so the default (-1) warms
  /// up for all but the final quarter: max(1, epochs_dense/4) robust
  /// epochs.
  long warmup_epochs = -1;
  /// lr factor for the robust epochs: the noise-averaged surrogate wants
  /// smaller steps than clean dense training (same spirit as the recipe's
  /// lr_sparse fine-tune phases).
  double lr_scale = 0.1;
};

/// Robust dense training: like TrainStage, but every optimizer step
/// averages gradients over K fabrication realizations of the current
/// device (train::RobustTrainOptions), so the recipe optimizes the
/// EXPECTED fabricated accuracy rather than the clean one. The training
/// realizations skip the crosstalk emulation; RobustEvalStage deploys it.
/// Produces model.main plus metric.robust_train_realizations — the
/// sampled-realization counter, serialized via the store so
/// checkpoint-resumed continuation training draws the same stream an
/// uninterrupted run would.
class RobustTrainStage : public Stage {
 public:
  RobustTrainStage(train::RecipeOptions options, RegularizerFlags flags,
                   RobustTrainStageOptions robust);
  std::string name() const override { return "robust_train"; }
  std::vector<std::string> inputs() const override { return {"data.train"}; }
  std::vector<std::string> outputs() const override {
    return {"model.main", "metric.robust_train_realizations"};
  }
  void run(ArtifactStore& store) override;

 private:
  train::RecipeOptions options_;
  RegularizerFlags flags_;
  RobustTrainStageOptions robust_;
};

/// SLR block-sparsity training (§III-C2): penalty-coupled training epochs,
/// hard prune to the SLR support, then mask-frozen fine-tuning.
class SparsifyStage : public Stage {
 public:
  SparsifyStage(train::RecipeOptions options, RegularizerFlags flags);
  std::string name() const override { return "sparsify"; }
  std::vector<std::string> inputs() const override {
    return {"data.train", "model.main"};
  }
  std::vector<std::string> outputs() const override { return {"model.main"}; }
  void run(ArtifactStore& store) override;

 private:
  train::RecipeOptions options_;
  RegularizerFlags flags_;
};

/// 2*pi periodic roughness optimization (§III-D2). Produces model.smoothed
/// (inference-equivalent in the ideal simulation) and metric.roughness_after.
class SmoothTwoPiStage : public Stage {
 public:
  explicit SmoothTwoPiStage(train::RecipeOptions options);
  std::string name() const override { return "smooth"; }
  std::vector<std::string> inputs() const override { return {"model.main"}; }
  std::vector<std::string> outputs() const override {
    return {"model.smoothed", "metric.roughness_after"};
  }
  void run(ArtifactStore& store) override;

 private:
  train::RecipeOptions options_;
};

/// Clean + crosstalk-deployed test accuracy of model.main; when
/// model.smoothed exists, also its deployed accuracy (the paper's
/// "after 2*pi" deployment column).
class EvaluateStage : public Stage {
 public:
  explicit EvaluateStage(train::RecipeOptions options);
  std::string name() const override { return "eval"; }
  std::vector<std::string> inputs() const override {
    return {"data.test", "model.main"};
  }
  std::vector<std::string> outputs() const override {
    return {"metric.accuracy", "metric.deployed_accuracy"};
  }
  void run(ArtifactStore& store) override;

 private:
  train::RecipeOptions options_;
};

/// Monte-Carlo fabrication-robustness options for RobustEvalStage (the
/// perturbation stack is kept as its textual spec so the stage stays
/// copyable and checkpoint descriptions stay printable).
struct RobustStageOptions {
  std::string perturb;  ///< fab spec; empty -> fab::kDefaultPerturbationSpec
  std::size_t realizations = 16;
  double yield_threshold = 0.5;
  /// Antithetic realization pairs (MonteCarloOptions::antithetic). Off by
  /// default: plain streams keep report digests comparable with earlier
  /// runs; turn on for lower-variance means at equal R.
  bool antithetic = false;
};

/// Monte-Carlo robustness evaluation (src/fab): R perturbed realizations of
/// model.main (and model.smoothed when present) against data.test, under
/// the recipe's nominal crosstalk deployment. Produces the
/// metric.robust_* family; metrics checkpoint via the store, so a resumed
/// pipeline reproduces the identical report without re-simulating.
class RobustEvalStage : public Stage {
 public:
  RobustEvalStage(train::RecipeOptions options, RobustStageOptions robust);
  std::string name() const override { return "robust"; }
  std::vector<std::string> inputs() const override {
    return {"data.test", "model.main"};
  }
  std::vector<std::string> outputs() const override {
    return {"metric.robust_mean", "metric.robust_yield"};
  }
  void run(ArtifactStore& store) override;

 private:
  train::RecipeOptions options_;
  RobustStageOptions robust_;
};

/// Roughness metrics of the trained masks (R_overall before smoothing,
/// §IV-B) and the achieved sparsity ratio.
class ReportStage : public Stage {
 public:
  explicit ReportStage(train::RecipeOptions options);
  std::string name() const override { return "report"; }
  std::vector<std::string> inputs() const override { return {"model.main"}; }
  std::vector<std::string> outputs() const override {
    return {"metric.roughness_before", "metric.sparsity"};
  }
  void run(ArtifactStore& store) override;

 private:
  train::RecipeOptions options_;
};

/// Publishes model.main (as `<base_name>`) and, when present,
/// model.smoothed (as `<base_name>-smoothed`) into a serve::ModelRegistry,
/// handing training artifacts straight to the PR-1 inference engine. With a
/// non-empty save_dir every published entry is also checkpointed to
/// `<save_dir>/<published name>.odnn` via ModelRegistry::save, so the
/// on-disk artifact and the served snapshot share one serialization path.
class PublishStage : public Stage {
 public:
  PublishStage(std::shared_ptr<serve::ModelRegistry> registry,
               std::string base_name, std::string save_dir = "");
  std::string name() const override { return "publish"; }
  std::vector<std::string> inputs() const override { return {"model.main"}; }
  bool has_side_effects() const override { return true; }
  void run(ArtifactStore& store) override;

 private:
  std::shared_ptr<serve::ModelRegistry> registry_;
  std::string base_name_;
  std::string save_dir_;
};

}  // namespace odonn::pipeline
