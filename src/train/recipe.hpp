// Experiment recipes reproducing the paper's model variants (§IV-B):
//   Baseline — plain DONN training ([5],[6],[8] row of Tables II-V)
//   Ours-A   — roughness-aware training (Eq. 5)
//   Ours-B   — SLR block sparsification
//   Ours-C   — sparsity + roughness
//   Ours-D   — sparsity + roughness + intra-block smoothness (Eq. 8)
// Every recipe reports test accuracy, R_overall before the 2*pi
// optimization, R_overall after it (§III-D2), and — as an extension — the
// accuracy under the interpixel-crosstalk deployment emulation.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "donn/model.hpp"
#include "smooth2pi/two_pi_opt.hpp"
#include "train/trainer.hpp"

namespace odonn::train {

enum class RecipeKind { Baseline, OursA, OursB, OursC, OursD };

const char* recipe_name(RecipeKind kind);
RecipeKind parse_recipe(const std::string& name);

struct RecipeOptions {
  donn::DonnConfig model = donn::DonnConfig::scaled(64);
  std::size_t epochs_dense = 3;     ///< paper: 50-150 depending on dataset
  std::size_t epochs_sparse = 2;    ///< SLR training epochs
  std::size_t epochs_finetune = 1;  ///< mask-frozen recovery epochs
  double lr_dense = 0.2;            ///< paper §IV-A2
  double lr_sparse = 0.001;         ///< paper §IV-A2
  std::size_t batch_size = 200;
  /// Regularization factors. Both regularizers are normalized per pixel /
  /// per block by the trainer, which makes p grid-size invariant: the
  /// paper's published p = 0.1 (Fig. 6c inflection) transfers directly.
  /// q is not directly comparable to the paper's scale (their long, large-
  /// batch training yields near-flat masks whose per-block variances are
  /// orders of magnitude below ours); 0.03 reproduces the Ours-D shape and
  /// the Fig. 6d sweep locates the inflection empirically.
  double roughness_p = 0.1;
  double intra_q = 0.03;
  roughness::RoughnessOptions roughness = {};
  roughness::IntraBlockOptions intra = {};
  slr::SlrOptions slr = {};         ///< scheme filled from this config
  sparsify::SchemeOptions scheme{sparsify::Scheme::Block, 0.1, 5, 3};
  smooth2pi::TwoPiOptions two_pi = {};
  donn::CrosstalkOptions crosstalk = {};
  std::uint64_t seed = 7;
  bool verbose = false;
};

struct RecipeResult {
  std::string name;
  double accuracy = 0.0;           ///< simulated test accuracy
  double roughness_before = 0.0;   ///< R_overall before 2*pi optimization
  double roughness_after = 0.0;    ///< R_overall after 2*pi optimization
  double deployed_accuracy = 0.0;  ///< accuracy under crosstalk emulation
  double deployed_accuracy_after_2pi = 0.0;
  double sparsity = 0.0;           ///< achieved zero fraction (0 if dense)
  double seconds = 0.0;            ///< wall-clock of this recipe's pipeline
  std::vector<MatrixD> trained_phases;   ///< per-layer masks after training
  std::vector<MatrixD> smoothed_phases;  ///< after the 2*pi optimization
};

/// One entry of a run_recipes batch: a recipe plus its (possibly swept)
/// options. `label` names checkpoint subdirectories and result rows;
/// empty defaults to recipe_name(kind).
struct RecipeRequest {
  RecipeKind kind = RecipeKind::Baseline;
  RecipeOptions options;
  std::string label;
};

/// One streamed stage event from a running table (mirrors
/// pipeline::StageProgressEvent without depending on pipeline headers —
/// the dependency arrow stays train <- pipeline).
struct TableProgress {
  std::string label;       ///< recipe row label
  std::size_t stage = 0;   ///< stage index within the recipe's pipeline
  std::string stage_name;
  bool finished = false;   ///< false = stage start, true = stage end
  double seconds = 0.0;    ///< valid when finished
  bool skipped = false;    ///< checkpoint fast-forward (valid when finished)
};

/// Invoked serially (never concurrently) as stages of any recipe start and
/// finish — live streaming, not buffered until the table returns.
using TableProgressSink = std::function<void(const TableProgress&)>;

/// How a batch of recipes (a table, a sweep) executes. Results are bitwise
/// identical for every jobs=: each recipe is deterministic over its own
/// ArtifactStore (pipeline::ParallelTableRunner contract), and each running
/// recipe gets an even share of the pool.
struct TableRunOptions {
  std::size_t jobs = 1;  ///< concurrent recipes (1 = sequential)
  /// When non-empty, each recipe checkpoints under `<dir>/<label>/` —
  /// independent subdirectories, so resume=true fast-forwards exactly the
  /// recipes that completed, even after a parallel run failed midway.
  std::string checkpoint_dir;
  bool resume = false;
  /// Streaming per-stage progress events (observability only: has no
  /// effect on results). May be empty.
  TableProgressSink progress;
};

/// Runs every requested recipe — concurrently when table.jobs > 1 — and
/// returns the results in request order.
std::vector<RecipeResult> run_recipes(const std::vector<RecipeRequest>& requests,
                                      const data::Dataset& train,
                                      const data::Dataset& test,
                                      const TableRunOptions& table = {});

/// Runs one recipe end to end on pre-resized train/test datasets.
/// Implemented as a thin composition over pipeline::Pipeline stages in
/// src/pipeline/recipe_runner.cpp (spec_for_recipe gives the per-recipe
/// stage list). Parity is guarded by pipeline-vs-pipeline comparisons in
/// tests/pipeline_test.cpp (the pre-pipeline monolithic oracle served its
/// purpose for three PRs and was removed).
RecipeResult run_recipe(RecipeKind kind, const RecipeOptions& options,
                        const data::Dataset& train, const data::Dataset& test);

/// Runs all five recipes (a full table) and returns the rows in paper
/// order. `table` controls parallelism/checkpointing; the default runs
/// sequentially, and any jobs= produces bitwise-identical rows.
std::vector<RecipeResult> run_table(const RecipeOptions& options,
                                    const data::Dataset& train,
                                    const data::Dataset& test,
                                    const TableRunOptions& table = {});

}  // namespace odonn::train
