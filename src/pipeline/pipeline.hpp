// Pipeline — ordered stage execution over one ArtifactStore.
//
// Features on top of "call run() in a loop":
//   * validate(): checks every stage's declared inputs are satisfiable from
//     the store's initial contents plus earlier stages' declared outputs,
//     before any compute runs (a bad `pipeline=` string fails in
//     milliseconds, not after an hour of training);
//   * progress: one train::TableProgress event at every stage start and
//     end, with wall-clock timing, through RunOptions::progress;
//   * checkpointing: with a checkpoint directory set, the full store is
//     persisted after every stage (donn/serialize for models), and
//     resume=true fast-forwards past the longest prefix of stages whose
//     checkpoints are already on disk — except stages with external side
//     effects (Stage::has_side_effects, e.g. publish), which are replayed
//     against the restored store since checkpoints cannot capture them.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pipeline/artifact_store.hpp"
#include "pipeline/stage.hpp"
#include "train/recipe.hpp"

namespace odonn::pipeline {

struct RunOptions {
  /// When non-empty, the store is checkpointed to
  /// `<dir>/<index>_<stage name>/` after each stage completes.
  std::string checkpoint_dir;
  /// Resume from the latest complete checkpoint that matches this
  /// pipeline's stage sequence (requires checkpoint_dir).
  bool resume = false;
  /// Observability only: names the run. Per-stage trace spans are named
  /// "stage:<trace_label>/<stage name>" when set ("stage:<stage name>"
  /// otherwise), and every progress event carries it as its label.
  /// run_recipes sets the recipe row label, so spans and events from
  /// concurrent recipes stay attributable.
  std::string trace_label;
  /// Receives one event at each stage start and end, on the thread that
  /// runs the pipeline, as it happens. May be empty.
  train::TableProgressSink progress;
};

class Pipeline {
 public:
  Pipeline() = default;
  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  Pipeline& add(std::unique_ptr<Stage> stage);

  std::size_t size() const { return stages_.size(); }
  const Stage& stage(std::size_t index) const { return *stages_.at(index); }

  /// Throws ConfigError naming the first stage whose declared inputs cannot
  /// be satisfied by `store` plus the outputs of preceding stages.
  void validate(const ArtifactStore& store) const;

  /// Validates, then runs every stage in order. Returns each stage's
  /// finished event (skipped=true for checkpoint-satisfied stages).
  std::vector<train::TableProgress> run(ArtifactStore& store,
                                        const RunOptions& options = {});

 private:
  std::string checkpoint_path(const std::string& dir, std::size_t index) const;

  std::vector<std::unique_ptr<Stage>> stages_;
};

}  // namespace odonn::pipeline
