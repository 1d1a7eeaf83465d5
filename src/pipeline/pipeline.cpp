#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace odonn::pipeline {

namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

/// Trace-span name for one stage run: "stage:<label>/<name>" when the run
/// is labelled.
std::string span_name(const RunOptions& options, const std::string& stage) {
  if (options.trace_label.empty()) return "stage:" + stage;
  return "stage:" + options.trace_label + "/" + stage;
}

// A checkpoint directory counts as complete only once its marker exists;
// the marker is written last, so a crash mid-save is never resumed from.
bool checkpoint_complete(const std::string& dir) {
  return fs::exists(fs::path(dir) / "done");
}

void write_marker(const std::string& dir) {
  const std::string path = (fs::path(dir) / "done").string();
  std::ofstream out(path);
  if (!out) throw IoError("cannot create checkpoint marker " + path);
}

}  // namespace

Pipeline& Pipeline::add(std::unique_ptr<Stage> stage) {
  ODONN_CHECK(stage != nullptr, "pipeline: stage must be non-null");
  stages_.push_back(std::move(stage));
  return *this;
}

void Pipeline::validate(const ArtifactStore& store) const {
  ODONN_CHECK(!stages_.empty(), "pipeline: no stages configured");
  std::vector<std::string> produced;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const Stage& stage = *stages_[i];
    const std::vector<std::string> outputs = stage.outputs();
    for (std::size_t a = 0; a < outputs.size(); ++a) {
      for (std::size_t b = a + 1; b < outputs.size(); ++b) {
        if (outputs[a] == outputs[b]) {
          throw ConfigError("pipeline: stage #" + std::to_string(i + 1) +
                            " '" + stage.name() + "' declares output '" +
                            outputs[a] + "' more than once");
        }
      }
    }
    for (const std::string& key : stage.inputs()) {
      const bool from_store = store.has_key(key);
      const bool from_stage =
          std::find(produced.begin(), produced.end(), key) != produced.end();
      if (!from_store && !from_stage) {
        throw ConfigError("pipeline: stage #" + std::to_string(i + 1) + " '" +
                          stage.name() + "' needs artifact '" + key +
                          "' which no earlier stage produces");
      }
    }
    for (const std::string& key : outputs) produced.push_back(key);
  }
}

std::string Pipeline::checkpoint_path(const std::string& dir,
                                      std::size_t index) const {
  return (fs::path(dir) /
          (std::to_string(index) + "_" + stages_[index]->name()))
      .string();
}

std::vector<train::TableProgress> Pipeline::run(ArtifactStore& store,
                                                const RunOptions& options) {
  validate(store);
  ODONN_CHECK(!options.resume || !options.checkpoint_dir.empty(),
              "pipeline: resume requires a checkpoint_dir");

  // Fast-forward past the latest complete checkpoint of this stage list.
  std::size_t start = 0;
  if (options.resume) {
    for (std::size_t i = stages_.size(); i-- > 0;) {
      const std::string dir = checkpoint_path(options.checkpoint_dir, i);
      if (checkpoint_complete(dir)) {
        store.load_checkpoint(dir);
        start = i + 1;
        break;
      }
    }
  }

  std::vector<train::TableProgress> finished;
  finished.reserve(stages_.size());
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    Stage& stage = *stages_[i];
    train::TableProgress event;
    event.label = options.trace_label;
    event.stage = i;
    event.stage_name = stage.name();
    // A restored stage is skipped unless it has external effects (registry
    // publishes, artifact exports): checkpoints cannot capture those, so it
    // replays against the restored store and a resumed run is equivalent
    // to an uninterrupted one.
    event.skipped = i < start && !stage.has_side_effects();
    if (!event.skipped) {
      if (options.progress) options.progress(event);
      const Clock::time_point t0 = Clock::now();
      {
        ODONN_OBS_SPAN(stage_span, span_name(options, stage.name()));
        stage.run(store);
      }
      ODONN_OBS_COUNT("pipeline.stages_run", 1);
      event.seconds =
          std::chrono::duration<double>(Clock::now() - t0).count();
    }
    if (i >= start && !options.checkpoint_dir.empty()) {
      const std::string dir = checkpoint_path(options.checkpoint_dir, i);
      // Clear any previous run's checkpoint first: its 'done' marker (and
      // stale artifact files) must never survive into a partial overwrite.
      std::filesystem::remove_all(dir);
      store.save_checkpoint(dir);
      write_marker(dir);
    }
    event.finished = true;
    if (options.progress) options.progress(event);
    finished.push_back(std::move(event));
  }
  return finished;
}

}  // namespace odonn::pipeline
