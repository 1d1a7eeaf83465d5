// Pipeline-backed definitions of train::run_recipe / run_recipes /
// run_table.
//
// They live here (not in src/train/) so the dependency arrow stays
// one-way: pipeline composes train's Trainer/options, train never depends
// on pipeline or serve headers. The declarations remain in
// train/recipe.hpp — callers are unaffected.
//
// run_recipes executes the requested recipes through a
// pipeline::ParallelTableRunner: independent pipelines, each over its own
// ArtifactStore sharing only the immutable datasets, optionally jobs= at
// a time on the shared pool. Recipes are deterministic given their
// options, so the rows are bitwise identical to the sequential path for
// any jobs=/thread-count combination.
#include <chrono>
#include <filesystem>

#include "common/error.hpp"
#include "common/log.hpp"
#include "pipeline/executor.hpp"
#include "pipeline/parser.hpp"
#include "train/recipe.hpp"

namespace odonn::train {

namespace {

namespace pl = odonn::pipeline;

RecipeResult result_from_store(const std::string& name,
                               const pl::ArtifactStore& store) {
  RecipeResult result;
  result.name = name;
  result.accuracy = store.metric(pl::artifacts::kAccuracy);
  result.roughness_before = store.metric(pl::artifacts::kRoughnessBefore);
  result.roughness_after = store.metric(pl::artifacts::kRoughnessAfter);
  result.deployed_accuracy = store.metric(pl::artifacts::kDeployedAccuracy);
  result.deployed_accuracy_after_2pi =
      store.metric(pl::artifacts::kDeployedAccuracyAfter2Pi);
  result.sparsity = store.metric(pl::artifacts::kSparsity);
  result.trained_phases = store.model(pl::artifacts::kMainModel).phases();
  result.smoothed_phases = store.model(pl::artifacts::kSmoothedModel).phases();
  return result;
}

}  // namespace

RecipeResult run_recipe(RecipeKind kind, const RecipeOptions& options,
                        const data::Dataset& train,
                        const data::Dataset& test) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  pl::ArtifactStore store;
  store.set_data(&train, &test);
  pl::Pipeline pipe = pl::build_pipeline(pl::spec_for_recipe(kind), options);
  pipe.run(store);

  RecipeResult result = result_from_store(recipe_name(kind), store);
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  if (options.verbose) {
    log::info() << result.name << ": acc " << result.accuracy << " R_before "
                << result.roughness_before << " R_after "
                << result.roughness_after;
  }
  return result;
}

std::vector<RecipeResult> run_recipes(const std::vector<RecipeRequest>& requests,
                                      const data::Dataset& train,
                                      const data::Dataset& test,
                                      const TableRunOptions& table) {
  std::vector<pl::PipelineJob> jobs;
  jobs.reserve(requests.size());
  for (const RecipeRequest& request : requests) {
    pl::PipelineJob job;
    job.label = request.label.empty() ? recipe_name(request.kind)
                                      : request.label;
    if (!table.checkpoint_dir.empty()) {
      // Labels name the per-recipe checkpoint subdirectories: a duplicate
      // would interleave two jobs' checkpoints in one directory (and let
      // resume= fast-forward one request from the other's artifacts).
      for (const pl::PipelineJob& earlier : jobs) {
        if (earlier.label == job.label) {
          throw ConfigError(
              "run_recipes: duplicate recipe label '" + job.label +
              "' with checkpoint_dir set; give each request a unique label");
        }
      }
    }
    job.pipeline = pl::build_pipeline(pl::spec_for_recipe(request.kind),
                                      request.options);
    if (!table.checkpoint_dir.empty()) {
      job.run_options.checkpoint_dir =
          (std::filesystem::path(table.checkpoint_dir) / job.label).string();
      job.run_options.resume = table.resume;
    }
    job.setup = [&train, &test](pl::ArtifactStore& store) {
      store.set_data(&train, &test);
    };
    jobs.push_back(std::move(job));
  }

  pl::ExecutorOptions executor;
  executor.jobs = table.jobs;
  if (table.progress) {
    // Adapt the train-layer sink to the executor's event type (the two
    // structs mirror each other; train must not include pipeline headers).
    executor.progress = [&table](const pl::StageProgressEvent& event) {
      TableProgress progress;
      progress.label = event.label;
      progress.stage = event.stage;
      progress.stage_name = event.stage_name;
      progress.finished = event.finished;
      progress.seconds = event.seconds;
      progress.skipped = event.skipped;
      table.progress(progress);
    };
  }
  auto job_results = pl::ParallelTableRunner(executor).run(std::move(jobs));

  std::vector<RecipeResult> rows;
  rows.reserve(job_results.size());
  for (std::size_t i = 0; i < job_results.size(); ++i) {
    RecipeResult row = result_from_store(job_results[i].label,
                                         job_results[i].store);
    row.seconds = job_results[i].seconds;
    if (requests[i].options.verbose) {
      log::info() << row.name << ": acc " << row.accuracy << " R_before "
                  << row.roughness_before << " R_after "
                  << row.roughness_after;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<RecipeResult> run_table(const RecipeOptions& options,
                                    const data::Dataset& train,
                                    const data::Dataset& test,
                                    const TableRunOptions& table) {
  std::vector<RecipeRequest> requests;
  for (RecipeKind kind : {RecipeKind::Baseline, RecipeKind::OursA,
                          RecipeKind::OursB, RecipeKind::OursC,
                          RecipeKind::OursD}) {
    requests.push_back(RecipeRequest{kind, options, ""});
  }
  return run_recipes(requests, train, test, table);
}

}  // namespace odonn::train
