// Pipeline-backed definitions of train::run_recipe / run_recipes /
// run_table.
//
// They live here (not in src/train/) so the dependency arrow stays
// one-way: pipeline composes train's Trainer/options, train never depends
// on pipeline or serve headers. The declarations remain in
// train/recipe.hpp — callers are unaffected.
#include <chrono>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/thread_annotations.hpp"
#include "obs/obs.hpp"
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
  return run_recipes({RecipeRequest{kind, options, ""}}, train, test).front();
}

std::vector<RecipeResult> run_recipes(const std::vector<RecipeRequest>& requests,
                                      const data::Dataset& train,
                                      const data::Dataset& test,
                                      const TableRunOptions& table) {
  using Clock = std::chrono::steady_clock;
  ODONN_CHECK(table.jobs >= 1, "run_recipes: jobs must be >= 1");

  // One mutex serializes every progress event across the concurrent
  // recipes, so the caller's sink need not be thread-safe.
  Mutex progress_mutex;
  TableProgressSink progress;
  if (table.progress) {
    progress = [&table, &progress_mutex](const TableProgress& event) {
      ODONN_OBS_COUNT("pipeline.progress_events", 1);
      MutexLock lock(progress_mutex);
      table.progress(event);
    };
  }

  // Every recipe owns its pipeline and ArtifactStore; they share only the
  // immutable datasets, which is why any jobs= gives the same bits. All
  // pipelines are built before any lane starts, so a bad request fails
  // before any compute.
  std::vector<pl::Pipeline> pipelines;
  pipelines.reserve(requests.size());
  for (const RecipeRequest& request : requests) {
    pipelines.push_back(pl::build_pipeline(pl::spec_for_recipe(request.kind),
                                           request.options));
  }

  std::vector<RecipeResult> rows(requests.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    tasks.push_back([&, i] {
      pl::RunOptions run;
      run.trace_label = requests[i].label.empty()
                            ? recipe_name(requests[i].kind)
                            : requests[i].label;
      run.progress = progress;
      ODONN_OBS_SPAN(job_span, "job:" + run.trace_label);
      const Clock::time_point t0 = Clock::now();
      pl::ArtifactStore store;
      store.set_data(&train, &test);
      pipelines[i].run(store, run);
      const double seconds =
          std::chrono::duration<double>(Clock::now() - t0).count();
      rows[i] = result_from_store(run.trace_label, store);
      rows[i].seconds = seconds;
      ODONN_OBS_COUNT("pipeline.jobs_run", 1);
    });
  }
  parallel_tasks(std::move(tasks), table.jobs);

  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (requests[i].options.verbose) {
      log::info() << rows[i].name << ": acc " << rows[i].accuracy
                  << " R_before " << rows[i].roughness_before << " R_after "
                  << rows[i].roughness_after;
    }
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
