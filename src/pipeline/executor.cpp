#include "pipeline/executor.hpp"

#include <chrono>
#include <memory>
#include "common/thread_annotations.hpp"
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace odonn::pipeline {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

ParallelTableRunner::ParallelTableRunner(ExecutorOptions options)
    : options_(std::move(options)) {
  ODONN_CHECK(options_.jobs >= 1, "executor: jobs must be >= 1");
}

std::vector<JobResult> ParallelTableRunner::run(
    std::vector<PipelineJob> jobs) const {
  std::vector<JobResult> results(jobs.size());
  // One mutex serializes every progress callback across all concurrent
  // jobs, so the sink itself need not be thread-safe and events never
  // interleave inside it.
  const auto progress_mutex = std::make_shared<Mutex>();
  std::vector<std::function<void()>> tasks;
  tasks.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    PipelineJob& job = jobs[i];
    // Attribute stage trace spans to this job unless the caller already
    // chose a label (observability only — never feeds back into the run).
    if (job.run_options.trace_label.empty()) {
      job.run_options.trace_label = job.label;
    }
    if (options_.progress) {
      // Streaming progress rides the pipeline observer slot: stage events
      // escape the job live instead of waiting for the table to return.
      PipelineObserver observer;
      observer.on_stage_start = [this, progress_mutex, &jobs, i](
                                    std::size_t index, const Stage& stage) {
        StageProgressEvent event;
        event.job = i;
        event.label = jobs[i].label;
        event.stage = index;
        event.stage_name = stage.name();
        event.finished = false;
        ODONN_OBS_COUNT("pipeline.progress_events", 1);
        MutexLock lock(*progress_mutex);
        options_.progress(event);
      };
      observer.on_stage_end = [this, progress_mutex, &jobs, i](
                                  const StageTiming& timing) {
        StageProgressEvent event;
        event.job = i;
        event.label = jobs[i].label;
        event.stage = timing.index;
        event.stage_name = timing.name;
        event.finished = true;
        event.seconds = timing.seconds;
        event.skipped = timing.skipped;
        ODONN_OBS_COUNT("pipeline.progress_events", 1);
        MutexLock lock(*progress_mutex);
        options_.progress(event);
      };
      job.pipeline.set_observer(std::move(observer));
    }
    tasks.push_back([&jobs, &results, i] {
      PipelineJob& task_job = jobs[i];
      JobResult& result = results[i];
      result.label = task_job.label;
      ODONN_OBS_SPAN(job_span, "job:" + task_job.label);
      const Clock::time_point t0 = Clock::now();
      if (task_job.setup) task_job.setup(result.store);
      result.timings = task_job.pipeline.run(result.store,
                                             task_job.run_options);
      result.seconds =
          std::chrono::duration<double>(Clock::now() - t0).count();
      ODONN_OBS_COUNT("pipeline.jobs_run", 1);
    });
  }
  parallel_tasks(std::move(tasks), options_.jobs);
  return results;
}

}  // namespace odonn::pipeline
