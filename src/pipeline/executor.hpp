// ParallelTableRunner — concurrent execution of independent pipelines.
//
// A paper table (and the fig6 hyperparameter sweep) is N independent
// recipe pipelines over one shared read-only dataset pair. The runner
// executes them as parallel_tasks lanes on the shared pool: at most
// `jobs` pipelines in flight, each with an inner thread budget of an even
// share of the pool, so an M-recipe table on T threads neither
// oversubscribes (M pipelines each assuming T workers) nor serializes (a
// pipeline on a pool thread falling back to inline loops, the
// pre-nesting-aware behavior).
//
// Determinism contract: every job owns its ArtifactStore, pipelines only
// share immutable inputs (datasets attached by `setup`), and all shared
// caches (fft plans, encode snapshots) are order-independent — so results
// are BITWISE identical to the sequential jobs=1 path for any jobs= and
// any ODONN_THREADS (scripts/check.sh digests a jobs=1 vs jobs=4 table).
//
// Failure: the lowest-index job's exception is rethrown after in-flight
// jobs finish; jobs not yet started are abandoned. Completed jobs that
// were checkpointing keep their checkpoints, so a rerun with resume=true
// fast-forwards them (tests/executor_test.cpp).
//
// Streaming progress: ExecutorOptions::progress receives one event at
// every stage start and end of every job AS IT HAPPENS (not buffered until
// the table returns). Events from concurrent jobs are serialized through
// an internal mutex, so the sink itself need not be thread-safe; ordering
// across jobs is scheduling-dependent, ordering within a job is the stage
// order. Installing a progress sink overwrites any observer previously
// set on the job pipelines (the runner implements streaming through the
// same observer slot).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"

namespace odonn::pipeline {

/// One streamed stage event from a running table. `finished == false` is
/// a stage start (seconds/skipped not yet meaningful); `finished == true`
/// carries the stage's StageTiming fields.
struct StageProgressEvent {
  std::size_t job = 0;      ///< index into the submitted job vector
  std::string label;        ///< PipelineJob::label
  std::size_t stage = 0;    ///< stage index within the job's pipeline
  std::string stage_name;
  bool finished = false;
  double seconds = 0.0;     ///< valid when finished
  bool skipped = false;     ///< valid when finished
};

/// Called under the runner's progress mutex — events never interleave,
/// but the sink should stay cheap (it blocks that job's next stage).
using ProgressSink = std::function<void(const StageProgressEvent&)>;

struct ExecutorOptions {
  /// Max pipelines in flight. 1 = the sequential reference path (runs on
  /// the caller, full pool budget per job — exactly the classic loop).
  std::size_t jobs = 1;
  /// Streaming per-stage progress (see header comment). May be empty.
  ProgressSink progress;
};

struct PipelineJob {
  std::string label;
  Pipeline pipeline;
  RunOptions run_options;
  /// Runs before the pipeline, on the job's own store — attach shared
  /// datasets, seed models, etc. May be empty.
  std::function<void(ArtifactStore&)> setup;
};

struct JobResult {
  std::string label;
  ArtifactStore store;
  std::vector<StageTiming> timings;
  double seconds = 0.0;  ///< wall-clock of this job (setup + pipeline)
};

class ParallelTableRunner {
 public:
  explicit ParallelTableRunner(ExecutorOptions options = {});

  /// Executes every job and returns their results in job order.
  std::vector<JobResult> run(std::vector<PipelineJob> jobs) const;

 private:
  ExecutorOptions options_;
};

}  // namespace odonn::pipeline
