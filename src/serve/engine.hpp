// InferenceEngine — asynchronous request queue in front of BatchedForward.
//
// Callers submit (model name, input field) pairs and get a std::future per
// request. A dedicated drain thread collects requests into batches, groups
// them by model, and evaluates each group with a cached, plan-reusing
// BatchedForward (rebuilt only when the registry entry for that name is
// replaced, so steady traffic pays the modulation-table setup once per
// published model, not per batch). Within a batch, sample-level parallelism
// comes from common/parallel inside infer_batch, capped by
// `inner_threads` when set (how a cluster replica pins its share of the
// shared pool).
//
// Two batching disciplines:
//   * window (default): once work is pending, the drain thread waits up to
//     `batch_window` for the queue to reach `max_batch` before running a
//     partial batch — maximizes batch size under bursty offered load;
//   * continuous (`continuous = true`): requests are admitted into the
//     next batch THE MOMENT the kernel frees up — whatever is queued when
//     a batch finishes forms the next batch immediately, and the window is
//     never waited out. A request arriving while batch k runs is served by
//     batch k+1. This is the in-flight batching discipline a replicated
//     serve cluster uses: the kernel never idles while work is queued.
//
// Admission control: the queue is bounded at `max_queue`. A submit that
// finds it full throws a typed OverloadError (retryable overload,
// distinguishable from real failures) and counts the rejection.
//
// Shutdown is a graceful drain: every ADMITTED request's future resolves
// before the worker exits; submissions after shutdown() throw.
//
// Failures stay per request: an unknown model, a malformed input or a
// throwing forward pass fails the affected futures, and any other throw
// once a batch has left the queue (the on_batch_start hook, building a
// model's forward pass) fails that batch's unanswered futures. Each is
// counted in stats().errors, and the drain thread keeps serving.
//
// Observability: stats() summarizes the engine's own latency and
// attribution windows (ServeStats, exposed through recorder() for the
// cluster merge). Global serve.* instruments are always recorded; a
// non-empty `label` additionally registers per-replica instruments
// (serve.<label>.queue_depth / requests / rejected / latency_ms /
// batch_size) so exports distinguish replicas by name suffix alone.
//
// Thread safety: submit()/stats()/pending() are safe from any thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "serve/batched_forward.hpp"
#include "serve/registry.hpp"
#include "serve/stats.hpp"

namespace odonn::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace odonn::obs

namespace odonn::serve {

struct EngineOptions {
  /// Largest batch handed to one BatchedForward call.
  std::size_t max_batch = 64;
  /// How long the drain thread waits for a partial batch to fill before
  /// running it anyway. Zero serves whatever is queued immediately.
  /// Ignored in continuous mode.
  std::chrono::microseconds batch_window{200};
  /// Admission bound: the deepest the request queue may grow. A submit
  /// that finds it full throws OverloadError.
  std::size_t max_queue = 1 << 16;
  /// Continuous (in-flight) batching: admit queued requests into the next
  /// batch the moment the kernel frees up instead of waiting out
  /// batch_window.
  bool continuous = false;
  /// Inner parallelism budget for batch evaluation (pool workers a batch's
  /// parallel_for may fan out to). 0 = unrestricted. Cluster replicas pin
  /// this to their share of the pool.
  std::size_t inner_threads = 0;
  /// Per-replica metrics label: non-empty registers
  /// serve.<label>.{queue_depth,requests,rejected,latency_ms,batch_size}.
  std::string label;
  /// Diagnostic/test hook, called on the drain thread with the batch size
  /// right after a batch is taken off the queue and before it runs. While
  /// it executes the kernel counts as busy: requests submitted from other
  /// threads during the call land in the NEXT batch (what the continuous
  /// admission test pins down).
  std::function<void(std::size_t)> on_batch_start;
};

/// Where a completed request's end-to-end latency went. All four figures
/// derive from one set of monotonic stamps taken as the request moved
/// through the engine (submit -> dequeue -> kernel launch -> done), so
/// queue_wait + batch_wait + compute equals total up to FP rounding of
/// the per-component conversions.
struct LatencyBreakdown {
  std::uint64_t request_id = 0;  ///< process-unique id, nonzero once served
  double queue_wait_s = 0.0;     ///< submit -> taken off the admission queue
  double batch_wait_s = 0.0;     ///< dequeue -> kernel launch (batch
                                 ///< formation, incl. the on_batch_start
                                 ///< hook)
  double compute_s = 0.0;        ///< kernel launch -> results ready
  double total_s = 0.0;          ///< submit -> response ready
};

struct PredictResult {
  std::size_t predicted = 0;            ///< argmax class
  std::vector<double> detector_sums;    ///< raw per-class intensity sums
  LatencyBreakdown latency;             ///< per-request attribution
};

class InferenceEngine {
 public:
  explicit InferenceEngine(std::shared_ptr<ModelRegistry> registry,
                           EngineOptions options = {});
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Enqueues one sample against the named registry model. The future
  /// resolves to the prediction, or to an exception (unknown model, grid
  /// mismatch). Throws OverloadError when the queue is at max_queue, Error
  /// when the engine is shut down.
  std::future<PredictResult> submit(const std::string& model_name,
                                    optics::Field input);

  /// Drains all queued requests, then stops the worker. Idempotent; called
  /// by the destructor.
  void shutdown();

  /// Requests queued but not yet drained into a batch.
  std::size_t pending() const;

  /// Requests accepted into the queue / rejected by admission control.
  std::uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

  const EngineOptions& options() const { return options_; }

  ServeStats::Snapshot stats() const { return stats_.snapshot(); }

  /// The recorder behind stats(). Its latency and attribution windows are
  /// what ServeCluster::stats() merges across replicas.
  const ServeStats& recorder() const { return stats_; }

  /// Clears counters and the latency window (e.g. between a warm-up phase
  /// and a measured run). In-flight requests keep completing normally.
  void reset_stats();

 private:
  struct Request {
    std::string model;
    optics::Field input;
    std::promise<PredictResult> promise;
    std::uint64_t id = 0;  ///< process-unique (shared across replicas)
    ServeStats::Clock::time_point enqueued;
    ServeStats::Clock::time_point dequeued;  ///< stamped once per batch
    bool answered = false;  ///< promise resolved (value or exception)
  };

  /// Per-replica labelled instruments (null when options_.label is empty
  /// or observability is compiled out). Registered once at construction;
  /// the registry guarantees node stability so raw pointers stay valid.
  struct LabelledMetrics {
    obs::Gauge* queue_depth = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Histogram* latency_ms = nullptr;
    obs::Histogram* batch_size = nullptr;
  };

  void drain_loop();
  /// Everything after a batch leaves the queue: the hook, grouping by
  /// model and run_group per group. drain_loop fails the still-unanswered
  /// requests with whatever this throws.
  void run_batch(std::vector<Request>& batch);
  void run_group(const std::string& model_name, std::vector<Request*> group);
  /// Fails one request with `error` and counts it in stats().errors.
  void fail_request(Request& request, std::exception_ptr error);
  void note_queue_depth(std::size_t depth);

  std::shared_ptr<ModelRegistry> registry_;
  EngineOptions options_;
  ServeStats stats_;
  LabelledMetrics labelled_;

  mutable Mutex mutex_;
  CondVar cv_;  ///< work available / stopping
  std::deque<Request> queue_ ODONN_GUARDED_BY(mutex_);
  bool stopping_ ODONN_GUARDED_BY(mutex_) = false;

  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};

  /// Drain-thread-only plan cache (no lock needed): name -> forward pass
  /// built against a specific published model snapshot.
  std::unordered_map<std::string, BatchedForward> plans_;

  std::thread worker_;
};

}  // namespace odonn::serve
