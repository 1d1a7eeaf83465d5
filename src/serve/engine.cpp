#include "serve/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"

namespace odonn::serve {

namespace {

/// Process-wide request id source. Starts at 1 so an id of 0 always means
/// "never served" (span exports key off nonzero ids); shared across every
/// engine so cluster replicas never collide.
std::atomic<std::uint64_t> g_next_request_id{1};

bool all_finite(const MatrixC& values) {
  for (const auto& v : values) {
    if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) return false;
  }
  return true;
}

}  // namespace

InferenceEngine::InferenceEngine(std::shared_ptr<ModelRegistry> registry,
                                 EngineOptions options)
    : registry_(std::move(registry)), options_(std::move(options)) {
  ODONN_CHECK(registry_ != nullptr, "engine: null registry");
  ODONN_CHECK(options_.max_batch >= 1, "engine: max_batch must be >= 1");
  ODONN_CHECK(options_.max_queue >= 1, "engine: max_queue must be >= 1");
#ifndef ODONN_OBS_DISABLE
  if (!options_.label.empty()) {
    // Per-replica suffix convention: serve.<label>.<instrument>, so the
    // JSON/Prometheus exports distinguish replicas without any new
    // registry API (odonn_serve_replica0_queue_depth and friends).
    auto& registry_obs = obs::MetricsRegistry::global();
    const std::string prefix = "serve." + options_.label + ".";
    labelled_.queue_depth = &registry_obs.gauge(prefix + "queue_depth");
    labelled_.requests = &registry_obs.counter(prefix + "requests");
    labelled_.rejected = &registry_obs.counter(prefix + "rejected");
    labelled_.latency_ms = &registry_obs.histogram(prefix + "latency_ms");
    labelled_.batch_size = &registry_obs.histogram(prefix + "batch_size");
  }
#endif
  worker_ = std::thread([this] { drain_loop(); });
}

InferenceEngine::~InferenceEngine() { shutdown(); }

void InferenceEngine::note_queue_depth(std::size_t depth) {
  ODONN_OBS_GAUGE_SET("serve.queue_depth", depth);
  if (labelled_.queue_depth != nullptr) {
    labelled_.queue_depth->set(static_cast<std::int64_t>(depth));
  }
}

std::future<PredictResult> InferenceEngine::submit(
    const std::string& model_name, optics::Field input) {
  Request request;
  request.model = model_name;
  request.input = std::move(input);
  request.id = g_next_request_id.fetch_add(1, std::memory_order_relaxed);
  request.enqueued = ServeStats::Clock::now();
  std::future<PredictResult> future = request.promise.get_future();
  {
    MutexLock lock(mutex_);
    if (stopping_) throw Error("engine: submit after shutdown");
    if (queue_.size() >= options_.max_queue) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      ODONN_OBS_COUNT("serve.rejected", 1);
      if (labelled_.rejected != nullptr) labelled_.rejected->add(1);
      throw OverloadError("engine: request queue full (depth " +
                          std::to_string(options_.max_queue) +
                          "); retry later or raise the queue depth");
    }
    queue_.push_back(std::move(request));
    admitted_.fetch_add(1, std::memory_order_relaxed);
    ODONN_OBS_COUNT("serve.admitted", 1);
    note_queue_depth(queue_.size());
  }
  cv_.notify_one();
  return future;
}

void InferenceEngine::shutdown() {
  {
    MutexLock lock(mutex_);
    if (stopping_ && !worker_.joinable()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

std::size_t InferenceEngine::pending() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

void InferenceEngine::reset_stats() {
  stats_.reset();
  admitted_.store(0, std::memory_order_relaxed);
  rejected_.store(0, std::memory_order_relaxed);
}

void InferenceEngine::drain_loop() {
  // Pin this replica's share of the shared pool for every batch the drain
  // thread evaluates (0 = unrestricted, the single-engine default).
  ScopedThreadBudget budget(options_.inner_threads);
  for (;;) {
    std::vector<Request> batch;
    {
      MutexLock lock(mutex_);
      cv_.wait(mutex_, [this]() ODONN_REQUIRES(mutex_) {
        return stopping_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopping, fully drained

      // Window mode: once work is pending, give co-submitted traffic a
      // short chance to fill the batch — unless we are shutting down, in
      // which case drain as fast as possible. Continuous mode never waits:
      // the kernel just freed up (or the engine was idle), so whatever is
      // queued right now forms the next batch immediately.
      if (!options_.continuous && !stopping_ &&
          queue_.size() < options_.max_batch &&
          options_.batch_window.count() > 0) {
        cv_.wait_for(mutex_, options_.batch_window,
                     [this]() ODONN_REQUIRES(mutex_) {
                       return stopping_ || queue_.size() >= options_.max_batch;
                     });
      }

      const std::size_t take = std::min(queue_.size(), options_.max_batch);
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      note_queue_depth(queue_.size());
    }

    // One dequeue stamp for the whole batch: every member left the queue
    // at the same drain, and a single clock read keeps attribution cheap.
    // Taken BEFORE on_batch_start so hook time lands in batch_wait.
    const ServeStats::Clock::time_point dequeued = ServeStats::Clock::now();
    for (Request& request : batch) request.dequeued = dequeued;

    try {
      run_batch(batch);
    } catch (...) {
      // Whatever threw once the batch left the queue (the hook, building a
      // model's forward pass, a result vector) fails the requests still
      // waiting on it; the drain thread lives on to serve the next batch.
      const std::exception_ptr error = std::current_exception();
      for (Request& request : batch) {
        if (!request.answered) fail_request(request, error);
      }
    }
  }
}

void InferenceEngine::run_batch(std::vector<Request>& batch) {
  if (options_.on_batch_start) options_.on_batch_start(batch.size());

  // Group by model, preserving submission order within each group.
  std::vector<std::pair<std::string, std::vector<Request*>>> groups;
  for (Request& request : batch) {
    auto it = std::find_if(groups.begin(), groups.end(), [&](const auto& g) {
      return g.first == request.model;
    });
    if (it == groups.end()) {
      groups.emplace_back(request.model, std::vector<Request*>{});
      it = std::prev(groups.end());
    }
    it->second.push_back(&request);
  }
  for (auto& [name, group] : groups) {
    run_group(name, std::move(group));
  }

  // Drop plan-cache entries whose registry name is gone, so erased or
  // superseded snapshots (masks, modulation tables) don't stay resident
  // for the engine's whole lifetime.
  for (auto it = plans_.begin(); it != plans_.end();) {
    if (registry_->find(it->first) == nullptr) {
      it = plans_.erase(it);
    } else {
      ++it;
    }
  }
}

void InferenceEngine::fail_request(Request& request,
                                   std::exception_ptr error) {
  stats_.record_error();
  request.answered = true;
  request.promise.set_exception(std::move(error));
}

void InferenceEngine::run_group(const std::string& model_name,
                                std::vector<Request*> group) {
  const auto fail = [&](std::exception_ptr error) {
    for (Request* request : group) fail_request(*request, error);
  };

  std::shared_ptr<const donn::DonnModel> model = registry_->find(model_name);
  if (!model) {
    fail(std::make_exception_ptr(
        ConfigError("registry: unknown model '" + model_name + "'")));
    return;
  }

  // Plan reuse: rebuild the forward pass only when the registry published a
  // new snapshot under this name.
  auto it = plans_.find(model_name);
  if (it == plans_.end() || it->second.model_ptr() != model) {
    it = plans_.insert_or_assign(model_name, BatchedForward(model)).first;
  }
  const BatchedForward& forward = it->second;

  // Reject malformed requests individually before batching, so one bad
  // input cannot poison the co-batched valid ones. Non-finite samples are
  // refused here because the lane kernels' bitwise contract covers finite
  // inputs only (fft/fft_plan.hpp).
  std::vector<Request*> valid;
  valid.reserve(group.size());
  for (Request* request : group) {
    std::exception_ptr error;
    if (request->input.grid() != model->config().grid) {
      error = std::make_exception_ptr(ShapeError(
          "engine: input grid does not match model '" + model_name + "'"));
    } else if (!all_finite(request->input.values())) {
      error = std::make_exception_ptr(NumericsError(
          "engine: input holds a non-finite value (model '" + model_name +
          "')"));
    }
    if (error) {
      fail_request(*request, error);
    } else {
      valid.push_back(request);
    }
  }
  group = std::move(valid);
  if (group.empty()) return;

  std::vector<optics::Field> inputs;
  inputs.reserve(group.size());
  for (Request* request : group) inputs.push_back(std::move(request->input));

  const ServeStats::Clock::time_point kernel_start = ServeStats::Clock::now();
  BatchedForward::Result result;
  try {
    result = forward.run(inputs);
  } catch (...) {
    fail(std::current_exception());
    return;
  }

  stats_.record_batch(group.size());
  if (labelled_.batch_size != nullptr) {
    labelled_.batch_size->observe(static_cast<double>(group.size()));
  }
  const ServeStats::Clock::time_point done = ServeStats::Clock::now();
  const auto seconds = [](ServeStats::Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  };
  const auto micros = [](ServeStats::Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  };
  const bool tracing = obs::tracing_enabled();
  for (std::size_t i = 0; i < group.size(); ++i) {
    Request& request = *group[i];
    PredictResult prediction;
    prediction.predicted = result.predictions[i];
    prediction.detector_sums = std::move(result.detector_sums[i]);
    // All four figures come from the same stamps, so the components sum
    // to the total up to per-component FP rounding.
    Attribution attr;
    attr.queue_wait_s = seconds(request.dequeued - request.enqueued);
    attr.batch_wait_s = seconds(kernel_start - request.dequeued);
    attr.compute_s = seconds(done - kernel_start);
    const double latency = seconds(done - request.enqueued);
    prediction.latency.request_id = request.id;
    prediction.latency.queue_wait_s = attr.queue_wait_s;
    prediction.latency.batch_wait_s = attr.batch_wait_s;
    prediction.latency.compute_s = attr.compute_s;
    prediction.latency.total_s = latency;
    stats_.record_request(latency, attr);
    if (labelled_.requests != nullptr) labelled_.requests->add(1);
    if (labelled_.latency_ms != nullptr) {
      labelled_.latency_ms->observe(latency * 1e3);
    }
    if (tracing) {
      // Four spans linked by request_id: the request envelope plus one
      // child per attribution component, so a Chrome-trace viewer shows
      // exactly where each request's latency went.
      const std::int64_t t_enq = obs::trace_timestamp_us(request.enqueued);
      const std::int64_t t_deq = obs::trace_timestamp_us(request.dequeued);
      const std::int64_t t_kernel = obs::trace_timestamp_us(kernel_start);
      obs::record_span("request", t_enq, micros(done - request.enqueued), 1,
                       request.id);
      obs::record_span("request/queue_wait", t_enq,
                       micros(request.dequeued - request.enqueued), 2,
                       request.id);
      obs::record_span("request/batch_wait", t_deq,
                       micros(kernel_start - request.dequeued), 2, request.id);
      obs::record_span("request/compute", t_kernel, micros(done - kernel_start),
                       2, request.id);
    }
    request.answered = true;
    request.promise.set_value(std::move(prediction));
  }
}

}  // namespace odonn::serve
