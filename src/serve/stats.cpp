#include "serve/stats.hpp"

#include "obs/obs.hpp"

namespace odonn::serve {

void ServeStats::record_request(double latency_seconds,
                                const Attribution& attr) {
  const double latency_ms = latency_seconds * 1e3;
  const double queue_wait_ms = attr.queue_wait_s * 1e3;
  const double batch_wait_ms = attr.batch_wait_s * 1e3;
  const double compute_ms = attr.compute_s * 1e3;
  ODONN_OBS_COUNT("serve.requests", 1);
  ODONN_OBS_HIST("serve.latency_ms", latency_ms);
  ODONN_OBS_HIST("serve.attr.queue_wait_ms", queue_wait_ms);
  ODONN_OBS_HIST("serve.attr.batch_wait_ms", batch_wait_ms);
  ODONN_OBS_HIST("serve.attr.compute_ms", compute_ms);
  const Clock::time_point now = Clock::now();
  {
    MutexLock lock(mutex_);
    if (!have_first_) {
      have_first_ = true;
      first_done_ = now;
    }
    last_done_ = now;
  }
  // Observed after the completion stamp, and snapshot() reads the latency
  // window before the stamps: every request a snapshot counts lies inside
  // its first-to-last completion span.
  latency_ms_.observe(latency_ms);
  queue_wait_ms_.observe(queue_wait_ms);
  batch_wait_ms_.observe(batch_wait_ms);
  compute_ms_.observe(compute_ms);
}

void ServeStats::record_batch(std::size_t size) {
  ODONN_OBS_COUNT("serve.batches", 1);
  ODONN_OBS_HIST("serve.batch_size", size);
  MutexLock lock(mutex_);
  ++batches_;
  batched_samples_ += size;
}

void ServeStats::record_error() {
  ODONN_OBS_COUNT("serve.errors", 1);
  MutexLock lock(mutex_);
  ++errors_;
}

ServeStats::Snapshot ServeStats::snapshot() const {
  const obs::Histogram::Snapshot latency = latency_ms_.snapshot();
  Snapshot snap;
  snap.requests = latency.count;
  snap.p50_ms = latency.p50;
  snap.p90_ms = latency.p90;
  snap.p99_ms = latency.p99;
  snap.p999_ms = latency.p999;
  snap.max_ms = latency.max;
  {
    MutexLock lock(mutex_);
    snap.batches = batches_;
    snap.errors = errors_;
    snap.mean_batch_size =
        batches_ == 0 ? 0.0
                      : static_cast<double>(batched_samples_) /
                            static_cast<double>(batches_);
    if (have_first_) {
      snap.window_seconds =
          std::chrono::duration<double>(last_done_ - first_done_).count();
    }
  }
  if (snap.window_seconds <= 0.0 && snap.requests >= 1) {
    // A single completed request (or several on one clock tick) spans
    // zero wall time, which would report 0 RPS (and previously an
    // infinite/zero split). Fall back to the slowest request's latency
    // as the window: the honest lower bound on elapsed serving time.
    snap.window_seconds = snap.max_ms / 1e3;
  }
  if (snap.window_seconds > 0.0) {
    snap.throughput_rps =
        static_cast<double>(snap.requests) / snap.window_seconds;
  }
  return snap;
}

void ServeStats::reset() {
  latency_ms_.reset();
  queue_wait_ms_.reset();
  batch_wait_ms_.reset();
  compute_ms_.reset();
  MutexLock lock(mutex_);
  batches_ = batched_samples_ = errors_ = 0;
  have_first_ = false;
}

}  // namespace odonn::serve
