// ServeStats — latency percentiles and throughput counters for the serving
// engine.
//
// Each completed request lands in four obs::Histogram windows of the most
// recent kWindowCapacity requests, all in milliseconds: the end-to-end
// latency (submit -> response ready) and its three attribution components.
// Memory stays bounded under sustained traffic (each window reserves its
// capacity up front), and percentiles use the histogram's nearest-rank rule
// (odonn::nearest_rank in tensor/stats: p(q) = sorted[ceil(q*count)]
// counting from 1, boundary-exact at integral q*count) over the retained
// window. ServeCluster merges the replicas' windows with
// obs::Histogram::merged for cluster-level percentiles. Throughput is
// completed requests divided by the span between the first and last
// completion; when that span is zero (a single request, or several on one
// clock tick) the slowest request's latency stands in as the window so
// smoke benches never report 0 RPS.
//
// The windows are private Histogram objects, not registry instruments, so
// they keep working under ODONN_OBS_DISABLE. record_* calls also mirror
// into the process-wide metrics registry (obs/obs.hpp: serve.requests /
// serve.batches / serve.errors counters, serve.latency_ms /
// serve.batch_size / serve.attr.* histograms).
//
// Thread safety: all members are safe for concurrent use (internal mutexes).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"

namespace odonn::serve {

/// Per-request latency attribution: where a request's end-to-end latency
/// went. queue_wait covers submit -> taken off the admission queue,
/// batch_wait covers batch formation (dequeue -> kernel launch for the
/// request's model group), compute covers the kernel itself. The three
/// components are stamped from one monotonic RequestContext, so they sum
/// to the end-to-end latency up to FP rounding of the conversions.
struct Attribution {
  double queue_wait_s = 0.0;
  double batch_wait_s = 0.0;
  double compute_s = 0.0;
};

class ServeStats {
 public:
  using Clock = std::chrono::steady_clock;

  struct Snapshot {
    std::uint64_t requests = 0;   ///< completed requests
    std::uint64_t batches = 0;    ///< BatchedForward invocations
    std::uint64_t errors = 0;     ///< requests failed with an exception
    double mean_batch_size = 0.0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    double p999_ms = 0.0;
    double max_ms = 0.0;
    /// First-to-last completion span; the slowest request's latency when
    /// that span collapses to zero (single-request fallback).
    double window_seconds = 0.0;
    double throughput_rps = 0.0;     ///< requests / window_seconds
  };

  /// Records one completed request with its submit->done latency and the
  /// attribution breakdown (also mirrored into the serve.attr.* obs
  /// histograms).
  void record_request(double latency_seconds, const Attribution& attr = {});

  /// Records one drained batch of `size` samples.
  void record_batch(std::size_t size);

  /// Records a request that completed with an error.
  void record_error();

  Snapshot snapshot() const;

  /// The retained windows (milliseconds), one observation per completed
  /// request: end-to-end latency and the three attribution components.
  /// ServeCluster::stats() merges them across replicas.
  const obs::Histogram& latency_ms() const { return latency_ms_; }
  const obs::Histogram& queue_wait_ms() const { return queue_wait_ms_; }
  const obs::Histogram& batch_wait_ms() const { return batch_wait_ms_; }
  const obs::Histogram& compute_ms() const { return compute_ms_; }

  /// Clears all counters and the latency/attribution windows.
  void reset();

 private:
  static constexpr std::size_t kWindowCapacity = 1 << 15;

  obs::Histogram latency_ms_{kWindowCapacity};
  obs::Histogram queue_wait_ms_{kWindowCapacity};
  obs::Histogram batch_wait_ms_{kWindowCapacity};
  obs::Histogram compute_ms_{kWindowCapacity};

  mutable Mutex mutex_;
  std::uint64_t batches_ ODONN_GUARDED_BY(mutex_) = 0;
  std::uint64_t batched_samples_ ODONN_GUARDED_BY(mutex_) = 0;
  std::uint64_t errors_ ODONN_GUARDED_BY(mutex_) = 0;
  bool have_first_ ODONN_GUARDED_BY(mutex_) = false;
  Clock::time_point first_done_ ODONN_GUARDED_BY(mutex_){};
  Clock::time_point last_done_ ODONN_GUARDED_BY(mutex_){};
};

}  // namespace odonn::serve
