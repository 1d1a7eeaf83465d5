// Process-wide metrics registry: lock-free atomic counters and gauges plus
// bounded-window histograms, exported as JSON or Prometheus-style text.
//
// Design constraints (the reason this subsystem may be wired into the hot
// deterministic paths at all):
//   * Collection NEVER feeds back into computation — instruments only read
//     clocks and bump atomics, so every phase/report digest is bitwise
//     identical with metrics on or off (scripts/check.sh asserts this).
//   * Counter/Gauge updates are single relaxed atomic RMWs; histograms take
//     a short mutex but sit off the per-sample inner loops (per batch, per
//     task, per realization at most).
//   * Call sites go through the ODONN_OBS_* macros in obs/obs.hpp, which
//     cache the registry lookup in a function-local static and collapse to
//     nothing under ODONN_OBS_DISABLE.
//
// The registry is a leaked process-global (like the parallel thread pool):
// worker threads may still bump counters during static destruction.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"

namespace odonn::obs {

/// Shortest round-trip double formatting shared by the obs exporters and
/// the serve snapshot JSON (integral values print without an exponent or
/// trailing dot, matching the bench JSON convention).
std::string format_double(double value);

/// Monotonic event count. Relaxed atomics: totals are exact, cross-counter
/// ordering is not promised (exporters snapshot, they don't reconcile).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (queue depth, cache size) with a high-watermark that
/// survives the level dropping back down.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    update_max(v);
  }
  void add(std::int64_t delta) {
    update_max(value_.fetch_add(delta, std::memory_order_relaxed) + delta);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  std::int64_t max_value() const {
    return max_.load(std::memory_order_relaxed);
  }
  void reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void update_max(std::int64_t v) {
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Bounded sliding-window histogram: keeps the most recent `capacity`
/// observations in a ring plus running count/sum/min/max over ALL
/// observations. Percentiles use the repo-wide nearest-rank rule
/// (odonn::nearest_rank) over the retained window. This is the repo's one
/// windowed-percentile implementation: the registry instruments and the
/// serve latency windows (serve::ServeStats) are all Histograms.
class Histogram {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit Histogram(std::size_t capacity = kDefaultCapacity);

  /// Fixed log-spaced bucket bounds (1-2.5-5 per decade, 1e-3 .. 1e4)
  /// shared by every instrument: microseconds to ten seconds when the unit
  /// is ms, and 1..10000 for dimensionless series like batch sizes.
  /// Observations above the last bound count only toward +Inf.
  static const std::vector<double>& bucket_bounds();

  void observe(double value);

  struct Snapshot {
    std::uint64_t count = 0;  ///< all observations, not just retained ones
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
    /// Cumulative native-histogram counts: buckets[i] = observations with
    /// value <= bucket_bounds()[i], over ALL observations (running, like
    /// count/sum — not windowed). The +Inf bucket is `count`.
    std::vector<std::uint64_t> buckets;
  };

  /// Zeroed snapshot when nothing was observed.
  Snapshot snapshot() const;

  /// Summarizes several histograms as one window: count, sum, min, max and
  /// the bucket counts combine, and the percentiles apply nearest-rank over
  /// the concatenated retained values (one sort per call), so they are
  /// exact for the union of the windows where quantiles of quantiles would
  /// not be. ServeCluster::stats() merges its replicas' latency windows
  /// this way. Each part is locked in turn, never two at once. Merging
  /// nothing, or only empty histograms, gives the zeroed snapshot;
  /// snapshot() is merged() over {this}.
  static Snapshot merged(std::span<const Histogram* const> parts);

  void reset();

 private:
  mutable Mutex mutex_;
  const std::size_t capacity_;
  /// Retained observations: grows to capacity_, then a ring whose oldest
  /// entry sits at next_.
  std::vector<double> window_ ODONN_GUARDED_BY(mutex_);
  std::size_t next_ ODONN_GUARDED_BY(mutex_) = 0;
  std::uint64_t count_ ODONN_GUARDED_BY(mutex_) = 0;
  double sum_ ODONN_GUARDED_BY(mutex_) = 0.0;
  double min_ ODONN_GUARDED_BY(mutex_) = 0.0;
  double max_ ODONN_GUARDED_BY(mutex_) = 0.0;
  /// Per-bound counts (non-cumulative).
  std::vector<std::uint64_t> buckets_ ODONN_GUARDED_BY(mutex_);
};

/// Name -> instrument map. Instruments are created on first use and never
/// destroyed or moved (std::map node stability), so call sites may cache
/// references in function-local statics. A name is bound to one kind for
/// the life of the process; re-requesting it as a different kind throws.
class MetricsRegistry {
 public:
  /// The process-wide registry (leaked, never destroyed). Pre-registers
  /// the builtin instrument names wired through the codebase so exports
  /// always contain the full schema, zero-valued where a subsystem did
  /// not run.
  static MetricsRegistry& global();

  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::size_t capacity = Histogram::kDefaultCapacity);

  /// All registered names, sorted (the map order).
  std::vector<std::string> names() const;

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}
  /// with names sorted; gauges carry {"value", "max"}, histograms carry
  /// {"count", "sum", "min", "max", "p50", "p90", "p99", "p999"}.
  std::string to_json() const;

  /// Prometheus-style exposition: dots in names become underscores, every
  /// metric is prefixed "odonn_" and preceded by # HELP / # TYPE lines;
  /// histograms export as summaries (quantile-labelled samples for
  /// 0.5/0.9/0.99/0.999 plus _count/_sum) AND as a native-histogram family
  /// "<name>_hist" with cumulative le=-labelled _bucket samples over
  /// Histogram::bucket_bounds() plus _hist_sum/_hist_count, so scrapers
  /// can aggregate across processes (quantile summaries cannot be merged;
  /// buckets can). All quantiles go through the repo-wide
  /// odonn::nearest_rank rule, so they agree with the serve benches to the
  /// bit. This is the exact body `GET /metrics` serves (tests assert byte
  /// equality).
  std::string to_text() const;

  /// Zeroes every instrument IN PLACE — nodes survive so cached references
  /// held by call-site statics stay valid.
  void reset();

 private:
  struct Entry;

  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Entry>> entries_
      ODONN_GUARDED_BY(mutex_);
};

/// Per-task detail collection (queue-wait timestamps in the thread pool).
/// Off by default — the coarse counters/gauges/histograms are always on —
/// and switched on by the CLI `metrics=`/`trace=` keys or ODONN_OBS_DETAIL=1.
bool detail_enabled();
void set_detail(bool enabled);

}  // namespace odonn::obs
