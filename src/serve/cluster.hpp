// ServeCluster — N continuously-batched InferenceEngine replicas behind the
// single submit() facade callers already know.
//
// One registry, N replicas: every replica serves every published model (the
// registry hands out immutable snapshots, so replicas share model memory
// and differ only in their drain thread, request queue and plan cache).
// Each replica runs with continuous (in-flight) batching by default and a
// pinned inner thread budget — an even split of the shared pool unless the
// caller sets `engine.inner_threads` — so R replicas give R concurrent
// kernels without oversubscribing common/parallel. Replicas are labelled
// "replica0", "replica1", ... and register serve.replicaK.* obs
// instruments.
//
// Each request goes to the least-loaded replica: the one with the shortest
// queue, ties to the lowest index. Placement never changes results:
// predictions are bitwise identical to the single-engine path for the same
// inputs, whichever replica serves them.
//
// Admission control is per replica (EngineOptions::max_queue bounds each
// queue, and a submit routed to a full one throws OverloadError); the
// cluster exposes the summed admitted/rejected counts. shutdown() is a
// graceful drain: every admitted future resolves before it returns.
//
// Thread safety: submit()/stats()/pending() are safe from any thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.hpp"
#include "serve/registry.hpp"

namespace odonn::serve {

struct ClusterOptions {
  std::size_t replicas = 2;
  /// Continuous (in-flight) batching on every replica — the default and
  /// the point of replication; false falls back to window batching (an
  /// A/B the load bench can drive).
  bool continuous = true;
  /// Template applied to every replica. `continuous` here is overridden by
  /// the cluster-level flag above; `inner_threads` 0 = an even split of
  /// the shared pool across replicas (at least 1); `label` must stay
  /// empty — the cluster labels replicas itself.
  EngineOptions engine;
};

class ServeCluster {
 public:
  explicit ServeCluster(std::shared_ptr<ModelRegistry> registry,
                        ClusterOptions options = {});
  ~ServeCluster();

  ServeCluster(const ServeCluster&) = delete;
  ServeCluster& operator=(const ServeCluster&) = delete;

  /// Same contract as InferenceEngine::submit — the future resolves to the
  /// prediction or to the typed error (unknown model, grid mismatch);
  /// throws OverloadError when the routed replica's queue is full.
  std::future<PredictResult> submit(const std::string& model_name,
                                    optics::Field input);

  /// Gracefully drains every replica: all admitted futures resolve before
  /// this returns. Idempotent; called by the destructor.
  void shutdown();

  std::size_t replica_count() const { return replicas_.size(); }
  const ClusterOptions& options() const { return options_; }

  /// Queued-but-not-yet-batched requests, summed over replicas.
  std::size_t pending() const;

  std::uint64_t admitted() const;
  std::uint64_t rejected() const;

  /// Cluster-level aggregates plus the per-replica snapshots they came
  /// from. Counters sum; cluster percentiles come from
  /// obs::Histogram::merged over the replicas' ServeStats windows
  /// (quantiles of quantiles would not be exact).
  struct ClusterSnapshot {
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::size_t queue_depth = 0;          ///< summed pending()
    double throughput_rps = 0.0;          ///< summed per-replica RPS
    double mean_batch_size = 0.0;         ///< batch-weighted mean
    /// True cluster-level latency percentiles: nearest-rank over the
    /// CONCATENATED retained windows of every replica (one
    /// obs::Histogram::merged call, not a merge of per-replica quantiles).
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double p999_ms = 0.0;
    /// Percentiles of one latency-attribution component, merged the same
    /// way as the cluster latency percentiles.
    struct AttributionSummary {
      double p50_ms = 0.0;
      double p99_ms = 0.0;
      double p999_ms = 0.0;
    };
    AttributionSummary queue_wait;  ///< submit -> dequeued
    AttributionSummary batch_wait;  ///< dequeued -> kernel launch
    AttributionSummary compute;     ///< kernel launch -> done
    std::vector<ServeStats::Snapshot> replicas;
    std::vector<std::size_t> replica_queue_depth;
  };
  ClusterSnapshot stats() const;

  /// Clears every replica's counters and latency windows.
  void reset_stats();

 private:
  std::size_t route() const;

  ClusterOptions options_;
  std::vector<std::unique_ptr<InferenceEngine>> replicas_;
};

/// Canonical JSON rendering of a ClusterSnapshot: one object with the
/// cluster aggregates, the latency percentiles, an "attr" sub-object
/// holding the queue_wait / batch_wait / compute percentile summaries,
/// and the per-replica queue depths. This exact string is what the HTTP
/// plane serves at GET /snapshot and what `snapshot_file=` appends one
/// line of per interval (tests assert the equality). Numbers use
/// obs::format_double (shortest round-trip), so bodies are byte-stable
/// for identical snapshots.
std::string cluster_snapshot_json(const ServeCluster::ClusterSnapshot& snap);

}  // namespace odonn::serve
