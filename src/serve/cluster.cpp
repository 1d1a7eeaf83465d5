#include "serve/cluster.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/metrics.hpp"

namespace odonn::serve {

ServeCluster::ServeCluster(std::shared_ptr<ModelRegistry> registry,
                           ClusterOptions options)
    : options_(std::move(options)) {
  ODONN_CHECK(registry != nullptr, "cluster: null registry");
  ODONN_CHECK(options_.replicas >= 1, "cluster: replicas must be >= 1");
  ODONN_CHECK(options_.engine.label.empty(),
              "cluster: engine.label is assigned per replica; leave it empty");

  EngineOptions engine = options_.engine;
  engine.continuous = options_.continuous;
  if (engine.inner_threads == 0) {
    // Even split of the shared pool: R concurrent kernels that together
    // use the whole pool instead of each trying to claim all of it.
    engine.inner_threads =
        std::max<std::size_t>(1, thread_count() / options_.replicas);
  }
  options_.engine = engine;

  replicas_.reserve(options_.replicas);
  for (std::size_t i = 0; i < options_.replicas; ++i) {
    EngineOptions replica_options = engine;
    replica_options.label = "replica" + std::to_string(i);
    replicas_.push_back(
        std::make_unique<InferenceEngine>(registry, replica_options));
  }
}

ServeCluster::~ServeCluster() { shutdown(); }

std::size_t ServeCluster::route() const {
  if (replicas_.size() == 1) return 0;
  // The read is racy across replicas by design — placement only moves
  // load, never results.
  std::size_t best = 0;
  std::size_t best_depth = replicas_[0]->pending();
  for (std::size_t i = 1; i < replicas_.size(); ++i) {
    const std::size_t depth = replicas_[i]->pending();
    if (depth < best_depth) {
      best = i;
      best_depth = depth;
    }
  }
  return best;
}

std::future<PredictResult> ServeCluster::submit(const std::string& model_name,
                                                optics::Field input) {
  return replicas_[route()]->submit(model_name, std::move(input));
}

void ServeCluster::shutdown() {
  for (auto& replica : replicas_) replica->shutdown();
}

std::size_t ServeCluster::pending() const {
  std::size_t total = 0;
  for (const auto& replica : replicas_) total += replica->pending();
  return total;
}

std::uint64_t ServeCluster::admitted() const {
  std::uint64_t total = 0;
  for (const auto& replica : replicas_) total += replica->admitted();
  return total;
}

std::uint64_t ServeCluster::rejected() const {
  std::uint64_t total = 0;
  for (const auto& replica : replicas_) total += replica->rejected();
  return total;
}

ServeCluster::ClusterSnapshot ServeCluster::stats() const {
  ClusterSnapshot snap;
  snap.replicas.reserve(replicas_.size());
  snap.replica_queue_depth.reserve(replicas_.size());
  std::uint64_t batches = 0;
  double batched_samples = 0.0;
  std::vector<const obs::Histogram*> latency;
  std::vector<const obs::Histogram*> queue_wait;
  std::vector<const obs::Histogram*> batch_wait;
  std::vector<const obs::Histogram*> compute;
  for (const auto& replica : replicas_) {
    const ServeStats& recorder = replica->recorder();
    const ServeStats::Snapshot s = recorder.snapshot();
    snap.requests += s.requests;
    snap.errors += s.errors;
    snap.throughput_rps += s.throughput_rps;
    batches += s.batches;
    batched_samples += s.mean_batch_size * static_cast<double>(s.batches);
    snap.replicas.push_back(s);
    const std::size_t depth = replica->pending();
    snap.queue_depth += depth;
    snap.replica_queue_depth.push_back(depth);
    latency.push_back(&recorder.latency_ms());
    queue_wait.push_back(&recorder.queue_wait_ms());
    batch_wait.push_back(&recorder.batch_wait_ms());
    compute.push_back(&recorder.compute_ms());
  }
  snap.admitted = admitted();
  snap.rejected = rejected();
  if (batches > 0) {
    snap.mean_batch_size = batched_samples / static_cast<double>(batches);
  }
  const auto summarize = [](const std::vector<const obs::Histogram*>& parts) {
    const obs::Histogram::Snapshot merged = obs::Histogram::merged(parts);
    return ClusterSnapshot::AttributionSummary{merged.p50, merged.p99,
                                               merged.p999};
  };
  const ClusterSnapshot::AttributionSummary total = summarize(latency);
  snap.p50_ms = total.p50_ms;
  snap.p99_ms = total.p99_ms;
  snap.p999_ms = total.p999_ms;
  snap.queue_wait = summarize(queue_wait);
  snap.batch_wait = summarize(batch_wait);
  snap.compute = summarize(compute);
  return snap;
}

void ServeCluster::reset_stats() {
  for (auto& replica : replicas_) replica->reset_stats();
}

std::string cluster_snapshot_json(
    const ServeCluster::ClusterSnapshot& snap) {
  using obs::format_double;
  const auto attr_json =
      [](const ServeCluster::ClusterSnapshot::AttributionSummary& s) {
        return "{\"p50_ms\": " + obs::format_double(s.p50_ms) +
               ", \"p99_ms\": " + obs::format_double(s.p99_ms) +
               ", \"p999_ms\": " + obs::format_double(s.p999_ms) + "}";
      };
  std::ostringstream out;
  out << "{\"requests\": " << snap.requests << ", \"errors\": " << snap.errors
      << ", \"admitted\": " << snap.admitted
      << ", \"rejected\": " << snap.rejected
      << ", \"queue_depth\": " << snap.queue_depth
      << ", \"throughput_rps\": " << format_double(snap.throughput_rps)
      << ", \"mean_batch_size\": " << format_double(snap.mean_batch_size)
      << ", \"p50_ms\": " << format_double(snap.p50_ms)
      << ", \"p99_ms\": " << format_double(snap.p99_ms)
      << ", \"p999_ms\": " << format_double(snap.p999_ms)
      << ", \"attr\": {\"queue_wait\": " << attr_json(snap.queue_wait)
      << ", \"batch_wait\": " << attr_json(snap.batch_wait)
      << ", \"compute\": " << attr_json(snap.compute) << "}"
      << ", \"replicas\": " << snap.replicas.size()
      << ", \"replica_queue_depth\": [";
  for (std::size_t i = 0; i < snap.replica_queue_depth.size(); ++i) {
    out << (i == 0 ? "" : ", ") << snap.replica_queue_depth[i];
  }
  out << "]}";
  return out.str();
}

}  // namespace odonn::serve
