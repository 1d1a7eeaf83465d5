// Tests for src/serve/cluster and the continuous-batching / admission-control
// engine features it builds on: mid-batch arrivals land in the NEXT batch,
// a full queue throws the typed OverloadError, shutdown drains every
// admitted future, least-loaded routing spreads load without changing
// results, and the cluster's predictions stay bit-for-bit identical to the
// single-engine path at every replica count. Per-replica labelled obs
// instruments are checked against the global metrics registry (suffix
// convention, no new registry API).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "donn/model.hpp"
#include "obs/http_server.hpp"
#include "obs/obs.hpp"
#include "optics/encode.hpp"
#include "serve/cluster.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "tensor/stats.hpp"

namespace odonn::serve {
namespace {

donn::DonnConfig tiny_config(std::size_t n = 16, std::size_t layers = 2) {
  donn::DonnConfig cfg = donn::DonnConfig::scaled(n);
  cfg.num_layers = layers;
  cfg.init = donn::PhaseInit::Uniform;
  return cfg;
}

donn::DonnModel make_model(const donn::DonnConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  return donn::DonnModel(cfg, rng);
}

std::vector<optics::Field> random_inputs(const optics::GridSpec& grid,
                                         std::size_t count,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<optics::Field> inputs;
  inputs.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    MatrixD image(grid.n, grid.n);
    for (auto& v : image) v = rng.uniform();
    inputs.push_back(optics::encode_image(image, grid));
  }
  return inputs;
}

/// Test gate wired into EngineOptions::on_batch_start: every batch blocks
/// at the gate until release() — how the tests freeze drain threads at a
/// deterministic point (batch taken, kernel not yet run). Thread-safe:
/// clusters call the hook from several drain threads.
struct BatchGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;
  std::vector<std::size_t> sizes;  ///< batch sizes in hook-call order

  std::function<void(std::size_t)> hook() {
    return [this](std::size_t size) {
      std::unique_lock<std::mutex> lock(mutex);
      sizes.push_back(size);
      cv.notify_all();  // wake waiters watching `sizes`
      cv.wait(lock, [this] { return released; });
    };
  }

  /// Blocks until `count` batches have reached the gate.
  void await_batches(std::size_t count) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return sizes.size() >= count; });
  }

  void release() {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }
};

TEST(ContinuousBatching, MidBatchArrivalsServedTogetherInNextBatch) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 201));
  const auto inputs = random_inputs(cfg.grid, 4, 202);

  BatchGate gate;
  EngineOptions options;
  options.continuous = true;
  options.max_batch = 64;
  options.on_batch_start = gate.hook();
  InferenceEngine engine(registry, options);

  // Request 0 forms batch 1 and freezes at the gate (kernel "busy").
  std::vector<std::future<PredictResult>> futures;
  futures.push_back(engine.submit("m", inputs[0]));
  gate.await_batches(1);

  // Requests 1..3 arrive mid-batch: they must all queue behind the running
  // batch and be served TOGETHER in the next one, not trickle one-per-batch
  // and not extend the in-flight batch.
  for (std::size_t k = 1; k < inputs.size(); ++k) {
    futures.push_back(engine.submit("m", inputs[k]));
  }
  EXPECT_EQ(engine.pending(), 3u);
  gate.release();
  for (auto& future : futures) EXPECT_NO_THROW(future.get());

  std::lock_guard<std::mutex> lock(gate.mutex);
  ASSERT_EQ(gate.sizes.size(), 2u);
  EXPECT_EQ(gate.sizes[0], 1u);
  EXPECT_EQ(gate.sizes[1], 3u);
}

TEST(ContinuousBatching, NeverWaitsOutTheBatchWindow) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 211));
  const auto inputs = random_inputs(cfg.grid, 1, 212);

  // A window this long would stall a sub-max_batch request for seconds in
  // window mode; continuous mode must ignore it entirely.
  EngineOptions options;
  options.continuous = true;
  options.batch_window = std::chrono::microseconds(10'000'000);
  options.max_batch = 64;
  InferenceEngine engine(registry, options);

  const auto start = std::chrono::steady_clock::now();
  engine.submit("m", inputs[0]).get();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 5.0);
}

TEST(Admission, FullQueueThrowsTypedOverloadError) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 221));
  const auto inputs = random_inputs(cfg.grid, 3, 222);

  BatchGate gate;
  EngineOptions options;
  options.continuous = true;
  options.max_queue = 1;
  options.on_batch_start = gate.hook();
  InferenceEngine engine(registry, options);

  // Request 0 is in flight (frozen at the gate), request 1 fills the
  // 1-deep queue; request 2 must be rejected with the TYPED error.
  auto first = engine.submit("m", inputs[0]);
  gate.await_batches(1);
  auto second = engine.submit("m", inputs[1]);
  EXPECT_THROW(engine.submit("m", inputs[2]), OverloadError);
  EXPECT_EQ(engine.rejected(), 1u);
  EXPECT_EQ(engine.admitted(), 2u);

  gate.release();
  EXPECT_NO_THROW(first.get());
  EXPECT_NO_THROW(second.get());
}

TEST(Cluster, ResultsBitForBitIdenticalToSingleEngine) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 241));
  const auto inputs = random_inputs(cfg.grid, 24, 242);

  // Reference: the plain single engine (window batching, default options).
  std::vector<PredictResult> reference;
  {
    InferenceEngine engine(registry);
    std::vector<std::future<PredictResult>> futures;
    for (const auto& input : inputs) {
      futures.push_back(engine.submit("m", input));
    }
    for (auto& future : futures) reference.push_back(future.get());
  }

  for (const std::size_t replicas : {1, 2, 3}) {
    SCOPED_TRACE("replicas " + std::to_string(replicas));
    ClusterOptions options;
    options.replicas = replicas;
    ServeCluster cluster(registry, options);
    std::vector<std::future<PredictResult>> futures;
    for (const auto& input : inputs) {
      futures.push_back(cluster.submit("m", input));
    }
    for (std::size_t k = 0; k < inputs.size(); ++k) {
      const PredictResult result = futures[k].get();
      EXPECT_EQ(result.predicted, reference[k].predicted);
      ASSERT_EQ(result.detector_sums.size(),
                reference[k].detector_sums.size());
      for (std::size_t c = 0; c < result.detector_sums.size(); ++c) {
        // Exact: replication may move requests, never bits.
        EXPECT_EQ(result.detector_sums[c], reference[k].detector_sums[c]);
      }
    }
  }
}

TEST(Cluster, NonFiniteInputsFailAloneAndValidSumsStayBitExact) {
  // A NaN and an Inf request among valid ones: the bad ones fail with
  // NumericsError on whichever replica they land, counted as errors; the
  // valid ones match the single-sample path bit for bit.
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  auto model = registry->add("m", make_model(cfg, 253));
  const auto good = random_inputs(cfg.grid, 6, 254);
  std::vector<optics::Field> bad = random_inputs(cfg.grid, 2, 255);
  bad[0].values()(0, 0) = {0.25, std::nan("")};
  bad[1].values()(15, 15) = {-std::numeric_limits<double>::infinity(), 0.0};

  ClusterOptions options;
  options.replicas = 2;
  ServeCluster cluster(registry, options);
  std::vector<std::future<PredictResult>> good_futures;
  std::vector<std::future<PredictResult>> bad_futures;
  for (std::size_t k = 0; k < good.size(); ++k) {
    good_futures.push_back(cluster.submit("m", good[k]));
    if (k == 1) bad_futures.push_back(cluster.submit("m", bad[0]));
    if (k == 4) bad_futures.push_back(cluster.submit("m", bad[1]));
  }
  for (auto& future : bad_futures) EXPECT_THROW(future.get(), NumericsError);
  for (std::size_t k = 0; k < good.size(); ++k) {
    const PredictResult result = good_futures[k].get();
    const std::vector<double> single = model->detector_sums(good[k]);
    ASSERT_EQ(result.detector_sums.size(), single.size());
    for (std::size_t c = 0; c < single.size(); ++c) {
      EXPECT_EQ(std::memcmp(&result.detector_sums[c], &single[c],
                            sizeof(double)),
                0)
          << "valid request " << k << " class " << c;
    }
  }
  cluster.shutdown();
  EXPECT_EQ(cluster.stats().errors, 2u);
}

TEST(Cluster, ShutdownDrainsEveryAdmittedFuture) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 251));
  const auto inputs = random_inputs(cfg.grid, 20, 252);

  ClusterOptions options;
  options.replicas = 2;
  ServeCluster cluster(registry, options);
  std::vector<std::future<PredictResult>> futures;
  for (const auto& input : inputs) {
    futures.push_back(cluster.submit("m", input));
  }
  cluster.shutdown();
  for (auto& future : futures) EXPECT_NO_THROW(future.get());
  EXPECT_EQ(cluster.pending(), 0u);
  EXPECT_EQ(cluster.admitted(), inputs.size());
  EXPECT_THROW(cluster.submit("m", inputs[0]), Error);
}

TEST(Cluster, LeastLoadedSpreadsLoadAcrossReplicas) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 271));
  const auto inputs = random_inputs(cfg.grid, 10, 272);

  // Freeze both drain threads (max_batch=1, gate) so submitted requests
  // accumulate: least-loaded routing must then balance the two queues
  // instead of piling everything on replica 0.
  BatchGate gate;
  ClusterOptions options;
  options.replicas = 2;
  options.engine.max_batch = 1;
  options.engine.on_batch_start = gate.hook();
  ServeCluster cluster(registry, options);

  std::vector<std::future<PredictResult>> futures;
  for (const auto& input : inputs) {
    futures.push_back(cluster.submit("m", input));
  }
  // At most one request per replica left the queues (both gates held), so
  // at least 8 of 10 are still queued, balanced within one of each other.
  const std::vector<std::size_t> depths = cluster.stats().replica_queue_depth;
  ASSERT_EQ(depths.size(), 2u);
  EXPECT_GE(depths[0], 1u);
  EXPECT_GE(depths[1], 1u);

  gate.release();
  for (auto& future : futures) EXPECT_NO_THROW(future.get());
  EXPECT_EQ(cluster.stats().requests, inputs.size());
}

TEST(Cluster, SnapshotAggregatesAcrossReplicas) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 281));
  const auto inputs = random_inputs(cfg.grid, 16, 282);

  ClusterOptions options;
  options.replicas = 2;
  ServeCluster cluster(registry, options);
  std::vector<std::future<PredictResult>> futures;
  for (const auto& input : inputs) {
    futures.push_back(cluster.submit("m", input));
  }
  for (auto& future : futures) future.get();

  const auto snap = cluster.stats();
  EXPECT_EQ(snap.requests, inputs.size());
  EXPECT_EQ(snap.admitted, inputs.size());
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.errors, 0u);
  EXPECT_EQ(snap.queue_depth, 0u);
  ASSERT_EQ(snap.replicas.size(), 2u);
  ASSERT_EQ(snap.replica_queue_depth.size(), 2u);
  // Merged percentiles come from the concatenated replica windows: with
  // completed requests they must be positive and ordered.
  EXPECT_GT(snap.p50_ms, 0.0);
  EXPECT_GE(snap.p99_ms, snap.p50_ms);
  // The auto inner split always grants each replica at least one thread.
  EXPECT_GE(cluster.options().engine.inner_threads, 1u);

  cluster.reset_stats();
  EXPECT_EQ(cluster.stats().requests, 0u);
  EXPECT_EQ(cluster.admitted(), 0u);
}

TEST(Cluster, RegistersPerReplicaLabelledInstruments) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 291));
  const auto inputs = random_inputs(cfg.grid, 6, 292);

#ifndef ODONN_OBS_DISABLE
  auto& metrics = obs::MetricsRegistry::global();
  const std::uint64_t before = metrics.counter("serve.replica0.requests").value() +
                               metrics.counter("serve.replica1.requests").value();
#endif

  ClusterOptions options;
  options.replicas = 2;
  ServeCluster cluster(registry, options);
  std::vector<std::future<PredictResult>> futures;
  for (const auto& input : inputs) {
    futures.push_back(cluster.submit("m", input));
  }
  for (auto& future : futures) future.get();

#ifndef ODONN_OBS_DISABLE
  // Suffix convention: serve.replicaK.* instruments exist in the global
  // registry and the per-replica request counters account for exactly the
  // traffic this cluster served.
  const auto names = metrics.names();
  for (const std::string& name :
       {std::string("serve.replica0.queue_depth"),
        std::string("serve.replica0.requests"),
        std::string("serve.replica0.rejected"),
        std::string("serve.replica0.latency_ms"),
        std::string("serve.replica0.batch_size"),
        std::string("serve.replica1.requests")}) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << "missing instrument " << name;
  }
  const std::uint64_t after = metrics.counter("serve.replica0.requests").value() +
                              metrics.counter("serve.replica1.requests").value();
  EXPECT_EQ(after - before, inputs.size());
  // Prometheus rendering keeps the suffix readable after dot-mangling.
  EXPECT_NE(metrics.to_text().find("odonn_serve_replica0_queue_depth"),
            std::string::npos);
#endif
}

TEST(Attribution, ComponentsSumToEndToEndLatency) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 301));
  const auto inputs = random_inputs(cfg.grid, 2, 302);

  BatchGate gate;
  EngineOptions options;
  options.continuous = true;
  options.on_batch_start = gate.hook();
  InferenceEngine engine(registry, options);

  // Request 0 forms batch 1 and freezes at the gate: the hold time is
  // batch-formation latency (dequeue happened, kernel has not run), so it
  // must land in r0's batch_wait. Request 1 arrives while batch 1 is held,
  // so the same hold shows up as r1's queue_wait.
  auto first = engine.submit("m", inputs[0]);
  gate.await_batches(1);
  auto second = engine.submit("m", inputs[1]);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  gate.release();

  const PredictResult r0 = first.get();
  const PredictResult r1 = second.get();

  // The components and the total derive from the same four monotonic
  // stamps, so the sum identity holds to FP rounding, not just "roughly".
  for (const PredictResult* r : {&r0, &r1}) {
    EXPECT_GT(r->latency.request_id, 0u);
    EXPECT_GE(r->latency.queue_wait_s, 0.0);
    EXPECT_GE(r->latency.batch_wait_s, 0.0);
    EXPECT_GT(r->latency.compute_s, 0.0);
    EXPECT_NEAR(r->latency.queue_wait_s + r->latency.batch_wait_s +
                    r->latency.compute_s,
                r->latency.total_s, 1e-9);
  }
  EXPECT_NE(r0.latency.request_id, r1.latency.request_id);
  // The deterministic 30ms gate hold is attributed where it belongs.
  EXPECT_GE(r0.latency.batch_wait_s, 0.025);
  EXPECT_LT(r0.latency.queue_wait_s, 0.025);
  EXPECT_GE(r1.latency.queue_wait_s, 0.025);

  // Each request lands once in every window: latency and the three
  // attribution components.
  const ServeStats& recorder = engine.recorder();
  EXPECT_EQ(recorder.queue_wait_ms().snapshot().count, 2u);
  EXPECT_EQ(recorder.batch_wait_ms().snapshot().count, 2u);
  EXPECT_EQ(recorder.compute_ms().snapshot().count, 2u);
  EXPECT_EQ(recorder.latency_ms().snapshot().count, 2u);
}

TEST(Attribution, RequestIdsUniqueAndNonzeroAcrossReplicas) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 311));
  const auto inputs = random_inputs(cfg.grid, 24, 312);

  ClusterOptions options;
  options.replicas = 3;
  ServeCluster cluster(registry, options);
  std::vector<std::future<PredictResult>> futures;
  for (const auto& input : inputs) {
    futures.push_back(cluster.submit("m", input));
  }
  std::vector<std::uint64_t> ids;
  for (auto& future : futures) {
    const PredictResult result = future.get();
    EXPECT_GT(result.latency.total_s, 0.0);
    ids.push_back(result.latency.request_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_GT(ids.front(), 0u);
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "request ids must be unique across replicas";
}

TEST(Attribution, ClusterSnapshotCarriesAttributionPercentiles) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 321));
  const auto inputs = random_inputs(cfg.grid, 16, 322);

  ClusterOptions options;
  options.replicas = 2;
  ServeCluster cluster(registry, options);
  std::vector<std::future<PredictResult>> futures;
  for (const auto& input : inputs) {
    futures.push_back(cluster.submit("m", input));
  }
  for (auto& future : futures) future.get();

  const auto snap = cluster.stats();
  // End-to-end percentiles now include p999, ordered with the others.
  EXPECT_GE(snap.p99_ms, snap.p50_ms);
  EXPECT_GE(snap.p999_ms, snap.p99_ms);
  // Compute is real work, so its percentiles must be positive; waits are
  // merely non-negative (an idle engine dequeues immediately).
  EXPECT_GT(snap.compute.p50_ms, 0.0);
  EXPECT_GE(snap.compute.p999_ms, snap.compute.p99_ms);
  EXPECT_GE(snap.queue_wait.p50_ms, 0.0);
  EXPECT_GE(snap.batch_wait.p50_ms, 0.0);
  // Attribution never exceeds the end-to-end envelope.
  EXPECT_LE(snap.compute.p50_ms, snap.p999_ms);
}

TEST(Cluster, MergedPercentilesAreNearestRankOverEveryResponse) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 341));
  const auto inputs = random_inputs(cfg.grid, 24, 342);

  // Gated one-request batches (as in LeastLoadedSpreadsLoadAcrossReplicas)
  // put requests on both replicas, so the cluster figures merge two
  // windows.
  BatchGate gate;
  ClusterOptions options;
  options.replicas = 2;
  options.engine.max_batch = 1;
  options.engine.on_batch_start = gate.hook();
  ServeCluster cluster(registry, options);
  std::vector<std::future<PredictResult>> futures;
  for (const auto& input : inputs) {
    futures.push_back(cluster.submit("m", input));
  }
  gate.release();

  std::vector<double> total;
  std::vector<double> queue_wait;
  std::vector<double> batch_wait;
  std::vector<double> compute;
  for (auto& future : futures) {
    const PredictResult r = future.get();
    total.push_back(r.latency.total_s);
    queue_wait.push_back(r.latency.queue_wait_s);
    batch_wait.push_back(r.latency.batch_wait_s);
    compute.push_back(r.latency.compute_s);
  }

  // A request is recorded before its future resolves, so the windows now
  // hold exactly these responses.
  const auto snap = cluster.stats();
  ASSERT_EQ(snap.requests, inputs.size());
  ASSERT_EQ(snap.replicas.size(), 2u);
  EXPECT_GT(snap.replicas[0].requests, 0u);
  EXPECT_GT(snap.replicas[1].requests, 0u);

  // Exact equality: the windows hold milliseconds, and x -> x * 1e3 is
  // monotone in doubles, so the nearest-rank sample in milliseconds is the
  // nearest-rank sample in seconds times 1e3.
  using Summary = ServeCluster::ClusterSnapshot::AttributionSummary;
  const auto expect_nearest_rank = [](const Summary& summary,
                                      const std::vector<double>& seconds) {
    EXPECT_EQ(summary.p50_ms, percentile_nearest_rank(seconds, 0.50) * 1e3);
    EXPECT_EQ(summary.p99_ms, percentile_nearest_rank(seconds, 0.99) * 1e3);
    EXPECT_EQ(summary.p999_ms, percentile_nearest_rank(seconds, 0.999) * 1e3);
  };
  expect_nearest_rank({snap.p50_ms, snap.p99_ms, snap.p999_ms}, total);
  expect_nearest_rank(snap.queue_wait, queue_wait);
  expect_nearest_rank(snap.batch_wait, batch_wait);
  expect_nearest_rank(snap.compute, compute);
}

TEST(Cluster, SnapshotJsonMatchesLiveHttpSnapshotRoute) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 331));
  const auto inputs = random_inputs(cfg.grid, 12, 332);

  ClusterOptions options;
  options.replicas = 2;
  ServeCluster cluster(registry, options);
  std::vector<std::future<PredictResult>> futures;
  for (const auto& input : inputs) {
    futures.push_back(cluster.submit("m", input));
  }
  for (auto& future : futures) future.get();

  // Same wiring as the CLI serve command: /snapshot renders
  // cluster_snapshot_json(cluster.stats()).
  obs::HttpServer server;
  server.handle("/snapshot", [&cluster](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = cluster_snapshot_json(cluster.stats());
    return response;
  });
  server.start();
  const auto scraped =
      obs::http_get("127.0.0.1", server.port(), "/snapshot");
  ASSERT_TRUE(scraped.ok) << scraped.error;
  EXPECT_EQ(scraped.status, 200);

  // Traffic has fully drained, so stats() is stable: the scraped body must
  // equal a local render byte for byte (same percentiles, same formatter).
  const std::string local = cluster_snapshot_json(cluster.stats());
  EXPECT_EQ(scraped.body, local);
  EXPECT_NE(local.find("\"requests\": 12"), std::string::npos);
  EXPECT_NE(local.find("\"attr\": {\"queue_wait\": {\"p50_ms\": "),
            std::string::npos);
  EXPECT_NE(local.find("\"p999_ms\": "), std::string::npos);
  EXPECT_NE(local.find("\"replica_queue_depth\": [0, 0]"), std::string::npos);
}

TEST(Cluster, RejectsLabelledEngineTemplateAndZeroReplicas) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 295));

  ClusterOptions labelled;
  labelled.engine.label = "mine";
  EXPECT_THROW(ServeCluster(registry, labelled), Error);

  ClusterOptions zero;
  zero.replicas = 0;
  EXPECT_THROW(ServeCluster(registry, zero), Error);
}

}  // namespace
}  // namespace odonn::serve
