// Tests for src/serve: batched-vs-single-sample parity (bit-for-bit on
// predictions, detector sums and intensities, including pad2x and masked
// models), FFT-plan reuse across batches, registry round-trips through
// donn/serialize, engine request/future semantics under concurrent
// submission, and the stats percentile rules.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "donn/model.hpp"
#include "donn/serialize.hpp"
#include "fft/fft_plan.hpp"
#include "optics/encode.hpp"
#include "serve/batched_forward.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "serve/stats.hpp"
#include "sparsify/schemes.hpp"

namespace odonn::serve {
namespace {

donn::DonnConfig tiny_config(std::size_t n = 16, std::size_t layers = 2) {
  donn::DonnConfig cfg = donn::DonnConfig::scaled(n);
  cfg.num_layers = layers;
  cfg.init = donn::PhaseInit::Uniform;  // structured masks, not near-flat
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

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// One sample's argmax class through the single-sample predict, with the
/// model's own tables and a fresh workspace.
std::size_t single_prediction(const donn::DonnModel& model,
                              const optics::Field& input) {
  donn::DonnModel::Workspace workspace;
  return model.predict(input, model.modulation_frames(), workspace);
}

/// Batched argmax classes: infer_batch through the model's own tables.
std::vector<std::size_t> batch_predictions(
    const donn::DonnModel& model, const std::vector<optics::Field>& inputs) {
  std::vector<std::size_t> predictions;
  model.infer_batch(inputs, model.modulation_frames(), &predictions, nullptr,
                    nullptr);
  return predictions;
}

TEST(ModulationTables, MatchPhaseMasks) {
  // Grid 18: the frames' last lane group is partial, and its idle lanes
  // must hold 0 so they stay 0 in every modulated field.
  const donn::DonnConfig cfg = tiny_config(18, 3);
  const donn::DonnModel model = make_model(cfg, 21);
  const auto mods = model.modulation_tables();
  const auto frames = model.modulation_frames();
  ASSERT_EQ(mods.size(), model.num_layers());
  ASSERT_EQ(frames.size(), model.num_layers());
  for (std::size_t l = 0; l < mods.size(); ++l) {
    const MatrixD& phi = model.phases()[l];
    const fft::Frame& w = frames[l];
    for (std::size_t r = 0; r < phi.rows(); ++r) {
      for (std::size_t c = 0; c < phi.cols(); ++c) {
        const std::size_t i = r * phi.cols() + c;
        EXPECT_EQ(mods[l][i].real(), std::cos(phi[i]));
        EXPECT_EQ(mods[l][i].imag(), std::sin(phi[i]));
        EXPECT_EQ(w.re()[w.index(r, c)], std::cos(phi[i]));
        EXPECT_EQ(w.im()[w.index(r, c)], std::sin(phi[i]));
      }
    }
    for (std::size_t r = phi.rows(); r < w.groups() * fft::Frame::kLanes;
         ++r) {
      for (std::size_t c = 0; c < phi.cols(); ++c) {
        EXPECT_EQ(w.re()[w.index(r, c)], 0.0);
        EXPECT_EQ(w.im()[w.index(r, c)], 0.0);
      }
    }
  }
}

TEST(BatchedInference, BitForBitParityWithSingleSample) {
  const donn::DonnConfig cfg = tiny_config(16, 3);
  const donn::DonnModel model = make_model(cfg, 31);
  const auto inputs = random_inputs(cfg.grid, 9, 32);

  std::vector<std::size_t> predictions;
  std::vector<std::vector<double>> sums;
  std::vector<MatrixD> intensities;
  model.infer_batch(inputs, model.modulation_tables(), &predictions, &sums,
                    &intensities);
  ASSERT_EQ(predictions.size(), inputs.size());
  ASSERT_EQ(sums.size(), inputs.size());
  ASSERT_EQ(intensities.size(), inputs.size());

  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_EQ(predictions[k], single_prediction(model, inputs[k]));
    const auto single_sums = model.detector_sums(inputs[k]);
    ASSERT_EQ(sums[k].size(), single_sums.size());
    for (std::size_t c = 0; c < single_sums.size(); ++c) {
      // Exact equality: the batched path performs identical arithmetic.
      EXPECT_EQ(sums[k][c], single_sums[c]);
    }
    EXPECT_EQ(max_abs_diff(intensities[k],
                           model.propagate_through(inputs[k]).intensity()),
              0.0);
  }
}

TEST(BatchedInference, Pad2xParity) {
  donn::DonnConfig cfg = tiny_config(16, 2);
  cfg.pad2x = true;
  const donn::DonnModel model = make_model(cfg, 41);
  const auto inputs = random_inputs(cfg.grid, 5, 42);

  const auto sums = model.detector_sums_batch(inputs);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    const auto single = model.detector_sums(inputs[k]);
    for (std::size_t c = 0; c < single.size(); ++c) {
      EXPECT_EQ(sums[k][c], single[c]);
    }
  }
}

TEST(BatchedInference, SparsifiedModelParity) {
  const donn::DonnConfig cfg = tiny_config(16, 2);
  donn::DonnModel model = make_model(cfg, 51);
  sparsify::SchemeOptions scheme;
  scheme.scheme = sparsify::Scheme::Block;
  scheme.ratio = 0.2;
  scheme.block_size = 2;
  std::vector<sparsify::SparsityMask> masks;
  for (const auto& phi : model.phases()) {
    masks.push_back(sparsify::sparsify(phi, scheme));
  }
  model.set_masks(std::move(masks));

  const auto inputs = random_inputs(cfg.grid, 6, 52);
  const auto predictions = batch_predictions(model, inputs);
  const auto sums = model.detector_sums_batch(inputs);
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_EQ(predictions[k], single_prediction(model, inputs[k]));
    const auto single = model.detector_sums(inputs[k]);
    for (std::size_t c = 0; c < single.size(); ++c) {
      EXPECT_EQ(sums[k][c], single[c]);
    }
  }
}

TEST(BatchedInference, EmptyBatchAndShapeErrors) {
  const donn::DonnConfig cfg = tiny_config(16, 2);
  const donn::DonnModel model = make_model(cfg, 61);
  EXPECT_TRUE(batch_predictions(model, {}).empty());

  const auto wrong = random_inputs(donn::DonnConfig::scaled(32).grid, 1, 62);
  EXPECT_THROW(batch_predictions(model, wrong), ShapeError);

  std::vector<MatrixC> bad_mods(model.num_layers() - 1);
  std::vector<std::size_t> predictions;
  EXPECT_THROW(
      model.infer_batch({}, bad_mods, &predictions, nullptr, nullptr),
      ShapeError);
}

TEST(BatchedForwardPass, MatchesSingleSamplePathOnEveryGrid) {
  // BatchedForward is a table snapshot over DonnModel's frame runner: on
  // radix-2, differential, mixed-radix (a whole and a partial last lane
  // group) and pad2x stacks, and at batch sizes on both sides of a lane
  // group (0, 1, 2, 3, 9), run() must reproduce the per-sample predict /
  // detector_sums exactly.
  struct Case {
    const char* name;
    std::size_t n;
    std::size_t layers;
    bool pad2x;
    donn::DetectorMode detector;
  };
  const Case cases[] = {
      {"radix2_n16", 16, 3, false, donn::DetectorMode::Standard},
      {"differential_n16", 16, 3, false, donn::DetectorMode::Differential},
      {"mixed_radix_n20", 20, 2, false, donn::DetectorMode::Standard},
      {"mixed_radix_n18", 18, 2, false, donn::DetectorMode::Standard},
      {"pad2x_n16", 16, 2, true, donn::DetectorMode::Standard},
  };
  for (const Case& c : cases) {
    donn::DonnConfig cfg = tiny_config(c.n, c.layers);
    cfg.pad2x = c.pad2x;
    cfg.detector = c.detector;
    // The differential case reuses the radix-2 case's seed: same masks,
    // other readout.
    auto model = std::make_shared<const donn::DonnModel>(make_model(cfg, 171));
    const BatchedForward forward(model);
    for (const std::size_t batch : {0, 1, 2, 3, 9}) {
      SCOPED_TRACE(std::string(c.name) + " batch " + std::to_string(batch));
      const auto inputs = random_inputs(cfg.grid, batch, 172 + batch);
      const auto result = forward.run(inputs);
      ASSERT_EQ(result.predictions.size(), batch);
      ASSERT_EQ(result.detector_sums.size(), batch);
      for (std::size_t k = 0; k < batch; ++k) {
        EXPECT_EQ(result.predictions[k], single_prediction(*model, inputs[k]));
        const auto sums = model->detector_sums(inputs[k]);
        ASSERT_EQ(result.detector_sums[k].size(), cfg.num_classes);
        ASSERT_EQ(sums.size(), cfg.num_classes);
        for (std::size_t cls = 0; cls < sums.size(); ++cls) {
          EXPECT_EQ(result.detector_sums[k][cls], sums[cls]);
        }
      }
    }
  }
}

TEST(BatchedForwardPass, ReusesPlansAcrossBatches) {
  // Mixed-radix grid. The model's Propagator took its plans from the shared
  // fft::plan_for cache once, at construction, so a batch touches the cache
  // not at all.
  const donn::DonnConfig cfg = tiny_config(20, 2);
  auto model = std::make_shared<const donn::DonnModel>(make_model(cfg, 71));
  const BatchedForward forward(model);
  const auto inputs = random_inputs(cfg.grid, 4, 72);

  const auto first = forward.run(inputs);  // warm-up: builds any new plans
  const auto before = fft::plan_cache_stats();
  const auto second = forward.run(inputs);
  const auto after = fft::plan_cache_stats();

  // Identical results batch to batch, with zero new FFT plans built and no
  // cache lookups at all.
  ASSERT_EQ(first.predictions.size(), second.predictions.size());
  for (std::size_t k = 0; k < first.predictions.size(); ++k) {
    EXPECT_EQ(first.predictions[k], second.predictions[k]);
    for (std::size_t c = 0; c < first.detector_sums[k].size(); ++c) {
      EXPECT_EQ(first.detector_sums[k][c], second.detector_sums[k][c]);
    }
  }
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.cached_lengths, before.cached_lengths);
  EXPECT_EQ(after.hits, before.hits);
}

TEST(Registry, AddGetNamesErase) {
  ModelRegistry registry;
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry.add("dense", make_model(cfg, 81));
  registry.add("smoothed", make_model(cfg, 82));
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"dense", "smoothed"}));
  EXPECT_NE(registry.find("dense"), nullptr);
  EXPECT_EQ(registry.find("absent"), nullptr);
  EXPECT_THROW(registry.get("absent"), ConfigError);
  EXPECT_TRUE(registry.erase("dense"));
  EXPECT_FALSE(registry.erase("dense"));
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, SerializeRoundTripServesIdentically) {
  const donn::DonnConfig cfg = tiny_config(16, 2);
  const donn::DonnModel model = make_model(cfg, 91);
  const std::string path = temp_path("serve_registry_model.odnn");
  donn::save_model(model, path);

  ModelRegistry registry;
  const auto loaded = registry.load("reloaded", path);
  ASSERT_EQ(loaded->num_layers(), model.num_layers());
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    EXPECT_EQ(max_abs_diff(loaded->phases()[l], model.phases()[l]), 0.0);
  }

  const auto inputs = random_inputs(cfg.grid, 5, 92);
  const auto from_disk = batch_predictions(*loaded, inputs);
  const auto in_memory = batch_predictions(model, inputs);
  EXPECT_EQ(from_disk, in_memory);
}

TEST(Registry, SaveLoadRoundTripSharesOneCodePath) {
  const donn::DonnConfig cfg = tiny_config(16, 2);
  ModelRegistry registry;
  registry.add("published", make_model(cfg, 93));
  const std::string path = temp_path("serve_registry_save.odnn");
  registry.save("published", path);
  EXPECT_THROW(registry.save("absent", path), ConfigError);

  ModelRegistry other;
  const auto reloaded = other.load("reloaded", path);
  const auto original = registry.get("published");
  ASSERT_EQ(reloaded->num_layers(), original->num_layers());
  for (std::size_t l = 0; l < original->num_layers(); ++l) {
    EXPECT_EQ(max_abs_diff(reloaded->phases()[l], original->phases()[l]), 0.0);
  }
}

TEST(Registry, TruncatedCheckpointFailsWithIoErrorAndPublishesNothing) {
  const donn::DonnConfig cfg = tiny_config(16, 2);
  ModelRegistry registry;
  registry.add("published", make_model(cfg, 94));
  const std::string path = temp_path("serve_registry_truncated.odnn");
  registry.save("published", path);

  // Chop the checkpoint mid-phase-data: load must throw IoError and must
  // not leave a half-loaded entry behind.
  std::error_code ec;
  const auto full = std::filesystem::file_size(path, ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(path, full / 2, ec);
  ASSERT_FALSE(ec);

  ModelRegistry other;
  EXPECT_THROW(other.load("broken", path), IoError);
  EXPECT_EQ(other.size(), 0u);
  EXPECT_EQ(other.find("broken"), nullptr);
}

TEST(Stats, NearestRankPercentilesAndCounters) {
  ServeStats stats;
  // 1ms..100ms: p50 = 50ms, p90 = 90ms, p99 = 99ms, max = 100ms.
  for (int ms = 1; ms <= 100; ++ms) {
    stats.record_request(static_cast<double>(ms) * 1e-3);
  }
  stats.record_batch(60);
  stats.record_batch(40);
  const auto snap = stats.snapshot();
  EXPECT_EQ(snap.requests, 100u);
  EXPECT_EQ(snap.batches, 2u);
  EXPECT_DOUBLE_EQ(snap.mean_batch_size, 50.0);
  EXPECT_NEAR(snap.p50_ms, 50.0, 1e-9);
  EXPECT_NEAR(snap.p90_ms, 90.0, 1e-9);
  EXPECT_NEAR(snap.p99_ms, 99.0, 1e-9);
  EXPECT_NEAR(snap.max_ms, 100.0, 1e-9);

  stats.reset();
  const auto cleared = stats.snapshot();
  EXPECT_EQ(cleared.requests, 0u);
  EXPECT_EQ(cleared.p99_ms, 0.0);
}

TEST(Stats, SingleRequestWindowFallsBackToItsLatency) {
  // One completed request: first and last completion coincide, so the
  // wall-clock window collapses to zero. The slowest latency stands in,
  // so a smoke bench with one request still reports a finite RPS.
  ServeStats stats;
  stats.record_request(0.004);
  const auto snap = stats.snapshot();
  EXPECT_EQ(snap.requests, 1u);
  EXPECT_NEAR(snap.window_seconds, 0.004, 1e-12);
  EXPECT_NEAR(snap.throughput_rps, 250.0, 1e-6);
}

TEST(Engine, WarmEngineServesFromPlanCacheOnly) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 171));
  const auto inputs = random_inputs(cfg.grid, 24, 172);

  InferenceEngine engine(registry);
  // Warm-up traffic builds whatever plan lengths this grid needs.
  for (std::size_t k = 0; k < 8; ++k) {
    (void)engine.submit("m", inputs[k]).get();
  }
  const auto warm = fft::plan_cache_stats();
  for (std::size_t k = 8; k < inputs.size(); ++k) {
    (void)engine.submit("m", inputs[k]).get();
  }
  const auto after = fft::plan_cache_stats();
  // A warmed engine does no plan lookups at all: misses, resident lengths
  // and hits all stay flat while traffic flows (each propagator holds its
  // plan from construction).
  EXPECT_EQ(after.misses, warm.misses);
  EXPECT_EQ(after.cached_lengths, warm.cached_lengths);
  EXPECT_EQ(after.hits, warm.hits);
}

TEST(Engine, ResolvesRequestsMatchingSingleSamplePath) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  auto model = registry->add("m", make_model(cfg, 101));
  const auto inputs = random_inputs(cfg.grid, 20, 102);

  InferenceEngine engine(registry);
  std::vector<std::future<PredictResult>> futures;
  for (const auto& input : inputs) {
    futures.push_back(engine.submit("m", input));
  }
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    PredictResult result = futures[k].get();
    EXPECT_EQ(result.predicted, single_prediction(*model, inputs[k]));
    const auto single = model->detector_sums(inputs[k]);
    ASSERT_EQ(result.detector_sums.size(), single.size());
    for (std::size_t c = 0; c < single.size(); ++c) {
      EXPECT_EQ(result.detector_sums[c], single[c]);
    }
  }
  const auto snap = engine.stats();
  EXPECT_EQ(snap.requests, inputs.size());
  EXPECT_EQ(snap.errors, 0u);
  EXPECT_GE(snap.mean_batch_size, 1.0);
}

TEST(Engine, ConcurrentSubmissionStress) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  auto model = registry->add("m", make_model(cfg, 111));

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 25;
  const auto inputs = random_inputs(cfg.grid, kThreads * kPerThread, 112);
  std::vector<std::size_t> expected;
  expected.reserve(inputs.size());
  for (const auto& input : inputs) {
    expected.push_back(single_prediction(*model, input));
  }

  EngineOptions options;
  options.max_batch = 16;
  InferenceEngine engine(registry, options);

  std::vector<std::size_t> got(inputs.size(), ~std::size_t{0});
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t k = t * kPerThread + i;
        got[k] = engine.submit("m", inputs[k]).get().predicted;
      }
    });
  }
  for (auto& client : clients) client.join();

  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_EQ(got[k], expected[k]) << "sample " << k;
  }
  const auto snap = engine.stats();
  EXPECT_EQ(snap.requests, inputs.size());
  EXPECT_EQ(snap.errors, 0u);
  EXPECT_GE(snap.batches, 1u);
  EXPECT_GT(snap.throughput_rps, 0.0);
}

TEST(Engine, ServesMultipleVariantsInOneBatchWindow) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  auto dense = registry->add("dense", make_model(cfg, 121));
  auto smoothed = registry->add("smoothed", make_model(cfg, 122));
  const auto inputs = random_inputs(cfg.grid, 12, 123);

  InferenceEngine engine(registry);
  std::vector<std::future<PredictResult>> dense_futures;
  std::vector<std::future<PredictResult>> smoothed_futures;
  for (const auto& input : inputs) {
    dense_futures.push_back(engine.submit("dense", input));
    smoothed_futures.push_back(engine.submit("smoothed", input));
  }
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_EQ(dense_futures[k].get().predicted,
              single_prediction(*dense, inputs[k]));
    EXPECT_EQ(smoothed_futures[k].get().predicted,
              single_prediction(*smoothed, inputs[k]));
  }
}

TEST(Engine, UnknownModelRejectsViaFuture) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 131));
  const auto inputs = random_inputs(cfg.grid, 1, 132);

  InferenceEngine engine(registry);
  auto future = engine.submit("no-such-model", inputs[0]);
  EXPECT_THROW(future.get(), ConfigError);
  auto ok = engine.submit("m", inputs[0]);
  EXPECT_NO_THROW(ok.get());
  EXPECT_EQ(engine.stats().errors, 1u);
}

TEST(Engine, BadInputFailsAloneWithoutPoisoningItsBatch) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  auto model = registry->add("m", make_model(cfg, 161));
  const auto good = random_inputs(cfg.grid, 4, 162);
  const auto bad = random_inputs(donn::DonnConfig::scaled(32).grid, 1, 163);

  // Long batch window so the malformed request is co-batched with valid
  // ones; only its own future may fail.
  EngineOptions options;
  options.batch_window = std::chrono::microseconds(20000);
  options.max_batch = 8;
  InferenceEngine engine(registry, options);
  std::vector<std::future<PredictResult>> futures;
  futures.push_back(engine.submit("m", good[0]));
  futures.push_back(engine.submit("m", bad[0]));
  futures.push_back(engine.submit("m", good[1]));

  EXPECT_EQ(futures[0].get().predicted, single_prediction(*model, good[0]));
  EXPECT_THROW(futures[1].get(), ShapeError);
  EXPECT_EQ(futures[2].get().predicted, single_prediction(*model, good[1]));
  EXPECT_EQ(engine.stats().errors, 1u);
}

TEST(Engine, NonFiniteInputsFailAloneAndValidSumsStayBitExact) {
  // One NaN and one Inf sample co-batched with valid ones: each bad request
  // fails with NumericsError and is counted as an error; the valid ones get
  // detector sums bit-identical to the single-sample path.
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  auto model = registry->add("m", make_model(cfg, 165));
  const auto good = random_inputs(cfg.grid, 4, 166);
  std::vector<optics::Field> bad = random_inputs(cfg.grid, 2, 167);
  bad[0].values()(3, 5) = {std::nan(""), 0.0};
  bad[1].values()(7, 1) = {0.5, std::numeric_limits<double>::infinity()};

  EngineOptions options;
  options.batch_window = std::chrono::microseconds(20000);
  options.max_batch = 8;
  InferenceEngine engine(registry, options);
  std::vector<std::future<PredictResult>> futures;
  futures.push_back(engine.submit("m", good[0]));
  futures.push_back(engine.submit("m", bad[0]));
  futures.push_back(engine.submit("m", good[1]));
  futures.push_back(engine.submit("m", good[2]));
  futures.push_back(engine.submit("m", bad[1]));
  futures.push_back(engine.submit("m", good[3]));

  EXPECT_THROW(futures[1].get(), NumericsError);
  EXPECT_THROW(futures[4].get(), NumericsError);
  const std::size_t good_slots[] = {0, 2, 3, 5};
  for (std::size_t k = 0; k < 4; ++k) {
    const PredictResult result = futures[good_slots[k]].get();
    const std::vector<double> single = model->detector_sums(good[k]);
    ASSERT_EQ(result.detector_sums.size(), single.size());
    EXPECT_EQ(std::memcmp(result.detector_sums.data(), single.data(),
                          single.size() * sizeof(double)),
              0)
        << "valid request " << k;
    EXPECT_EQ(result.predicted, single_prediction(*model, good[k]));
  }
  EXPECT_EQ(engine.stats().errors, 2u);
}

TEST(Engine, ThrowAfterDequeueFailsItsBatchAndTheDrainThreadServesOn) {
  // Anything that throws once a batch has left the queue (here the hook;
  // when serving, building a model's forward pass can run out of memory)
  // must resolve every future of that batch with the exception and count
  // it as an error, not escape the drain thread and terminate the process.
  // The next batch is served normally.
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  auto model = registry->add("m", make_model(cfg, 171));
  const auto inputs = random_inputs(cfg.grid, 6, 172);

  // A long window with max_batch 3 makes each three submissions one batch.
  std::atomic<std::size_t> batches{0};
  EngineOptions options;
  options.batch_window = std::chrono::microseconds(10'000'000);
  options.max_batch = 3;
  options.on_batch_start = [&batches](std::size_t) {
    if (batches.fetch_add(1) == 0) throw std::runtime_error("hook failed");
  };
  InferenceEngine engine(registry, options);

  std::vector<std::future<PredictResult>> first;
  for (std::size_t k = 0; k < 3; ++k) {
    first.push_back(engine.submit("m", inputs[k]));
  }
  for (auto& future : first) EXPECT_THROW(future.get(), std::runtime_error);
  EXPECT_EQ(engine.stats().errors, 3u);

  std::vector<std::future<PredictResult>> second;
  for (std::size_t k = 3; k < 6; ++k) {
    second.push_back(engine.submit("m", inputs[k]));
  }
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(second[k].get().predicted,
              single_prediction(*model, inputs[3 + k]));
  }
  EXPECT_EQ(batches.load(), 2u);
  EXPECT_EQ(engine.stats().errors, 3u);
}

TEST(Engine, ShutdownDrainsQueuedWorkAndRejectsNewWork) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 141));
  const auto inputs = random_inputs(cfg.grid, 10, 142);

  InferenceEngine engine(registry);
  std::vector<std::future<PredictResult>> futures;
  for (const auto& input : inputs) {
    futures.push_back(engine.submit("m", input));
  }
  engine.shutdown();
  for (auto& future : futures) EXPECT_NO_THROW(future.get());
  EXPECT_THROW(engine.submit("m", inputs[0]), Error);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(Engine, HotSwapPicksUpReplacedModel) {
  auto registry = std::make_shared<ModelRegistry>();
  const donn::DonnConfig cfg = tiny_config(16, 2);
  registry->add("m", make_model(cfg, 151));
  const auto inputs = random_inputs(cfg.grid, 3, 152);

  InferenceEngine engine(registry);
  for (const auto& input : inputs) engine.submit("m", input).get();

  // Replace the published snapshot; subsequent requests must be served by
  // the new masks (plan cache rebuilds against the new pointer).
  auto replacement = registry->add("m", make_model(cfg, 153));
  for (const auto& input : inputs) {
    EXPECT_EQ(engine.submit("m", input).get().predicted,
              single_prediction(*replacement, input));
  }
}

}  // namespace
}  // namespace odonn::serve
