// Serving demo: train a small DONN, publish two pipeline variants (dense
// and 2*pi-smoothed) in a ModelRegistry, and serve traffic through the
// asynchronous InferenceEngine — ending with the paper's §III-D2 claim
// observed live: the smoothed variant answers every request identically to
// the dense one while its masks are far smoother to fabricate.
//
//   ./serving_demo [grid=32] [samples=240] [epochs=2] [requests=200] [seed=7]
#include <cstdio>
#include <future>
#include <vector>

#include "common/config.hpp"
#include "data/synthetic.hpp"
#include "data/transform.hpp"
#include "donn/model.hpp"
#include "donn/serialize.hpp"
#include "optics/encode.hpp"
#include "roughness/report.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "smooth2pi/two_pi_opt.hpp"
#include "train/trainer.hpp"

using namespace odonn;

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const std::size_t grid = cfg.get_count("grid", 32);
  const std::size_t samples = cfg.get_count("samples", 240);
  const std::size_t epochs = cfg.get_count("epochs", 2);
  const std::size_t requests = cfg.get_count("requests", 200);
  const std::uint64_t seed = cfg.get_count("seed", 7);

  // 1. Train a small model (same recipe shape as examples/quickstart).
  const auto raw = data::make_synthetic(data::SyntheticFamily::Digits, samples,
                                        seed);
  const auto resized = data::resize_dataset(raw, grid);
  Rng split_rng(seed + 1);
  const auto [train_set, test_set] = resized.split(0.8, split_rng);

  donn::DonnConfig config = donn::DonnConfig::scaled(grid);
  Rng rng(seed + 2);
  donn::DonnModel model(config, rng);
  train::TrainOptions topt;
  topt.epochs = epochs;
  topt.batch_size = 50;
  topt.lr = 0.2;
  topt.seed = seed + 3;
  train::Trainer trainer(model, train_set, topt);
  trainer.run();
  std::printf("trained: %zu layers on %zux%zu grid\n", model.num_layers(),
              grid, grid);

  // 2. Produce the 2*pi-smoothed variant of the same masks.
  const auto rough_before = roughness::report(model.phases());
  const auto smoothed = smooth2pi::optimize_2pi_all(model.phases(), {});
  std::vector<MatrixD> smoothed_phases;
  double rough_after = 0.0;
  for (const auto& r : smoothed) {
    smoothed_phases.push_back(r.optimized);
    rough_after += r.roughness_after;
  }
  rough_after /= static_cast<double>(smoothed.size());

  // 3. Publish both variants — the smoothed one via a serialize round-trip,
  //    as a deployment would load it from a checkpoint artifact.
  auto registry = std::make_shared<serve::ModelRegistry>();
  donn::DonnModel smoothed_model(config, rng);
  smoothed_model.set_phases(std::move(smoothed_phases));
  const std::string path = "serving_demo_smoothed.odnn";
  donn::save_model(smoothed_model, path);
  registry->add("dense", std::move(model));
  registry->load("smoothed", path);
  std::printf("registry: serving %zu variants (dense R=%.2f, smoothed "
              "R=%.2f)\n", registry->size(), rough_before.overall, rough_after);

  // 4. Serve interleaved traffic against both variants.
  serve::EngineOptions options;
  options.max_batch = 32;
  serve::InferenceEngine engine(registry, options);
  const std::size_t n_requests = std::min(requests, test_set.size());
  std::vector<std::future<serve::PredictResult>> dense_futures;
  std::vector<std::future<serve::PredictResult>> smoothed_futures;
  for (std::size_t k = 0; k < n_requests; ++k) {
    const optics::Field input =
        optics::encode_image(test_set.image(k), config.grid);
    dense_futures.push_back(engine.submit("dense", input));
    smoothed_futures.push_back(engine.submit("smoothed", input));
  }
  std::size_t agree = 0;
  std::size_t correct = 0;
  for (std::size_t k = 0; k < n_requests; ++k) {
    const auto dense = dense_futures[k].get();
    const auto smooth = smoothed_futures[k].get();
    agree += dense.predicted == smooth.predicted;
    correct += dense.predicted == test_set.label(k);
  }

  const auto stats = engine.stats();
  std::printf("served %llu requests in %llu batches (mean batch %.1f)\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.batches),
              stats.mean_batch_size);
  std::printf("latency p50/p99: %.2f / %.2f ms, throughput %.0f req/s\n",
              stats.p50_ms, stats.p99_ms, stats.throughput_rps);
  std::printf("dense accuracy on served traffic: %.3f\n",
              static_cast<double>(correct) / static_cast<double>(n_requests));
  std::printf("dense vs smoothed agreement: %zu/%zu (2*pi smoothing is "
              "inference-invariant)\n", agree, n_requests);
  return agree == n_requests ? 0 : 1;
}
