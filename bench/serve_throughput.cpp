// Serving throughput bench: samples/sec and p50/p99 latency of the batched
// inference path (direct BatchedForward calls and the full InferenceEngine
// pipeline) versus the naive one-sample-at-a-time predict() loop, across
// batch sizes, on the scaled(32) config by default. The naive loop and the
// batched sizes run as 5 interleaved passes; each reports its median pass,
// so a drift in host speed hits every mode alike.
//
// Emits a JSON document (stdout, after the human-readable table) so later
// PRs can track the perf trajectory:
//   { "bench": "serve_throughput", "grid": ..., "threads": ...,
//     "naive": {...}, "rows": [ {"mode": ..., "batch": ..., ...}, ... ] }
//
//   ./serve_throughput [grid=32] [samples=512] [seed=7] [bench.scale=...]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "donn/model.hpp"
#include "serve/batched_forward.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "tensor/stats.hpp"

using namespace odonn;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Interleaved passes per mode; throughput is the median pass.
constexpr std::size_t kPasses = 5;

struct Measurement {
  std::string mode;
  std::size_t batch = 0;
  double samples_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Median pass throughput; latency percentiles over every pass's samples.
Measurement summarize(std::string mode, std::size_t batch,
                      const std::vector<double>& rates,
                      const std::vector<double>& latencies) {
  Measurement m;
  m.mode = std::move(mode);
  m.batch = batch;
  m.samples_per_sec = percentile_nearest_rank(rates, 0.5);
  m.p50_ms = percentile_nearest_rank(latencies, 0.50) * 1e3;
  m.p99_ms = percentile_nearest_rank(latencies, 0.99) * 1e3;
  return m;
}

/// One naive pass: predict() per sample. Returns samples/sec.
double naive_pass(const donn::DonnModel& model,
                  const std::vector<optics::Field>& inputs,
                  std::vector<double>& latencies) {
  const Clock::time_point start = Clock::now();
  for (const auto& input : inputs) {
    const Clock::time_point t0 = Clock::now();
    model.predict(input);
    latencies.push_back(seconds_since(t0));
  }
  return static_cast<double>(inputs.size()) / seconds_since(start);
}

/// One batched pass over all inputs in windows of `batch`. Every sample in
/// a window observes the whole batch's latency. Returns samples/sec.
double batched_pass(const serve::BatchedForward& forward,
                    const std::vector<optics::Field>& inputs,
                    std::size_t batch, std::vector<double>& latencies) {
  const Clock::time_point start = Clock::now();
  std::size_t done = 0;
  while (done < inputs.size()) {
    const std::size_t take = std::min(batch, inputs.size() - done);
    std::vector<optics::Field> window(
        inputs.begin() + static_cast<std::ptrdiff_t>(done),
        inputs.begin() + static_cast<std::ptrdiff_t>(done + take));
    const Clock::time_point t0 = Clock::now();
    forward.run(window);
    latencies.insert(latencies.end(), take, seconds_since(t0));
    done += take;
  }
  return static_cast<double>(inputs.size()) / seconds_since(start);
}

void print_row(const Measurement& m) {
  std::printf("%-14s | %7zu | %12.1f | %8.3f | %8.3f\n", m.mode.c_str(),
              m.batch, m.samples_per_sec, m.p50_ms, m.p99_ms);
}

std::string json_row(const Measurement& m) {
  return "{\"mode\": " + bench::json_quote(m.mode) +
         ", \"batch\": " + std::to_string(m.batch) +
         ", \"samples_per_sec\": " + bench::json_number(m.samples_per_sec) +
         ", \"p50_ms\": " + bench::json_number(m.p50_ms) +
         ", \"p99_ms\": " + bench::json_number(m.p99_ms) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  const bench::BenchConfig bc = bench::make_bench_config(argc, argv);
  // This bench defaults to the acceptance config — scaled(32) — rather than
  // the table benches' scale-dependent grid; explicit grid=/samples= win.
  const std::size_t grid = cli.has("grid") ? bc.grid : 32;
  const std::size_t samples =
      cli.has("samples") ? bc.samples : std::size_t{512};

  donn::DonnConfig config = donn::DonnConfig::scaled(grid);
  config.init = donn::PhaseInit::Uniform;
  Rng rng(bc.seed);
  donn::DonnModel trained(config, rng);

  const std::vector<optics::Field> inputs =
      bench::random_fields(config.grid, samples, bc.seed);

  std::printf("=== serve_throughput ===\n");
  std::printf("grid=%zu layers=%zu samples=%zu threads=%zu seed=%llu\n\n",
              grid, trained.num_layers(), samples, thread_count(),
              static_cast<unsigned long long>(bc.seed));
  std::printf("%-14s | %7s | %12s | %8s | %8s\n", "mode", "batch",
              "samples/sec", "p50 ms", "p99 ms");

  // ---- naive one-sample loop (the pre-serving deployment story) vs the
  // plan-reusing batched path across batch sizes, in interleaved passes ----
  auto published = std::make_shared<const donn::DonnModel>(std::move(trained));
  const serve::BatchedForward forward(published);
  const std::vector<std::size_t> batch_sizes = {1, 8, 32, 128};
  std::vector<double> naive_rates, naive_latencies;
  std::vector<std::vector<double>> rates(batch_sizes.size());
  std::vector<std::vector<double>> latencies(batch_sizes.size());
  {
    std::vector<double> warm_up;
    naive_pass(*published, inputs, warm_up);
    for (const std::size_t batch : batch_sizes) {
      batched_pass(forward, inputs, batch, warm_up);
    }
  }
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    naive_rates.push_back(naive_pass(*published, inputs, naive_latencies));
    for (std::size_t i = 0; i < batch_sizes.size(); ++i) {
      rates[i].push_back(
          batched_pass(forward, inputs, batch_sizes[i], latencies[i]));
    }
  }
  const Measurement naive =
      summarize("naive_loop", 1, naive_rates, naive_latencies);
  print_row(naive);
  std::vector<Measurement> rows;
  double best_batched = 0.0;
  std::size_t best_batch = 0;
  for (std::size_t i = 0; i < batch_sizes.size(); ++i) {
    rows.push_back(summarize("batched", batch_sizes[i], rates[i], latencies[i]));
    print_row(rows.back());
    if (rows.back().samples_per_sec > best_batched) {
      best_batched = rows.back().samples_per_sec;
      best_batch = batch_sizes[i];
    }
  }

  // ---- full engine pipeline (queue + batch window + futures) -------------
  {
    auto registry = std::make_shared<serve::ModelRegistry>();
    registry->add("served", donn::DonnModel(*published));
    serve::EngineOptions options;
    options.max_batch = 64;
    serve::InferenceEngine engine(registry, options);
    for (std::size_t k = 0; k < std::min<std::size_t>(32, samples); ++k) {
      engine.submit("served", inputs[k]).get();  // warm-up
    }
    engine.reset_stats();  // keep cold-start latencies out of the record
    std::vector<std::future<serve::PredictResult>> futures;
    futures.reserve(samples);
    const Clock::time_point start = Clock::now();
    for (std::size_t k = 0; k < samples; ++k) {
      futures.push_back(engine.submit("served", inputs[k]));
    }
    for (auto& future : futures) future.get();
    const double elapsed = seconds_since(start);
    const auto snap = engine.stats();
    Measurement m;
    m.mode = "engine";
    m.batch = options.max_batch;
    m.samples_per_sec = static_cast<double>(samples) / elapsed;
    m.p50_ms = snap.p50_ms;
    m.p99_ms = snap.p99_ms;
    print_row(m);
    std::printf("engine: %llu batches, mean batch %.1f\n",
                static_cast<unsigned long long>(snap.batches),
                snap.mean_batch_size);
    rows.push_back(std::move(m));
  }

  // Both paths run the same per-sample frame runner, so what batching adds
  // is the shared modulation-table snapshot and workspace (the naive
  // predict() rebuilds exp(i*phi) and its buffers per call) plus sample
  // parallelism: the gate is only that it wins, on medians of interleaved
  // passes.
  const double speedup =
      naive.samples_per_sec > 0.0 ? best_batched / naive.samples_per_sec : 0.0;
  std::printf("\nbatched/naive speedup: %.2fx (best batched %.1f samples/s at "
              "batch %zu vs naive %.1f samples/s; medians of %zu interleaved "
              "passes)\n",
              speedup, best_batched, best_batch, naive.samples_per_sec,
              kPasses);
  int failures = 0;
  failures += !bench::shape_check(speedup > 1.0,
                                  "batched throughput > naive loop");

  std::printf("\n");
  std::printf("{\"bench\": \"serve_throughput\", \"grid\": %zu, "
              "\"layers\": %zu, \"samples\": %zu, \"threads\": %zu, "
              "\"passes\": %zu, \"speedup\": %s,\n \"naive\": %s,\n "
              "\"rows\": [\n",
              grid, published->num_layers(), samples, thread_count(), kPasses,
              bench::json_number(speedup).c_str(), json_row(naive).c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("  %s%s\n", json_row(rows[i]).c_str(),
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("]}\n");
  return failures;
}
