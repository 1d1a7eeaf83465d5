#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <thread>
#include <utility>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "data/synthetic.hpp"
#include "data/transform.hpp"
#include "fab/spec.hpp"
#include "fft/fft_plan.hpp"
#include "optics/encode.hpp"
#include "serve/registry.hpp"
#include "tensor/stats.hpp"
#include "train/recipe.hpp"

namespace perfbench {

namespace {

using namespace odonn;

const std::string kModelName = "served";

/// Starts the shared pool and builds the FFT plan for `n`, so neither
/// lands in the first timed unit.
void warm_up(std::size_t n) {
  fft::plan_for(n);
  parallel_for(0, 4 * thread_count(), [](std::size_t) {});
}

bench::BenchConfig train_config(const Options& options, std::uint64_t seed) {
  bench::BenchConfig config;  // default bench scale
  if (options.tiny) {
    config.grid = 32;
    config.samples = 200;
    config.epochs_dense = 1;
    config.epochs_sparse = 1;
    config.epochs_finetune = 0;
    config.batch = 50;
    config.two_pi_iterations = 200;
  }
  config.seed = seed;
  return config;
}

data::Dataset mc_eval_set(const Options& options, std::uint64_t seed) {
  const std::size_t grid = options.tiny ? 32 : 200;
  const std::size_t samples = options.tiny ? 8 : 20;
  return data::resize_dataset(
      data::make_synthetic(data::SyntheticFamily::Digits, samples, seed + 100),
      grid);
}

fab::MonteCarloOptions mc_options(const Options& options, std::uint64_t seed) {
  fab::MonteCarloOptions mc;
  mc.realizations = options.tiny ? 4 : 16;
  mc.seed = seed;
  mc.deploy_crosstalk = true;
  return mc;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

donn::DonnModel uniform_model(std::size_t grid, std::uint64_t seed) {
  donn::DonnConfig config = donn::DonnConfig::scaled(grid);
  config.init = donn::PhaseInit::Uniform;
  Rng rng(seed);
  return donn::DonnModel(config, rng);
}

std::vector<optics::Field> random_inputs(const donn::DonnModel& model,
                                         std::size_t count, Rng& rng) {
  const std::size_t n = model.config().grid.n;
  std::vector<optics::Field> inputs;
  inputs.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    MatrixD image(n, n);
    for (auto& v : image) v = rng.uniform();
    inputs.push_back(optics::encode_image(image, model.config().grid));
  }
  return inputs;
}

// ------------------------------------------------------------------ train

TrainWorkload::TrainWorkload(const Context& ctx)
    : ctx_(ctx),
      config_(train_config(ctx.options, ctx.input_seed)),
      recipe_(bench::recipe_options(
          config_, bench::table_spec(data::SyntheticFamily::Digits)
                       .paper_block)),
      data_(bench::prepare_dataset(data::SyntheticFamily::Digits, config_)) {
  warm_up(config_.grid);
}

TrainWorkload::Unit TrainWorkload::run_unit(bool traced) {
  Unit unit;
  train::TableRunOptions table;
  if (traced) {
    table.progress = [&unit](const train::TableProgress& event) {
      if (event.finished) unit.stage_s[event.stage_name] += event.seconds;
    };
  }
  const Clock::time_point start = Clock::now();
  std::vector<train::RecipeResult> rows = train::run_recipes(
      {train::RecipeRequest{train::RecipeKind::OursD, recipe_, ""}},
      data_.train, data_.test, table);
  unit.seconds = seconds_since(start);

  train::RecipeResult& row = rows.front();
  if (ctx_.options.corrupt) {
    row.trained_phases.front()(0, 0) =
        flip_low_bit(row.trained_phases.front()(0, 0));
  }
  ctx_.outcome.record(ctx_.gate.check(
      kTrainName, "trained", bench::phases_digest(row.trained_phases)));
  ctx_.outcome.record(ctx_.gate.check(
      kTrainName, "smoothed", bench::phases_digest(row.smoothed_phases)));
  return unit;
}

// --------------------------------------------------------------------- mc

McWorkload::McWorkload(const Context& ctx)
    : ctx_(ctx),
      eval_(mc_eval_set(ctx.options, ctx.input_seed)),
      model_(uniform_model(eval_.image(0).rows(), ctx.input_seed)),
      stack_(fab::parse_perturbation_stack(fab::kDefaultPerturbationSpec)),
      options_(mc_options(ctx.options, ctx.input_seed)),
      evaluator_(eval_, options_) {
  warm_up(model_.config().grid.n);
}

double McWorkload::run_unit() {
  const Clock::time_point start = Clock::now();
  fab::RobustnessReport report = evaluator_.evaluate("mc", model_, stack_);
  const double seconds = seconds_since(start);
  if (ctx_.options.corrupt) {
    report.accuracies.front() = flip_low_bit(report.accuracies.front());
  }
  ctx_.outcome.record(ctx_.gate.check(kMcName, "report", report.digest()));
  return seconds;
}

// ------------------------------------------------------------------ serve

ServeWorkload::ServeWorkload(const Context& ctx)
    : ctx_(ctx),
      corrupt_pending_(ctx.options.corrupt) {
  constexpr std::size_t kGrid = 32;
  const std::size_t pool_size = ctx_.options.tiny ? 32 : 256;
  auto registry = std::make_shared<serve::ModelRegistry>();
  const std::shared_ptr<const donn::DonnModel> model =
      registry->add(kModelName, uniform_model(kGrid, ctx_.input_seed));

  Rng data_rng(ctx_.input_seed + 1);
  pool_ = random_inputs(*model, pool_size, data_rng);
  // Expected outputs come from the model's own batched path, which the
  // serve contract keeps bitwise identical to the fused serve kernel.
  reference_ = model->detector_sums_batch(pool_);
  std::uint64_t hash = kFnv1aBasis;
  for (const auto& sums : reference_) {
    for (const double v : sums) hash = fnv1a_mix(hash, v);
  }
  ctx_.outcome.record(ctx_.gate.check(kServeName, "responses", hash));

  serve::ClusterOptions options;
  options.replicas = 2;
  options.continuous = true;
  options.engine.max_batch = 8;
  options.engine.max_queue = 1 << 16;
  options.engine.inner_threads = 1;
  cluster_ = std::make_unique<serve::ServeCluster>(registry, options);

  warm_up(kGrid);
  std::vector<std::future<serve::PredictResult>> warm;
  for (std::size_t k = 0; k < 64; ++k) {
    warm.push_back(cluster_->submit(kModelName, pool_[k % pool_.size()]));
  }
  for (auto& f : warm) f.get();
}

bool ServeWorkload::check_response(std::size_t k, serve::PredictResult& r) {
  if (corrupt_pending_ && !r.detector_sums.empty()) {
    r.detector_sums.front() = flip_low_bit(r.detector_sums.front());
    corrupt_pending_ = false;
  }
  return same_bits(r.detector_sums, reference_[k % pool_.size()]);
}

ServeWorkload::Saturation ServeWorkload::saturation(double seconds) {
  Saturation sat;
  cluster_->reset_stats();
  const double slice = ctx_.options.tiny ? 0.05 : 0.25;
  std::deque<std::future<serve::PredictResult>> inflight;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::uint64_t hash = kFnv1aBasis;  // first pass through the pool, in order
  const Clock::time_point phase_start = Clock::now();
  Clock::time_point slice_start = phase_start;
  std::size_t slice_completed = 0;
  bool measuring = true;
  while (measuring || !inflight.empty()) {
    while (measuring && inflight.size() < kInFlight) {
      try {
        inflight.push_back(
            cluster_->submit(kModelName, pool_[submitted % pool_.size()]));
      } catch (const std::exception&) {
        inflight.emplace_back();  // rejected: counted below, never retried
      }
      ++submitted;
    }
    bool ok = false;
    if (inflight.front().valid()) {
      try {
        serve::PredictResult r = inflight.front().get();
        ok = check_response(completed, r);
        if (completed < pool_.size()) {
          for (const double v : r.detector_sums) hash = fnv1a_mix(hash, v);
        }
      } catch (const std::exception&) {
        ok = false;
      }
    }
    inflight.pop_front();
    ctx_.outcome.record(ok);
    if (++completed == pool_.size()) {
      ctx_.outcome.record(ctx_.gate.check(kServeName, "responses", hash));
    }
    ++slice_completed;
    const double elapsed = seconds_since(slice_start);
    if (measuring && elapsed >= slice) {
      sat.slice_rps.push_back(static_cast<double>(slice_completed) / elapsed);
      slice_start = Clock::now();
      slice_completed = 0;
      measuring = seconds_since(phase_start) < seconds ||
                  sat.slice_rps.size() < 3;
    }
  }
  sat.mean_batch = cluster_->stats().mean_batch_size;
  return sat;
}

ServeWorkload::OpenLoop ServeWorkload::open_loop(double rate, double seconds) {
  OpenLoop open;
  open.offered_rps = rate;
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(rate * seconds)));
  cluster_->reset_stats();
  std::vector<std::future<serve::PredictResult>> futures(n);
  open.gen_lag.assign(n, 0.0);

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t k = 0; k < n; ++k) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(k) /
                                                  rate));
    optics::Field input = pool_[k % pool_.size()];
    std::this_thread::sleep_until(due);
    open.gen_lag[k] = std::max(0.0, seconds_since(due));
    try {
      futures[k] = cluster_->submit(kModelName, std::move(input));
    } catch (const std::exception&) {
      // Rejected at admission: stays invalid, counted below.
    }
  }

  for (std::size_t k = 0; k < n; ++k) {
    bool ok = false;
    if (futures[k].valid()) {
      try {
        serve::PredictResult r = futures[k].get();
        ok = check_response(k, r);
        open.latency.push_back(open.gen_lag[k] + r.latency.total_s);
        open.queue_wait.push_back(r.latency.queue_wait_s);
        open.batch_wait.push_back(r.latency.batch_wait_s);
        open.compute.push_back(r.latency.compute_s);
      } catch (const std::exception&) {
        ok = false;
      }
    }
    ctx_.outcome.record(ok);
  }
  open.mean_batch = cluster_->stats().mean_batch_size;

  return open;
}

}  // namespace perfbench
