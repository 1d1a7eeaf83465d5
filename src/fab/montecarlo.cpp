#include "fab/montecarlo.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"
#include "optics/encode.hpp"
#include "tensor/stats.hpp"

namespace odonn::fab {

namespace {

/// Accuracy of `model` on `eval`, from the eval set's first hops.
double accuracy_of(const donn::DonnModel& model,
                   const donn::DonnModel::FirstHops& hops,
                   const data::Dataset& eval) {
  std::vector<std::size_t> predictions;
  model.infer_batch(hops, model.modulation_frames(), &predictions, nullptr,
                    nullptr);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    correct += predictions[i] == eval.label(i) ? 1 : 0;
  }
  return static_cast<double>(correct) /
         static_cast<double>(predictions.size());
}

}  // namespace

std::uint64_t RobustnessReport::digest() const {
  // The shared FNV-1a-over-double-bits fold (tensor/stats): any single-bit
  // difference in any realization's accuracy changes the digest.
  std::uint64_t hash = kFnv1aBasis;
  hash = fnv1a_mix(hash, clean_accuracy);
  for (const double acc : accuracies) hash = fnv1a_mix(hash, acc);
  return hash;
}

double yield_at(const RobustnessReport& report, double threshold) {
  if (report.accuracies.empty()) return 0.0;
  std::size_t pass = 0;
  for (const double acc : report.accuracies) pass += acc >= threshold ? 1 : 0;
  return static_cast<double>(pass) /
         static_cast<double>(report.accuracies.size());
}

double percentile(const RobustnessReport& report, double q) {
  if (report.accuracies.empty()) return 0.0;
  // The repo-wide nearest-rank rule (tensor/stats) — shared with serve's
  // latency percentiles, boundary-exact at integral q*R.
  return percentile_nearest_rank(report.accuracies, q);
}

MonteCarloEvaluator::MonteCarloEvaluator(const data::Dataset& eval_set,
                                         const MonteCarloOptions& options)
    : eval_(eval_set), options_(options) {
  ODONN_CHECK(options_.realizations > 0,
              "monte carlo: need at least one realization");
  ODONN_CHECK(options_.yield_threshold >= 0.0 &&
                  options_.yield_threshold <= 1.0,
              "monte carlo: yield_threshold must be in [0, 1]");
  ODONN_CHECK(!eval_.empty(), "monte carlo: eval set is empty");
}

std::shared_ptr<const donn::DonnModel::FirstHops>
MonteCarloEvaluator::first_hops(const donn::DonnModel& model) const {
  // The cache is replaced (never mutated in place) under the mutex, so
  // concurrent evaluate() calls are safe: each caller keeps its own
  // shared_ptr snapshot for the whole run. The build runs outside the lock:
  // it fans out over the pool, and a thread waiting on that fan-out may run
  // another evaluate() of this evaluator meanwhile.
  {
    MutexLock lock(cache_mutex_);
    if (hops_ != nullptr && model.accepts(*hops_)) return hops_;
  }
  const optics::GridSpec grid = model.config().grid;
  auto hops = std::make_shared<const donn::DonnModel::FirstHops>(
      model.first_hops(eval_.size(), [&](std::size_t i) {
        return optics::encode_image(eval_.image(i), grid);
      }));
  MutexLock lock(cache_mutex_);
  hops_ = hops;
  return hops;
}

RobustnessReport MonteCarloEvaluator::evaluate(
    const std::string& name, const donn::DonnModel& model,
    const PerturbationStack& stack) const {
  ODONN_OBS_SPAN(eval_span, "fab.evaluate:" + name);
  const optics::GridSpec grid = model.config().grid;
  ODONN_CHECK(eval_.image(0).rows() == grid.n &&
                  eval_.image(0).cols() == grid.n,
              "monte carlo: eval images must match the model grid (use "
              "data::resize_dataset)");

  const std::shared_ptr<const donn::DonnModel::FirstHops> snapshot =
      first_hops(model);
  const donn::DonnModel::FirstHops& hops = *snapshot;

  RobustnessReport report;
  report.model_name = name;
  report.realizations = options_.realizations;
  report.yield_threshold = options_.yield_threshold;
  report.clean_accuracy = accuracy_of(model, hops, eval_);

  report.accuracies.assign(options_.realizations, 0.0);
  // Parallel across realizations; the nested infer_batch runs inline on
  // each worker (common/parallel runs nested loops on the caller thread).
  // Each slot is written exactly once at its realization index, so the
  // report is bitwise independent of thread count and scheduling.
  parallel_for(0, options_.realizations, [&](std::size_t r) {
    const auto realization_start = std::chrono::steady_clock::now();
    Rng rng = realization_rng(options_.seed, r, options_.antithetic);
    const donn::DonnModel realized = realize_device(
        model, stack, options_.crosstalk, options_.deploy_crosstalk, rng);
    report.accuracies[r] = accuracy_of(realized, hops, eval_);
    ODONN_OBS_COUNT("fab.realizations", 1);
    ODONN_OBS_HIST("fab.realization_ms",
                   std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - realization_start)
                       .count());
  });

  double sum = 0.0;
  report.min = report.accuracies.front();
  report.max = report.accuracies.front();
  for (const double acc : report.accuracies) {
    sum += acc;
    report.min = std::min(report.min, acc);
    report.max = std::max(report.max, acc);
  }
  report.mean = sum / static_cast<double>(report.accuracies.size());
  double var = 0.0;
  for (const double acc : report.accuracies) {
    var += (acc - report.mean) * (acc - report.mean);
  }
  report.stddev =
      std::sqrt(var / static_cast<double>(report.accuracies.size()));
  report.p5 = percentile(report, 0.05);
  report.p50 = percentile(report, 0.50);
  report.p95 = percentile(report, 0.95);
  report.yield = yield_at(report, options_.yield_threshold);
  return report;
}

std::vector<RobustnessReport> MonteCarloEvaluator::compare(
    const std::vector<std::pair<std::string, const donn::DonnModel*>>&
        variants,
    const PerturbationStack& stack) const {
  std::vector<RobustnessReport> reports;
  reports.reserve(variants.size());
  for (const auto& [name, model] : variants) {
    ODONN_CHECK(model != nullptr, "monte carlo: null model variant");
    // Realization seeds depend only on (options.seed, r): every variant
    // sees the same perturbation draws — common random numbers.
    reports.push_back(evaluate(name, *model, stack));
  }
  return reports;
}

}  // namespace odonn::fab
