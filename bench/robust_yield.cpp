// Fabrication-yield bench: Monte-Carlo robustness of the paper's recipes
// under device-to-device fabrication variability (src/fab).
//
// Trains Baseline and Ours-C at the bench scale, 2*pi-smooths both, then
// subjects the variants to R perturbed "fabricated devices" (correlated
// surface roughness + print quantization + lateral misalignment by default)
// deployed through the interpixel-crosstalk emulation. All variants see
// IDENTICAL perturbation draws (common random numbers: realization seeds
// depend only on (seed, r)), so the yield comparison is paired, not two
// noisy marginals.
//
// Shape checks assert the paper's §III-D2 story extended to distributions
// (matching the repo's established within-recipe deployment claims, e.g.
// integration_test's DeploymentGapNarrowsWithSmoothing): the smoothed
// recipe keeps a higher mean fabricated accuracy AND a higher yield
// (fraction of devices above the accuracy spec, evaluated at the midpoint
// between the two means) than the baseline unsmoothed deployment of the
// same masks — and a repeated evaluation is bitwise deterministic. The
// Baseline-recipe rows are printed for context; at CPU scales the
// flat-initialized baseline is already near-smooth (table1's "2pi alone
// barely helps" check), so cross-recipe deployed ordering is not asserted.
//
//   ./robust_yield [bench.scale=smoke|default|paper] [grid=] [samples=]
//                  [seed=] [realizations=32] [perturb=SPEC] [format=]
//
// Emits the established JSON perf-record convention (seconds included);
// each row carries its report's digest (RobustnessReport::digest()), which
// scripts/check.sh compares across ODONN_THREADS.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/run_main.hpp"
#include "fab/montecarlo.hpp"
#include "fab/spec.hpp"
#include "pipeline/parser.hpp"
#include "train/recipe.hpp"

using namespace odonn;
using Clock = std::chrono::steady_clock;

namespace {

std::string json_row(const fab::RobustnessReport& r, double yield_at_spec) {
  return "{\"model\": " + bench::json_quote(r.model_name) +
         ", \"clean\": " + bench::json_number(r.clean_accuracy) +
         ", \"mean\": " + bench::json_number(r.mean) +
         ", \"std\": " + bench::json_number(r.stddev) +
         ", \"min\": " + bench::json_number(r.min) +
         ", \"p50\": " + bench::json_number(r.p50) +
         ", \"p95\": " + bench::json_number(r.p95) +
         ", \"yield_at_spec\": " + bench::json_number(yield_at_spec) +
         ", \"digest\": " + bench::json_quote(bench::hex64(r.digest())) + "}";
}

int run(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  std::vector<std::string> keys = bench::bench_config_keys();
  keys.emplace_back("realizations");
  keys.emplace_back("perturb");
  keys.emplace_back("format");
  cli.strict(keys);
  const bench::BenchConfig bc = bench::make_bench_config(cli);
  const auto format = bench::parse_format(cli);
  const bool print_text = format != bench::OutputFormat::Json;
  const std::size_t realizations = cli.get_count("realizations", 32);
  const std::string perturb_spec =
      cli.get_string("perturb", fab::kDefaultPerturbationSpec);
  const fab::PerturbationStack stack =
      fab::parse_perturbation_stack(perturb_spec);

  const train::RecipeOptions options = bench::recipe_options(bc, 5);
  const bench::PreparedData data =
      bench::prepare_dataset(data::SyntheticFamily::Digits, bc);

  if (print_text) {
    std::printf("=== robust_yield (%s scale) ===\n",
                bench::scale_name(bc.scale));
    std::printf(
        "grid=%zu train=%zu eval=%zu realizations=%zu threads=%zu "
        "seed=%llu\n",
        bc.grid, data.train.size(), data.test.size(), realizations,
        thread_count(), static_cast<unsigned long long>(bc.seed));
    std::printf("perturb=%s\n\n", perturb_spec.c_str());
  }

  const Clock::time_point t_train = Clock::now();
  const auto [baseline, baseline_smoothed] = pipeline::recipe_models(
      train::RecipeKind::Baseline, options, data.train, data.test);
  const auto [ours, ours_smoothed] = pipeline::recipe_models(
      train::RecipeKind::OursC, options, data.train, data.test);
  const double train_seconds =
      std::chrono::duration<double>(Clock::now() - t_train).count();

  fab::MonteCarloOptions mc;
  mc.realizations = realizations;
  mc.seed = bc.seed + 1000;
  mc.crosstalk = options.crosstalk;
  const fab::MonteCarloEvaluator evaluator(data.test, mc);

  const Clock::time_point t_eval = Clock::now();
  const auto reports = evaluator.compare(
      {{"baseline", &baseline},
       {"baseline-smoothed", &baseline_smoothed},
       {"ours-c", &ours},
       {"ours-c-smoothed", &ours_smoothed}},
      stack);
  const double eval_seconds =
      std::chrono::duration<double>(Clock::now() - t_eval).count();

  // The yield A/B: the baseline deployment of the Ours-C masks (no 2*pi
  // optimization — what a roughness-oblivious flow would fabricate) vs the
  // same masks after smoothing, under identical draws.
  const fab::RobustnessReport& base_report = reports[2];
  const fab::RobustnessReport& ours_report = reports[3];
  // The accuracy spec a fabricated device must clear: the midpoint between
  // the two mean fabricated accuracies — the same threshold for both
  // variants, chosen where yield curves actually separate.
  const double spec_threshold = 0.5 * (base_report.mean + ours_report.mean);

  if (print_text) {
    std::printf("%-20s | %6s | %6s | %6s | %6s | %6s | %6s\n", "model",
                "clean", "mean", "min", "p50", "p95", "yield");
    for (const auto& r : reports) {
      std::printf(
          "%-20s | %5.2f%% | %5.2f%% | %5.2f%% | %5.2f%% | %5.2f%% | %5.2f\n",
          r.model_name.c_str(), 100.0 * r.clean_accuracy, 100.0 * r.mean,
          100.0 * r.min, 100.0 * r.p50, 100.0 * r.p95,
          fab::yield_at(r, spec_threshold));
    }
    std::printf("\naccuracy spec (midpoint of means): %.2f%%\n",
                100.0 * spec_threshold);
    std::printf("train %.1fs, %zu realizations x %zu variants in %.1fs\n\n",
                train_seconds, realizations, reports.size(), eval_seconds);
  }

  // Paired determinism probe: re-evaluating the same variant must produce a
  // bitwise-identical report (scripts/check.sh additionally compares across
  // ODONN_THREADS process-to-process).
  const auto replay = evaluator.evaluate("ours-c", ours, stack);

  int failures = 0;
  failures += !bench::shape_check(
      ours_report.mean > base_report.mean,
      "smoothed recipe mean fabricated accuracy above the baseline "
      "(unsmoothed) deployment, common random numbers");
  failures += !bench::shape_check(
      fab::yield_at(ours_report, spec_threshold) >
          fab::yield_at(base_report, spec_threshold),
      "smoothed recipe yield above the baseline deployment at the midpoint "
      "accuracy spec");
  failures += !bench::shape_check(
      replay.digest() == reports[2].digest(),
      "repeated Monte-Carlo evaluation is bitwise deterministic");

  std::string json =
      "{\"bench\": \"robust_yield\", \"scale\": " +
      bench::json_quote(bench::scale_name(bc.scale)) +
      ", \"grid\": " + std::to_string(bc.grid) +
      ", \"eval_samples\": " + std::to_string(data.test.size()) +
      ", \"realizations\": " + std::to_string(realizations) +
      ", \"threads\": " + std::to_string(thread_count()) +
      ", \"perturb\": " + bench::json_quote(perturb_spec) +
      ", \"spec_threshold\": " + bench::json_number(spec_threshold) +
      ", \"train_seconds\": " + bench::json_number(train_seconds) +
      ", \"eval_seconds\": " + bench::json_number(eval_seconds) +
      ", \"rows\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    json += "  " + json_row(reports[i],
                            fab::yield_at(reports[i], spec_threshold)) +
            (i + 1 < reports.size() ? ",\n" : "\n");
  }
  json += "]}";
  if (format != bench::OutputFormat::Text) std::printf("%s\n", json.c_str());
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main([&] { return run(argc, argv); });
}
