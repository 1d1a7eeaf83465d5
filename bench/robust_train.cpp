// Robust-training bench: does optimizing the EXPECTED fabricated accuracy
// (noise-in-the-loop training, train::RobustTrainOptions) beat bolting
// 2*pi smoothing onto a cleanly trained model — at the same training
// budget?
//
// Two variants of the baseline recipe, identical epochs / lr / batch /
// seed (the "equal clean-accuracy budget"):
//   smoothed-only  train (clean) -> 2*pi smooth
//   robust         robust_train (K fabrication realizations per step,
//                  antithetic pairs; the realizations skip the crosstalk
//                  emulation, see train::RobustTrainOptions) -> 2*pi smooth
// Both are then subjected to >= 32 Monte-Carlo fabricated devices under
// COMMON RANDOM NUMBERS (realization seeds depend only on (seed, r)), so
// the yield comparison is paired. Shape checks assert the robust-trained
// variant keeps a higher mean fabricated accuracy AND a strictly higher
// yield at the default accuracy spec (yield_threshold=0.5) — the PR's
// acceptance bar: training through the deployment path beats measuring it
// after the fact.
//
// Determinism: training uses the trainer's fixed-slice reduction and the
// Monte-Carlo evaluator's counter-based streams, so the JSON record's
// digests — FNV over the trained PHASE BITS per variant ("train_digest")
// and over the per-realization accuracies ("digest") — are bitwise
// independent of ODONN_THREADS; scripts/check.sh compares them across
// thread counts on every push.
//
//   ./robust_train [bench.scale=smoke|default|paper] [grid=] [samples=]
//                  [seed=] [epochs=] [realizations=32]
//                  [train_realizations=2] [antithetic=]
//                  [train_resample=batch|epoch] [train_warmup=-1]
//                  [train_lr_scale=0.1] [yield_threshold=0.5]
//                  [perturb=SPEC] [format=]
//
// antithetic= follows the odonn_cli convention: it drives BOTH the
// Monte-Carlo evaluation streams (default off — plain CRN) and the
// training streams (default on).
//
// epochs defaults to max(2, scale epochs) so even the smoke scale fits
// one clean warm-up epoch plus one noise-in-the-loop epoch.
//
// Emits the established JSON perf-record convention (seconds included).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/run_main.hpp"
#include "fab/montecarlo.hpp"
#include "fab/spec.hpp"
#include "pipeline/parser.hpp"
#include "tensor/stats.hpp"
#include "train/recipe.hpp"

using namespace odonn;
using Clock = std::chrono::steady_clock;

namespace {

int run(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  std::vector<std::string> keys = bench::bench_config_keys();
  for (const char* key :
       {"realizations", "train_realizations", "antithetic",
        "train_resample", "train_warmup", "train_lr_scale",
        "yield_threshold", "perturb", "epochs", "format"}) {
    keys.emplace_back(key);
  }
  cli.strict(keys);
  const bench::BenchConfig bc = bench::make_bench_config(cli);
  const auto format = bench::parse_format(cli);
  const bool print_text = format != bench::OutputFormat::Json;
  const std::size_t realizations = cli.get_count("realizations", 32);
  // The robust report's [0, 1] check, before any training.
  const double yield_threshold =
      pipeline::robust_options_from_config(cli).yield_threshold;
  const std::string perturb_spec =
      cli.get_string("perturb", fab::kDefaultPerturbationSpec);
  const fab::PerturbationStack stack =
      fab::parse_perturbation_stack(perturb_spec);

  const bool mc_antithetic = cli.get_bool("antithetic", false);

  // The shared key mapping + validation from the pipeline parser (clean
  // ConfigError on e.g. odd train_realizations with antithetic pairing);
  // only the perturb default differs — the bench resolves the default
  // spec locally so the JSON record always names it.
  pipeline::RobustTrainStageOptions robust_options =
      pipeline::robust_train_options_from_config(cli);
  robust_options.perturb = perturb_spec;

  train::RecipeOptions options = bench::recipe_options(bc, 5);
  // Both variants need a solid clean warm-up PLUS a noise-adaptation tail
  // for the comparison to be meaningful (a half-trained model has no
  // robustness to protect), so the epoch budget floors at 4 — three clean
  // epochs and one robust epoch at the default warm-up split — even at
  // the smoke scale's 1-epoch default.
  options.epochs_dense = cli.get_count(
      "epochs", std::max<std::size_t>(4, options.epochs_dense));
  const bench::PreparedData data =
      bench::prepare_dataset(data::SyntheticFamily::Digits, bc);

  if (print_text) {
    std::printf("=== robust_train (%s scale) ===\n",
                bench::scale_name(bc.scale));
    std::printf(
        "grid=%zu train=%zu eval=%zu realizations=%zu train_realizations=%zu "
        "train_antithetic=%d antithetic=%d threads=%zu seed=%llu\n",
        bc.grid, data.train.size(), data.test.size(), realizations,
        robust_options.realizations, robust_options.antithetic ? 1 : 0,
        mc_antithetic ? 1 : 0, thread_count(),
        static_cast<unsigned long long>(bc.seed));
    std::printf("perturb=%s\n\n", perturb_spec.c_str());
  }

  const Clock::time_point t_train = Clock::now();
  const donn::DonnModel smoothed_only =
      pipeline::recipe_models(train::RecipeKind::Baseline, options,
                              data.train, data.test)
          .smoothed;
  const donn::DonnModel robust_smoothed =
      pipeline::recipe_models(train::RecipeKind::Baseline, options,
                              data.train, data.test, &robust_options)
          .smoothed;
  const double train_seconds =
      std::chrono::duration<double>(Clock::now() - t_train).count();

  const pipeline::RobustStageOptions eval_options{
      perturb_spec, realizations, yield_threshold, mc_antithetic};
  const fab::MonteCarloEvaluator evaluator(
      data.test, pipeline::monte_carlo_options(options, eval_options));

  const Clock::time_point t_eval = Clock::now();
  const auto reports = evaluator.compare(
      {{"smoothed-only", &smoothed_only}, {"robust", &robust_smoothed}},
      stack);
  const double eval_seconds =
      std::chrono::duration<double>(Clock::now() - t_eval).count();
  const fab::RobustnessReport& base_report = reports[0];
  const fab::RobustnessReport& robust_report = reports[1];

  if (print_text) {
    std::printf("%-16s | %6s | %6s | %6s | %6s | %6s | %6s | %5s\n", "model",
                "clean", "mean", "std", "min", "p50", "p95", "yield");
    for (const auto& r : reports) {
      std::printf(
          "%-16s | %5.2f%% | %5.2f%% | %6.4f | %5.2f%% | %5.2f%% | %5.2f%% "
          "| %5.2f\n",
          r.model_name.c_str(), 100.0 * r.clean_accuracy, 100.0 * r.mean,
          r.stddev, 100.0 * r.min, 100.0 * r.p50, 100.0 * r.p95, r.yield);
    }
    std::printf("\naccuracy spec (default threshold): %.2f%%\n",
                100.0 * yield_threshold);
    std::printf("train %.1fs, %zu realizations x %zu variants in %.1fs\n\n",
                train_seconds, realizations, reports.size(), eval_seconds);
  }

  // Paired determinism probe: a repeated evaluation of the robust variant
  // must be bitwise identical (check.sh additionally compares the emitted
  // digests across ODONN_THREADS process-to-process).
  const auto replay = evaluator.evaluate("robust", robust_smoothed, stack);

  int failures = 0;
  failures += !bench::shape_check(
      robust_report.mean > base_report.mean,
      "robust-trained variant mean fabricated accuracy above the 2*pi-"
      "smoothed-only variant at equal training budget, common random "
      "numbers");
  failures += !bench::shape_check(
      robust_report.yield > base_report.yield,
      "robust-trained variant yield strictly above the 2*pi-smoothed-only "
      "variant at the default accuracy spec");
  failures += !bench::shape_check(
      replay.digest() == robust_report.digest(),
      "repeated Monte-Carlo evaluation of the robust variant is bitwise "
      "deterministic");

  std::string json =
      "{\"bench\": \"robust_train\", \"scale\": " +
      bench::json_quote(bench::scale_name(bc.scale)) +
      ", \"grid\": " + std::to_string(bc.grid) +
      ", \"eval_samples\": " + std::to_string(data.test.size()) +
      ", \"realizations\": " + std::to_string(realizations) +
      ", \"train_realizations\": " +
      std::to_string(robust_options.realizations) +
      ", \"train_antithetic\": " +
      (robust_options.antithetic ? "true" : "false") +
      ", \"antithetic\": " + (mc_antithetic ? "true" : "false") +
      ", \"threads\": " + std::to_string(thread_count()) +
      ", \"perturb\": " + bench::json_quote(perturb_spec) +
      ", \"yield_threshold\": " + bench::json_number(yield_threshold) +
      ", \"train_seconds\": " + bench::json_number(train_seconds) +
      ", \"eval_seconds\": " + bench::json_number(eval_seconds) +
      ", \"rows\": [\n";
  const donn::DonnModel* variants[] = {&smoothed_only, &robust_smoothed};
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const fab::RobustnessReport& r = reports[i];
    json += "  {\"model\": " + bench::json_quote(r.model_name) +
            ", \"clean\": " + bench::json_number(r.clean_accuracy) +
            ", \"mean\": " + bench::json_number(r.mean) +
            ", \"std\": " + bench::json_number(r.stddev) +
            ", \"min\": " + bench::json_number(r.min) +
            ", \"p50\": " + bench::json_number(r.p50) +
            ", \"p95\": " + bench::json_number(r.p95) +
            ", \"yield\": " + bench::json_number(r.yield) +
            ", \"train_digest\": " +
            bench::json_quote(
                bench::hex64(bench::phases_digest(variants[i]->phases()))) +
            ", \"digest\": " + bench::json_quote(bench::hex64(r.digest())) +
            "}" +
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
