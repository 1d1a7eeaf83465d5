// Layer-scaling / detector-strategy bench: the {1-layer, 5-layer} x
// {standard, differential} recipe cells as a paired A/B.
//
// For each cell, trains the Ours-C recipe (model-producing stages only) at
// the bench scale, 2*pi-smooths it, and subjects the smoothed deployment to
// R perturbed fabricated devices through the crosstalk emulation. Cells at
// the SAME layer count see identical perturbation draws (common random
// numbers: roughness draws one GRF per layer, so the stream only pairs
// within a layer count) — the standard-vs-differential comparison is paired;
// the 1-vs-5-layer comparison is two clean marginals.
//
// Shape checks stay conservative at smoke scale (synthetic data, tiny
// grids): accuracies must be valid probabilities, every cell must produce a
// full Monte-Carlo report, and a repeated evaluation must be bitwise
// deterministic. Accuracy ORDERING across cells is reported, not asserted.
//
//   ./layers_scaling [bench.scale=smoke|default|paper] [grid=] [samples=]
//                    [seed=] [realizations=16] [perturb=SPEC] [format=]
//
// (layers=/detector= are rejected: the four cells are the bench.)
// Emits the established JSON perf-record convention; scripts/check.sh runs
// it at smoke scale and CI uploads the record.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/run_main.hpp"
#include "donn/detector.hpp"
#include "fab/montecarlo.hpp"
#include "fab/spec.hpp"
#include "pipeline/parser.hpp"
#include "train/recipe.hpp"

using namespace odonn;
using Clock = std::chrono::steady_clock;

namespace {

struct Cell {
  std::size_t layers;
  donn::DetectorMode detector;
};

std::string cell_name(const Cell& cell) {
  return std::to_string(cell.layers) + "L-" +
         donn::detector_mode_name(cell.detector);
}

int run(int argc, char** argv) {
  const Config cli = Config::from_args(argc, argv);
  std::vector<std::string> keys = bench::bench_config_keys();
  // The four cells ARE the bench: a caller-supplied layers=/detector= would
  // be silently ignored, so reject them per the Config::strict contract.
  std::erase(keys, std::string("layers"));
  std::erase(keys, std::string("detector"));
  keys.emplace_back("realizations");
  keys.emplace_back("perturb");
  keys.emplace_back("format");
  cli.strict(keys);
  const bench::BenchConfig bc = bench::make_bench_config(cli);
  const auto format = bench::parse_format(cli);
  const bool print_text = format != bench::OutputFormat::Json;
  const std::size_t realizations = cli.get_count("realizations", 16);
  const std::string perturb_spec =
      cli.get_string("perturb", fab::kDefaultPerturbationSpec);
  const fab::PerturbationStack stack =
      fab::parse_perturbation_stack(perturb_spec);

  const std::vector<Cell> cells = {
      {1, donn::DetectorMode::Standard},
      {1, donn::DetectorMode::Differential},
      {5, donn::DetectorMode::Standard},
      {5, donn::DetectorMode::Differential},
  };

  const bench::PreparedData data =
      bench::prepare_dataset(data::SyntheticFamily::Digits, bc);

  if (print_text) {
    std::printf("=== layers_scaling (%s scale) ===\n",
                bench::scale_name(bc.scale));
    std::printf(
        "grid=%zu train=%zu eval=%zu realizations=%zu threads=%zu "
        "seed=%llu\n",
        bc.grid, data.train.size(), data.test.size(), realizations,
        thread_count(), static_cast<unsigned long long>(bc.seed));
    std::printf("perturb=%s\n\n", perturb_spec.c_str());
  }

  const Clock::time_point t_train = Clock::now();
  std::vector<donn::DonnModel> models;
  std::vector<std::uint64_t> train_digests;
  train::RecipeOptions first_options;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    bench::BenchConfig cell_bc = bc;
    cell_bc.layers = cells[i].layers;
    cell_bc.detector = cells[i].detector;
    const train::RecipeOptions options = bench::recipe_options(cell_bc, 5);
    if (i == 0) first_options = options;
    models.push_back(pipeline::recipe_models(train::RecipeKind::OursC,
                                             options, data.train, data.test)
                         .smoothed);
    train_digests.push_back(bench::phases_digest(models.back().phases()));
  }
  const double train_seconds =
      std::chrono::duration<double>(Clock::now() - t_train).count();

  pipeline::RobustStageOptions robust;
  robust.realizations = realizations;
  const fab::MonteCarloEvaluator evaluator(
      data.test, pipeline::monte_carlo_options(first_options, robust));

  const Clock::time_point t_eval = Clock::now();
  std::vector<std::pair<std::string, const donn::DonnModel*>> variants;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    variants.emplace_back(cell_name(cells[i]), &models[i]);
  }
  const auto reports = evaluator.compare(variants, stack);
  const double eval_seconds =
      std::chrono::duration<double>(Clock::now() - t_eval).count();

  // Per-layer-count paired yield spec: the midpoint between the standard
  // and differential mean fabricated accuracies at that depth.
  const double spec_1l = 0.5 * (reports[0].mean + reports[1].mean);
  const double spec_5l = 0.5 * (reports[2].mean + reports[3].mean);

  if (print_text) {
    std::printf("%-18s | %6s | %6s | %6s | %6s | %6s\n", "cell", "clean",
                "mean", "p50", "p95", "yield");
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const double spec = (i < 2) ? spec_1l : spec_5l;
      const auto& r = reports[i];
      std::printf(
          "%-18s | %5.2f%% | %5.2f%% | %5.2f%% | %5.2f%% | %5.2f\n",
          r.model_name.c_str(), 100.0 * r.clean_accuracy, 100.0 * r.mean,
          100.0 * r.p50, 100.0 * r.p95, fab::yield_at(r, spec));
    }
    std::printf("\ntrain %.1fs, %zu realizations x %zu cells in %.1fs\n\n",
                train_seconds, realizations, reports.size(), eval_seconds);
  }

  // Determinism probe: re-evaluating one cell must be bitwise identical.
  const auto replay = evaluator.evaluate(cell_name(cells[3]), models[3], stack);

  int failures = 0;
  failures += !bench::shape_check(reports.size() == cells.size(),
                                  "every cell produced a Monte-Carlo report");
  bool accuracies_valid = true;
  for (const auto& r : reports) {
    accuracies_valid = accuracies_valid && std::isfinite(r.clean_accuracy) &&
                       r.clean_accuracy >= 0.0 && r.clean_accuracy <= 1.0 &&
                       std::isfinite(r.mean) && r.mean >= 0.0 && r.mean <= 1.0;
  }
  failures += !bench::shape_check(
      accuracies_valid, "clean and fabricated accuracies are probabilities "
                        "in [0, 1] for all four cells");
  failures += !bench::shape_check(
      replay.digest() == reports[3].digest(),
      "repeated Monte-Carlo evaluation of the 5L-differential cell is "
      "bitwise deterministic");

  std::string json =
      "{\"bench\": \"layers_scaling\", \"scale\": " +
      bench::json_quote(bench::scale_name(bc.scale)) +
      ", \"grid\": " + std::to_string(bc.grid) +
      ", \"eval_samples\": " + std::to_string(data.test.size()) +
      ", \"realizations\": " + std::to_string(realizations) +
      ", \"threads\": " + std::to_string(thread_count()) +
      ", \"perturb\": " + bench::json_quote(perturb_spec) +
      ", \"train_seconds\": " + bench::json_number(train_seconds) +
      ", \"eval_seconds\": " + bench::json_number(eval_seconds) +
      ", \"cells\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const double spec = (i < 2) ? spec_1l : spec_5l;
    const auto& r = reports[i];
    json += "  {\"cell\": " + bench::json_quote(r.model_name) +
            ", \"layers\": " + std::to_string(cells[i].layers) +
            ", \"detector\": " +
            bench::json_quote(donn::detector_mode_name(cells[i].detector)) +
            ", \"train_digest\": " +
            bench::json_quote(bench::hex64(train_digests[i])) +
            ", \"clean\": " + bench::json_number(r.clean_accuracy) +
            ", \"mean\": " + bench::json_number(r.mean) +
            ", \"std\": " + bench::json_number(r.stddev) +
            ", \"p50\": " + bench::json_number(r.p50) +
            ", \"p95\": " + bench::json_number(r.p95) +
            ", \"yield_at_spec\": " +
            bench::json_number(fab::yield_at(r, spec)) + "}" +
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
