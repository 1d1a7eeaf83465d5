// Reproduces Table I: the methodology feature matrix ([5],[16] vs [6],[8]
// vs Ours), then goes beyond the paper's qualitative table by MEASURING the
// effect of each feature in isolation on the same task: roughness awareness,
// sparsity, and 2*pi periodic optimization.
#include <cstdio>

#include "bench_common.hpp"
#include "common/run_main.hpp"
#include "smooth2pi/two_pi_opt.hpp"

using namespace odonn;

namespace {

int run(int argc, char** argv) {
  auto cfg = bench::make_bench_config(argc, argv, bench::bench_config_keys());
  if (cfg.scale == bench::Scale::Default) {
    cfg.samples = std::min<std::size_t>(cfg.samples, 1600);
  }
  std::printf("=== Table I: methodology comparison ===\n\n");
  std::printf("%-12s %-16s %-10s %-24s\n", "method", "roughness-aware",
              "sparsity", "2pi periodic optimization");
  std::printf("%-12s %-16s %-10s %-24s\n", "[5], [16]", "no", "no", "no");
  std::printf("%-12s %-16s %-10s %-24s\n", "[6], [8]", "no", "no",
              "yes (deploy negatives only)");
  std::printf("%-12s %-16s %-10s %-24s\n\n", "Ours", "yes", "yes",
              "yes (roughness reduction)");

  std::printf("measured effect of each feature (MNIST stand-in, scale=%s):\n",
              bench::scale_name(cfg.scale));
  const auto opt = bench::recipe_options(cfg, /*paper_block=*/25);
  const auto dataset = bench::prepare_dataset(data::SyntheticFamily::Digits, cfg);

  const auto baseline = train::run_recipe(train::RecipeKind::Baseline, opt,
                                          dataset.train, dataset.test);
  const auto ours_a = train::run_recipe(train::RecipeKind::OursA, opt,
                                        dataset.train, dataset.test);
  const auto ours_b = train::run_recipe(train::RecipeKind::OursB, opt,
                                        dataset.train, dataset.test);
  const auto ours_c = train::run_recipe(train::RecipeKind::OursC, opt,
                                        dataset.train, dataset.test);

  std::printf("%-34s %10s %12s %12s\n", "configuration", "acc (%)",
              "R before", "R after 2pi");
  const struct {
    const char* label;
    const train::RecipeResult* row;
  } lines[] = {{"none (roughness-oblivious [5])", &baseline},
               {"+ roughness awareness", &ours_a},
               {"+ sparsity (SLR blocks)", &ours_b},
               {"+ both (Ours-C)", &ours_c}};
  for (const auto& line : lines) {
    std::printf("%-34s %10.2f %12.2f %12.2f\n", line.label,
                100.0 * line.row->accuracy, line.row->roughness_before,
                line.row->roughness_after);
  }

  int failures = 0;
  failures += !bench::shape_check(
      baseline.roughness_before - baseline.roughness_after <
          0.1 * baseline.roughness_before,
      "2pi alone barely helps a roughness-oblivious model (paper: <2%)");
  failures += !bench::shape_check(
      ours_c.roughness_after < baseline.roughness_after,
      "the full method beats roughness-oblivious training");
  std::printf("\n%d shape-check failure(s)\n", failures);
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main([&] { return run(argc, argv); });
}
