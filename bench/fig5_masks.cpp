// Reproduces Fig. 5: the phase-mask gallery of the second diffractive layer
// under the EMNIST-like task — Baseline, Sparsify, Sparsify+Roughness,
// +Intra-block smoothness, and the 2*pi-optimized final mask. Images are
// written to bench_out/fig5/ as colormapped PPMs (sparsified blocks black,
// like the figure), and the roughness progression is printed.
#include <cstdio>
#include <filesystem>

#include "bench_common.hpp"
#include "common/run_main.hpp"
#include "io/mask_render.hpp"
#include "optics/fabrication.hpp"

using namespace odonn;

namespace {

int run(int argc, char** argv) {
  const auto cfg =
      bench::make_bench_config(argc, argv, bench::bench_config_keys());
  std::printf("=== Fig. 5: phase-mask gallery (EMNIST stand-in, scale=%s) "
              "===\n\n", bench::scale_name(cfg.scale));
  const std::string outdir = "bench_out/fig5";
  std::filesystem::create_directories(outdir);

  auto opt = bench::recipe_options(cfg, /*paper_block=*/20);
  const auto dataset =
      bench::prepare_dataset(data::SyntheticFamily::Letters, cfg);

  const struct {
    const char* label;
    const char* file;
    train::RecipeKind kind;
  } panels[] = {
      {"Baseline", "1_baseline.ppm", train::RecipeKind::Baseline},
      {"Sparsify", "2_sparsify.ppm", train::RecipeKind::OursB},
      {"Sparsify+Roughness", "3_sparsify_roughness.ppm",
       train::RecipeKind::OursC},
      {"Intra-block Smooth", "4_intra_block.ppm", train::RecipeKind::OursD}};

  int failures = 0;
  double baseline_rough = 0.0;
  double last_after = 0.0;
  // Physical relief units for the 3D-printed masks of Fig. 1(d)/Fig. 5: the
  // paper defines roughness via adjacent-pixel THICKNESS differences.
  const optics::MaterialSpec material;
  std::printf("%-22s %10s %14s %14s %16s\n", "panel", "acc (%)",
              "R before 2pi", "R after 2pi", "relief rough [um]");
  for (const auto& panel : panels) {
    const auto row = train::run_recipe(panel.kind, opt, dataset.train,
                                       dataset.test);
    const std::size_t layer =
        std::min<std::size_t>(1, row.trained_phases.size() - 1);
    io::render_phase_mask(outdir + "/" + panel.file,
                          row.trained_phases[layer]);
    const auto relief =
        optics::thickness_report(row.smoothed_phases[layer], material);
    std::printf("%-22s %10.2f %14.2f %14.2f %16.2f\n", panel.label,
                100.0 * row.accuracy, row.roughness_before,
                row.roughness_after, relief.roughness_um);
    if (panel.kind == train::RecipeKind::Baseline) {
      baseline_rough = row.roughness_before;
    }
    if (panel.kind == train::RecipeKind::OursD) {
      last_after = row.roughness_after;
      io::MaskRenderOptions render;
      render.zeros_black = false;  // lifted pixels are no longer exact zeros
      io::render_phase_mask(outdir + "/5_intra_block_2pi.ppm",
                            row.smoothed_phases[layer], render);
    }
  }
  std::printf("\nimages: %s/*.ppm (5th panel = 2pi-optimized Ours-D, the "
              "paper's smoothed layer)\n", outdir.c_str());
  failures += !bench::shape_check(
      last_after < baseline_rough,
      "final smoothed mask is smoother than the baseline layer");
  std::printf("%d shape-check failure(s)\n", failures);
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main([&] { return run(argc, argv); });
}
