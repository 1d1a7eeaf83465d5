// Fig. 5-style mask gallery: trains the model variants and renders the
// second diffractive layer of each to colormapped PPM images, so the
// visual progression Baseline -> Sparsify -> +Roughness -> +Intra ->
// 2pi-optimized can be inspected directly (sparsified blocks render black,
// exactly like the paper's figure).
//
//   ./mask_gallery [dataset=emnist] [grid=48] [samples=800] [outdir=gallery]
#include <cstdio>
#include <filesystem>

#include "common/config.hpp"
#include "data/synthetic.hpp"
#include "data/transform.hpp"
#include "io/mask_render.hpp"
#include "train/recipe.hpp"

using namespace odonn;

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const auto family = data::parse_family(cfg.get_string("dataset", "emnist"));
  const std::size_t grid = cfg.get_count("grid", 48);
  const std::size_t samples = cfg.get_count("samples", 800);
  const std::string outdir = cfg.get_string("outdir", "gallery");
  std::filesystem::create_directories(outdir);

  train::RecipeOptions opt;
  opt.model = donn::DonnConfig::scaled(grid);
  opt.epochs_dense = cfg.get_count("epochs", 2);
  opt.epochs_sparse = 1;
  opt.batch_size = 50;
  opt.scheme.block_size = std::max<std::size_t>(2, grid / 10);
  opt.seed = cfg.get_count("seed", 7);

  const auto raw = data::make_synthetic(family, samples, opt.seed + 10);
  const auto resized = data::resize_dataset(raw, grid);
  Rng split_rng(opt.seed + 11);
  const auto [train_set, test_set] = resized.split(0.8, split_rng);

  // The paper's Fig. 5 shows the SECOND diffractive layer of each variant,
  // plus the 2*pi-optimized version of the Ours-D mask.
  const struct {
    const char* file;
    train::RecipeKind kind;
  } panels[] = {{"1_baseline.ppm", train::RecipeKind::Baseline},
                {"2_sparsify.ppm", train::RecipeKind::OursB},
                {"3_sparse_rough.ppm", train::RecipeKind::OursC},
                {"4_intra_smooth.ppm", train::RecipeKind::OursD}};

  for (const auto& panel : panels) {
    const auto row = train::run_recipe(panel.kind, opt, train_set, test_set);
    const std::size_t layer = std::min<std::size_t>(1, row.trained_phases.size() - 1);
    io::render_phase_mask(outdir + "/" + panel.file, row.trained_phases[layer]);
    std::printf("%-22s acc %6.2f%%  R %8.2f -> %8.2f\n", panel.file,
                100.0 * row.accuracy, row.roughness_before,
                row.roughness_after);
    if (panel.kind == train::RecipeKind::OursD) {
      io::MaskRenderOptions render;
      render.zeros_black = false;  // lifted zeros are no longer sparse
      io::render_phase_mask(outdir + "/5_intra_smooth_2pi.ppm",
                            row.smoothed_phases[layer], render);
    }
  }
  std::printf("gallery written to %s/\n", outdir.c_str());
  return 0;
}
