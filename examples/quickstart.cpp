// Quickstart: build a 3-layer diffractive ONN, train it on a synthetic
// digit task, report accuracy and mask roughness, then smooth the masks
// with the 2*pi optimizer — the library's core loop in ~70 lines.
//
//   ./quickstart [grid=48] [samples=600] [epochs=3] [seed=7]
#include <cstdio>

#include "common/config.hpp"
#include "common/run_main.hpp"
#include "data/synthetic.hpp"
#include "data/transform.hpp"
#include "donn/model.hpp"
#include "roughness/report.hpp"
#include "smooth2pi/two_pi_opt.hpp"
#include "train/recipe.hpp"
#include "train/trainer.hpp"

using namespace odonn;

namespace {

int run(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  cfg.strict({"grid", "samples", "epochs", "seed"});
  const std::size_t grid = cfg.get_count("grid", 48);
  const std::size_t samples = cfg.get_count("samples", 600);
  const std::size_t epochs = cfg.get_count("epochs", 3);
  const std::uint64_t seed = cfg.get_count("seed", 7);

  // 1. A 10-class digit task (procedural MNIST stand-in), upsampled to the
  //    optical grid exactly like the paper interpolates 28x28 -> 200x200.
  const auto raw = data::make_synthetic(data::SyntheticFamily::Digits, samples, seed);
  const auto resized = data::resize_dataset(raw, grid);
  Rng split_rng(seed + 1);
  const auto [train_set, test_set] = resized.split(0.8, split_rng);

  // 2. A 3-layer DONN with paper-equivalent optics, shrunk to `grid`.
  donn::DonnConfig config = donn::DonnConfig::scaled(grid);
  Rng rng(seed + 2);
  donn::DonnModel model(config, rng);
  std::printf("DONN: %zu layers, grid %zux%zu, pitch %.1f um, lambda %.0f nm, z %.2f cm\n",
              model.num_layers(), grid, grid, config.grid.pitch * 1e6,
              config.wavelength * 1e9, config.distance * 1e2);

  // 3. Train with the paper's setup (Adam, softmax-MSE loss).
  train::TrainOptions topt;
  topt.epochs = epochs;
  topt.batch_size = 50;
  topt.lr = 0.2;
  topt.seed = seed + 3;
  train::Trainer trainer(model, train_set, topt);
  for (const auto& st : trainer.run()) {
    std::printf("  epoch: loss %.4f, train acc %.3f\n", st.data_loss,
                st.train_accuracy);
  }

  // 4. Evaluate accuracy and the paper's roughness score R_overall.
  const double acc = train::evaluate_accuracy(model, test_set);
  const auto rough = roughness::report(model.phases());
  std::printf("test accuracy: %.3f\n", acc);
  std::printf("R_overall (before 2pi): %.2f\n", rough.overall);

  // 5. 2*pi smoothing: inference-invariant roughness reduction (§III-D2).
  const auto smoothed = smooth2pi::optimize_2pi_all(model.phases(), {});
  double after = 0.0;
  for (const auto& r : smoothed) after += r.roughness_after;
  after /= static_cast<double>(smoothed.size());
  std::printf("R_overall (after 2pi):  %.2f\n", after);

  std::vector<MatrixD> phases;
  for (const auto& r : smoothed) phases.push_back(r.optimized);
  model.set_phases(std::move(phases));
  std::printf("test accuracy after 2pi: %.3f (unchanged by construction)\n",
              train::evaluate_accuracy(model, test_set));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main([&] { return run(argc, argv); });
}
