// Discrete phase control levels (the paper's §I mismatch source and the
// [6]/[8] codesign setting): shows (1) how post-hoc quantization of a
// continuously trained DONN degrades accuracy as the level count shrinks,
// and (2) how straight-through-estimator (STE) quantization-aware training
// recovers most of the loss — the model learns phases that survive the
// device's level grid.
//
//   ./discrete_levels [grid=48] [samples=800] [epochs=3] [levels=4] [seed=7]
#include <cstdio>

#include "common/config.hpp"
#include "data/synthetic.hpp"
#include "data/transform.hpp"
#include "donn/discrete.hpp"
#include "donn/model.hpp"
#include "train/optim.hpp"
#include "train/trainer.hpp"

using namespace odonn;

namespace {

/// One epoch of STE quantization-aware training: the optics sees quantized
/// phases, the optimizer updates the latent continuous ones.
void ste_epoch(donn::DonnModel& model, std::vector<MatrixD>& latent,
               const donn::StePhaseQuantizer& ste,
               const data::Dataset& train_set, train::Adam& optimizer,
               std::size_t batch_size) {
  const std::size_t count = train_set.size();
  for (std::size_t begin = 0; begin < count; begin += batch_size) {
    const std::size_t end = std::min(count, begin + batch_size);
    model.set_phases(ste.forward(latent));
    auto grads = model.zero_gradients();
    for (std::size_t i = begin; i < end; ++i) {
      const auto input = optics::encode_image(train_set.image(i),
                                              model.config().grid);
      model.forward_backward(input, train_set.label(i), grads, {});
    }
    const double inv = 1.0 / static_cast<double>(end - begin);
    for (auto& g : grads) g *= inv;
    // STE: gradients computed at the quantized point apply to the latent.
    optimizer.step(latent, grads);
  }
  model.set_phases(ste.forward(latent));
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const std::size_t grid = cfg.get_count("grid", 48);
  const std::size_t samples = cfg.get_count("samples", 800);
  const std::size_t epochs = cfg.get_count("epochs", 3);
  const std::size_t levels = cfg.get_count("levels", 4);
  const std::uint64_t seed = cfg.get_count("seed", 7);

  const auto raw = data::make_synthetic(data::SyntheticFamily::Digits, samples, seed);
  const auto resized = data::resize_dataset(raw, grid);
  Rng split_rng(seed + 1);
  const auto [train_set, test_set] = resized.split(0.8, split_rng);

  // Continuous training first.
  donn::DonnConfig config = donn::DonnConfig::scaled(grid);
  Rng rng(seed + 2);
  donn::DonnModel model(config, rng);
  {
    train::TrainOptions topt;
    topt.epochs = epochs;
    topt.batch_size = 50;
    topt.lr = 0.2;
    train::Trainer trainer(model, train_set, topt);
    trainer.run();
  }
  const double continuous_acc = train::evaluate_accuracy(model, test_set);
  std::printf("continuous model:     %.2f%%\n", 100.0 * continuous_acc);

  // Post-hoc quantization sweep.
  std::printf("\npost-hoc quantization:\n  %-8s %10s\n", "levels", "accuracy");
  for (std::size_t k : {2u, 4u, 8u, 16u}) {
    donn::DonnModel q = model;
    std::vector<MatrixD> quantized;
    for (const auto& phi : model.phases()) {
      quantized.push_back(donn::quantize_phase(phi, {k}));
    }
    q.set_phases(std::move(quantized));
    std::printf("  %-8zu %9.2f%%\n", k,
                100.0 * train::evaluate_accuracy(q, test_set));
  }

  // STE quantization-aware fine-tuning at the requested level count.
  donn::StePhaseQuantizer ste({levels});
  std::vector<MatrixD> latent = model.phases();
  donn::DonnModel ste_model = model;
  train::Adam optimizer(0.01);
  for (std::size_t e = 0; e < std::max<std::size_t>(1, epochs / 2); ++e) {
    ste_epoch(ste_model, latent, ste, train_set, optimizer, 50);
  }
  const double ste_acc = train::evaluate_accuracy(ste_model, test_set);

  donn::DonnModel posthoc = model;
  {
    std::vector<MatrixD> quantized;
    for (const auto& phi : model.phases()) {
      quantized.push_back(donn::quantize_phase(phi, {levels}));
    }
    posthoc.set_phases(std::move(quantized));
  }
  std::printf("\nat %zu levels: post-hoc %.2f%%  vs  STE-finetuned %.2f%%\n",
              levels, 100.0 * train::evaluate_accuracy(posthoc, test_set),
              100.0 * ste_acc);
  std::printf("(STE training quantizes in the forward pass and updates the "
              "latent continuous phases.)\n");
  return 0;
}
