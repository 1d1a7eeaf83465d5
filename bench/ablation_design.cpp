// Design-choice ablations called out in DESIGN.md (not in the paper):
//   1. propagation kernel: angular spectrum vs band-limited vs Fresnel
//   2. FFT padding: circular (paper-style, unpadded) vs 2x zero-padded
//   3. roughness neighborhood: 4 vs 8 neighbors as the training regularizer
//   4. 2pi solver: Gumbel-Softmax vs greedy coordinate descent
//   5. compression optimizer: SLR vs classic ADMM
//   6. discrete phase control levels (inference-time quantization)
//   7. phase initialization: flat (default) vs classic uniform [0, 2*pi)
//   8. interlayer reflection (evaluation-time, first-order bounce)
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "common/run_main.hpp"
#include "donn/discrete.hpp"
#include "donn/reflection.hpp"
#include "roughness/report.hpp"
#include "slr/admm.hpp"
#include "slr/slr.hpp"
#include "smooth2pi/two_pi_opt.hpp"
#include "sparsify/block_sparsify.hpp"
#include "train/trainer.hpp"

using namespace odonn;

namespace {

double train_once(const bench::BenchConfig& cfg, donn::DonnConfig model_cfg,
                  const bench::PreparedData& dataset,
                  const train::RegularizerOptions& reg,
                  std::uint64_t seed) {
  Rng rng(seed);
  donn::DonnModel model(model_cfg, rng);
  train::TrainOptions topt;
  topt.epochs = cfg.epochs_dense;
  topt.batch_size = cfg.batch;
  topt.lr = 0.2;
  topt.seed = seed + 1;
  topt.reg = reg;
  train::Trainer trainer(model, dataset.train, topt);
  trainer.run();
  return train::evaluate_accuracy(model, dataset.test);
}

int run(int argc, char** argv) {
  // Every model here is built from DonnConfig::scaled(grid), so layers=
  // and detector= would go unread.
  auto cfg = bench::make_bench_config(
      argc, argv, {"bench.scale", "grid", "samples", "seed"});
  if (cfg.scale == bench::Scale::Default) {
    cfg.samples = std::min<std::size_t>(cfg.samples, 1200);
    cfg.epochs_dense = std::min<std::size_t>(cfg.epochs_dense, 2);
  }
  std::printf("=== Ablations: design choices (scale=%s) ===\n\n",
              bench::scale_name(cfg.scale));
  const auto dataset = bench::prepare_dataset(data::SyntheticFamily::Digits, cfg);

  // 1 + 2: propagation kernel and padding.
  std::printf("(1/2) propagation kernel and padding vs accuracy:\n");
  std::printf("%-18s %-8s %10s\n", "kernel", "pad2x", "accuracy");
  for (auto kernel : {optics::KernelType::AngularSpectrum,
                      optics::KernelType::BandLimitedASM,
                      optics::KernelType::FresnelTF}) {
    for (bool pad : {false, true}) {
      donn::DonnConfig mc = donn::DonnConfig::scaled(cfg.grid);
      mc.kernel = kernel;
      mc.pad2x = pad;
      const double acc = train_once(cfg, mc, dataset, {}, cfg.seed);
      std::printf("%-18s %-8s %9.2f%%\n", optics::kernel_name(kernel),
                  pad ? "yes" : "no", 100.0 * acc);
    }
  }

  // 3: roughness neighborhood as regularizer.
  std::printf("\n(3) roughness regularizer neighborhood:\n");
  std::printf("%-12s %10s\n", "neighbors", "accuracy");
  for (auto nb : {roughness::Neighborhood::Four, roughness::Neighborhood::Eight}) {
    train::RegularizerOptions reg;
    reg.roughness_p = 0.1;
    reg.roughness.neighborhood = nb;
    const double acc = train_once(cfg, donn::DonnConfig::scaled(cfg.grid),
                                  dataset, reg, cfg.seed);
    std::printf("%-12d %9.2f%%\n", static_cast<int>(nb), 100.0 * acc);
  }

  // 4: 2pi solver quality + cost on a sparsified mask.
  std::printf("\n(4) 2pi solver: Gumbel-Softmax vs greedy (sparsified %zux%zu "
              "mask):\n", cfg.grid, cfg.grid);
  Rng rng(cfg.seed + 5);
  MatrixD phi(cfg.grid, cfg.grid);
  for (auto& v : phi) v = 5.0 + rng.uniform(-0.5, 0.5);
  sparsify::apply_mask(phi, sparsify::block_sparsify(phi, {cfg.grid / 8, 0.15}));

  const auto t0 = std::chrono::steady_clock::now();
  smooth2pi::TwoPiOptions gs_opt;
  gs_opt.iterations = cfg.two_pi_iterations;
  const auto gs = smooth2pi::optimize_2pi(phi, gs_opt);
  const auto t1 = std::chrono::steady_clock::now();
  const auto greedy = smooth2pi::greedy_2pi(phi);
  const auto t2 = std::chrono::steady_clock::now();
  const auto ms = [](auto a, auto b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  std::printf("%-16s %12s %12s %10s\n", "solver", "R before", "R after",
              "time (ms)");
  std::printf("%-16s %12.2f %12.2f %10.1f\n", "gumbel-softmax",
              gs.roughness_before, gs.roughness_after, ms(t0, t1));
  std::printf("%-16s %12.2f %12.2f %10.1f\n", "greedy",
              greedy.roughness_before, greedy.roughness_after, ms(t1, t2));
  std::printf("lifting a sparsified block is a cooperative move: greedy "
              "descent cannot cross it at all,\nwhile the paper's "
              "Gumbel-Softmax relaxation moves whole blocks through the "
              "soft selection.\n");

  // 5: SLR vs ADMM at equal budget.
  std::printf("\n(5) compression optimizer: SLR vs ADMM (block sparsity "
              "0.1):\n");
  auto run_compress = [&](bool use_slr) {
    Rng mrng(cfg.seed);
    donn::DonnModel model(donn::DonnConfig::scaled(cfg.grid), mrng);
    train::TrainOptions dense;
    dense.epochs = cfg.epochs_dense;
    dense.batch_size = cfg.batch;
    dense.lr = 0.2;
    train::Trainer(model, dataset.train, dense).run();

    sparsify::SchemeOptions scheme;
    scheme.ratio = 0.1;
    scheme.block_size = cfg.scaled_block(25);
    train::TrainOptions sparse;
    sparse.epochs = std::max<std::size_t>(1, cfg.epochs_sparse);
    sparse.batch_size = cfg.batch;
    sparse.lr = 0.001;
    slr::SlrOptions so;
    so.scheme = scheme;
    slr::SlrState slr_state(model.phases(), so);
    slr::AdmmState admm_state(model.phases(), {0.1, scheme});
    if (use_slr) {
      sparse.slr = &slr_state;
    } else {
      sparse.admm = &admm_state;
    }
    train::Trainer(model, dataset.train, sparse).run();
    model.set_masks(use_slr ? slr_state.masks() : admm_state.masks());
    return train::evaluate_accuracy(model, dataset.test);
  };
  const double slr_acc = run_compress(true);
  const double admm_acc = run_compress(false);
  std::printf("%-16s %10s\n", "optimizer", "accuracy");
  std::printf("%-16s %9.2f%%\n", "SLR", 100.0 * slr_acc);
  std::printf("%-16s %9.2f%%\n", "ADMM", 100.0 * admm_acc);

  // 6: discrete control levels — quantize a trained dense model's phases at
  // inference and watch accuracy/roughness (the paper's §I mismatch source).
  std::printf("\n(6) discrete phase control levels (inference-time "
              "quantization of a trained model):\n");
  Rng qrng(cfg.seed);
  donn::DonnModel quant_model(donn::DonnConfig::scaled(cfg.grid), qrng);
  {
    train::TrainOptions topt;
    topt.epochs = cfg.epochs_dense;
    topt.batch_size = cfg.batch;
    topt.lr = 0.2;
    train::Trainer(quant_model, dataset.train, topt).run();
  }
  const double full_acc = train::evaluate_accuracy(quant_model, dataset.test);
  std::printf("%-10s %10s %14s %16s\n", "levels", "accuracy", "R_overall",
              "quant err (rad)");
  std::printf("%-10s %9.2f%% %14.2f %16s\n", "continuous", 100.0 * full_acc,
              roughness::report(quant_model.phases()).overall, "-");
  double acc_two_levels = 0.0;
  for (std::size_t levels : {2u, 4u, 8u, 16u, 64u}) {
    donn::DonnModel q = quant_model;
    std::vector<MatrixD> quantized;
    double err = 0.0;
    for (const auto& phiq : quant_model.phases()) {
      quantized.push_back(donn::quantize_phase(phiq, {levels}));
      err += donn::quantization_error(phiq, {levels});
    }
    err /= static_cast<double>(quant_model.num_layers());
    q.set_phases(std::move(quantized));
    const double acc = train::evaluate_accuracy(q, dataset.test);
    if (levels == 2) acc_two_levels = acc;
    std::printf("%-10zu %9.2f%% %14.2f %16.4f\n", levels, 100.0 * acc,
                roughness::report(q.phases()).overall, err);
  }

  // 7: phase initialization scheme.
  std::printf("\n(7) phase initialization (dense baseline):\n");
  std::printf("%-10s %10s %12s %14s %14s\n", "init", "accuracy", "R_overall",
              "R after 2pi", "2pi gain (%)");
  for (auto init : {donn::PhaseInit::Flat, donn::PhaseInit::Uniform}) {
    donn::DonnConfig mc = donn::DonnConfig::scaled(cfg.grid);
    mc.init = init;
    Rng irng(cfg.seed);
    donn::DonnModel model(mc, irng);
    train::TrainOptions topt;
    topt.epochs = cfg.epochs_dense;
    topt.batch_size = cfg.batch;
    topt.lr = 0.2;
    train::Trainer(model, dataset.train, topt).run();
    const double acc = train::evaluate_accuracy(model, dataset.test);
    smooth2pi::TwoPiOptions tp;
    tp.iterations = cfg.two_pi_iterations;
    const auto results = smooth2pi::optimize_2pi_all(model.phases(), tp);
    double before = 0.0, after = 0.0;
    for (const auto& r : results) {
      before += r.roughness_before;
      after += r.roughness_after;
    }
    before /= static_cast<double>(results.size());
    after /= static_cast<double>(results.size());
    std::printf("%-10s %9.2f%% %12.2f %14.2f %14.1f\n",
                init == donn::PhaseInit::Flat ? "flat" : "uniform",
                100.0 * acc, before, after,
                100.0 * (1.0 - after / before));
  }
  std::printf("the paper's '<2%% reduction from 2pi alone' (Tables II-V row "
              "1) only holds for masks whose\nroughness is learned structure "
              "rather than leftover random initialization — hence flat "
              "default.\n");

  // 8: interlayer reflection (first-order, evaluation-time) — the second
  // deployment effect of the paper's physics citation [13].
  std::printf("\n(8) interlayer reflection (first-order bounce, trained "
              "dense model):\n");
  std::printf("%-14s %10s\n", "amplitude r", "accuracy");
  double acc_r0 = 0.0, acc_r3 = 0.0;
  for (double r : {0.0, 0.1, 0.2, 0.3}) {
    std::size_t correct = 0;
    for (std::size_t i = 0; i < dataset.test.size(); ++i) {
      const auto input = optics::encode_image(dataset.test.image(i),
                                              quant_model.config().grid);
      if (donn::reflective_predict(quant_model, input, {r}) ==
          dataset.test.label(i)) {
        ++correct;
      }
    }
    const double acc = static_cast<double>(correct) /
                       static_cast<double>(dataset.test.size());
    if (r == 0.0) acc_r0 = acc;
    if (r == 0.3) acc_r3 = acc;
    std::printf("%-14.2f %9.2f%%\n", r, 100.0 * acc);
  }

  int failures = 0;
  failures += !bench::shape_check(acc_r3 <= acc_r0 + 0.02,
                                  "strong interlayer reflection does not "
                                  "improve accuracy");
  failures += !bench::shape_check(
      gs.roughness_after < gs.roughness_before,
      "Gumbel-Softmax 2pi reduces roughness");
  failures += !bench::shape_check(
      greedy.roughness_after <= gs.roughness_before,
      "greedy baseline never increases roughness");
  failures += !bench::shape_check(acc_two_levels <= full_acc + 0.02,
                                  "coarse quantization cannot beat the "
                                  "continuous model");
  std::printf("\n%d shape-check failure(s)\n", failures);
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main([&] { return run(argc, argv); });
}
