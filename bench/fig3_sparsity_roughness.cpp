// Reproduces Fig. 3: roughness of block vs non-structured vs bank-balanced
// sparsification at ratio 0.33 — first on the paper's exact 6x6 example
// matrix (targets 23.78 / 25.80 / 25.88), then as a property sweep over
// random matrices and over sparsity ratios, which the figure's single
// example cannot show.
#include <cstdio>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/run_main.hpp"
#include "roughness/roughness.hpp"
#include "sparsify/schemes.hpp"

using namespace odonn;

namespace {

MatrixD figure_matrix() {
  return {{4.7, 5.7, 0.9, 0.4, 2.6, 8.6}, {4.5, 0.9, 3.8, 1.5, 5.4, 3.7},
          {0.1, 5.7, 9.0, 3.2, 2.1, 0.7}, {4.7, 9.7, 7.8, 2.5, 0.8, 3.9},
          {1.1, 0.7, 0.6, 0.1, 4.4, 1.8}, {5.6, 0.4, 1.8, 0.4, 9.8, 2.3}};
}

double sparsified_roughness(const MatrixD& w, sparsify::Scheme scheme,
                            double ratio, std::size_t block,
                            std::size_t bank) {
  sparsify::SchemeOptions opt;
  opt.scheme = scheme;
  opt.ratio = ratio;
  opt.block_size = block;
  opt.bank_size = bank;
  MatrixD x = w;
  sparsify::apply_mask(x, sparsify::sparsify(x, opt));
  return roughness::mask_roughness(x);
}

int run(int argc, char** argv) {
  // The figure's inputs are fixed, so any key is rejected rather than
  // silently ignored.
  Config::from_args(argc, argv).strict({});
  std::printf("=== Fig. 3: sparsification scheme vs roughness (ratio 0.33, "
              "8-neighbor) ===\n\n");

  // Part 1: the paper's exact example matrix.
  const MatrixD w = figure_matrix();
  const double block =
      sparsified_roughness(w, sparsify::Scheme::Block, 1.0 / 3.0, 2, 3);
  const double nonstruct = sparsified_roughness(
      w, sparsify::Scheme::NonStructured, 12.0 / 36.0, 2, 3);
  const double bank = sparsified_roughness(w, sparsify::Scheme::BankBalanced,
                                           1.0 / 3.0, 2, 3);
  std::printf("paper's 6x6 example:      paper    measured\n");
  std::printf("  (a) block               23.78    %8.2f\n", block);
  std::printf("  (b) non-structured      25.80    %8.2f\n", nonstruct);
  std::printf("  (c) bank-balanced       25.88    %8.2f\n", bank);

  int failures = 0;
  failures += !bench::shape_check(block < nonstruct && block < bank,
                                  "block sparsification has lowest roughness "
                                  "on the figure matrix");

  // Part 2: does the ordering generalize? Random matrices, several ratios.
  std::printf("\nrandom 24x24 matrices (mean over 20 draws):\n");
  std::printf("%8s %10s %14s %14s\n", "ratio", "block", "non-structured",
              "bank-balanced");
  Rng rng(123);
  for (double ratio : {0.11, 0.25, 0.33, 0.5}) {
    double sum_block = 0.0, sum_nonstruct = 0.0, sum_bank = 0.0;
    for (int trial = 0; trial < 20; ++trial) {
      MatrixD m(24, 24);
      for (auto& v : m) v = rng.uniform(0.0, 2.0 * M_PI);
      sum_block += sparsified_roughness(m, sparsify::Scheme::Block, ratio, 4, 4);
      sum_nonstruct += sparsified_roughness(m, sparsify::Scheme::NonStructured,
                                            ratio, 4, 4);
      sum_bank += sparsified_roughness(m, sparsify::Scheme::BankBalanced,
                                       ratio, 4, 4);
    }
    std::printf("%8.2f %10.2f %14.2f %14.2f\n", ratio, sum_block / 20.0,
                sum_nonstruct / 20.0, sum_bank / 20.0);
    failures += !bench::shape_check(
        sum_block < sum_nonstruct && sum_block < sum_bank,
        "block lowest at ratio " + std::to_string(ratio));
  }
  std::printf("\n%d shape-check failure(s)\n", failures);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main([&] { return run(argc, argv); });
}
