// Reproduces Fig. 4: intra-block variance of the sparsified 6x6 example
// (paper per-block grid and AvgVar = 4.835), plus a sweep showing how the
// intra-block regularizer's target behaves across block sizes.
#include <cstdio>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/run_main.hpp"
#include "roughness/intra_block.hpp"
#include "sparsify/block_sparsify.hpp"

using namespace odonn;

namespace {

int run(int argc, char** argv) {
  // The figure's inputs are fixed, so any key is rejected rather than
  // silently ignored.
  Config::from_args(argc, argv).strict({});
  std::printf("=== Fig. 4: intra-block smoothness (block 2, sparsity 0.33) "
              "===\n\n");
  MatrixD w = {{4.7, 5.7, 0.9, 0.4, 2.6, 8.6}, {4.5, 0.9, 3.8, 1.5, 5.4, 3.7},
               {0.1, 5.7, 9.0, 3.2, 2.1, 0.7}, {4.7, 9.7, 7.8, 2.5, 0.8, 3.9},
               {1.1, 0.7, 0.6, 0.1, 4.4, 1.8}, {5.6, 0.4, 1.8, 0.4, 9.8, 2.3}};
  // The figure's sparsified blocks (block-grid coordinates).
  const auto mask = sparsify::block_mask_from_selection(
      6, 6, 2, {{1, 0}, {1, 2}, {2, 1}});
  sparsify::apply_mask(w, mask);

  roughness::IntraBlockOptions opt;
  opt.block_size = 2;
  const MatrixD map = roughness::block_variance_map(w, opt);
  const double paper_grid[3][3] = {{4.4, 2.3, 6.9}, {0.0, 10.6, 0.0},
                                   {6.0, 0.0, 13.4}};
  std::printf("per-block variance (paper / measured):\n");
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      std::printf("  %5.1f/%-7.2f", paper_grid[r][c], map(r, c));
    }
    std::printf("\n");
  }
  const double avg = roughness::intra_block_variance_mean(w, opt);
  std::printf("\nAvgVar: paper 4.835, measured %.4f\n", avg);
  int failures = 0;
  failures += !bench::shape_check(std::abs(avg - 4.835) < 5e-3,
                                  "AvgVar matches the paper to display "
                                  "precision");

  // Sweep: the regularizer target across block sizes on a random mask.
  std::printf("\nR_intra across block sizes (random 24x24 phase mask):\n");
  Rng rng(5);
  MatrixD m(24, 24);
  for (auto& v : m) v = rng.uniform(0.0, 2.0 * M_PI);
  std::printf("%12s %14s %14s\n", "block size", "sum variance", "mean variance");
  for (std::size_t b : {2u, 3u, 4u, 6u, 8u, 12u}) {
    roughness::IntraBlockOptions sweep;
    sweep.block_size = b;
    std::printf("%12zu %14.3f %14.4f\n", b,
                roughness::intra_block_variance_sum(m, sweep),
                roughness::intra_block_variance_mean(m, sweep));
  }
  std::printf("\n%d shape-check failure(s)\n", failures);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main([&] { return run(argc, argv); });
}
