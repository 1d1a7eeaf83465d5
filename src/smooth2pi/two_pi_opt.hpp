// 2*pi periodic phase optimization (paper §III-D2).
//
// Phase modulation is 2*pi-periodic, so adding 2*pi to any pixel leaves the
// DONN's inference bit-identical while changing the roughness score. The
// paper formulates the per-pixel add-0-or-2*pi choice as a combinatorial
// optimization solved with Gumbel-Softmax + gradient descent. optimize_2pi
// is that solver with the paper's one configuration: noisy Gumbel-sigmoid
// samples of the selection logits, a temperature annealed linearly from 2.0
// to 0.2, and Adam at step size 0.3 on the logits. Two references sit
// beside it:
//   * a greedy coordinate-descent (sweep until no single flip helps), and
//   * an exact DP for single-row masks (4-neighborhood), used by tests to
//     certify solution quality.
// All solvers never return a selection worse than the identity.
#pragma once

#include <cstdint>
#include <vector>

#include "roughness/roughness.hpp"
#include "tensor/matrix.hpp"

namespace odonn::smooth2pi {

struct TwoPiOptions {
  /// Gradient steps on the selection logits. Lifting a whole sparsified
  /// block is a cooperative move: single-flip local search (greedy_2pi)
  /// cannot cross it, and the soft relaxation needs the temperature
  /// anneal to play out before the hard decode stabilizes —
  /// 800 iterations fails on masks where 2500 recovers the exact optimum.
  /// One iteration at 64x64 takes about 0.3 ms on one core of a 4-vCPU
  /// x86-64 host: some 0.2 ms for the 8192 Gumbel draws and 4096 sigmoids
  /// of its noisy sample, 0.07 ms for the roughness gradient, and the
  /// Adam step.
  std::size_t iterations = 2500;
  std::uint64_t seed = 0x2718;
  roughness::RoughnessOptions roughness = {};
};

struct TwoPiResult {
  MatrixD optimized;         ///< W + 2*pi * selection
  MatrixU8 selection;        ///< 1 where 2*pi was added
  double roughness_before = 0.0;
  double roughness_after = 0.0;
  std::size_t added_count = 0;
};

/// Gumbel-Softmax solver (the paper's method).
TwoPiResult optimize_2pi(const MatrixD& mask, const TwoPiOptions& options = {});

/// Greedy sweeps: flip any pixel whose flip lowers roughness; repeat until a
/// full pass makes no flip (or max_passes). Deterministic.
TwoPiResult greedy_2pi(const MatrixD& mask,
                       const roughness::RoughnessOptions& roughness = {},
                       std::size_t max_passes = 64);

/// Exact minimum-roughness selection for a single-row mask under the
/// 4-neighborhood (second-order chain DP over (s_{i-1}, s_i) states).
std::vector<std::uint8_t> exact_1d_selection(
    const std::vector<double>& values,
    const roughness::RoughnessOptions& roughness = {});

/// Runs optimize_2pi on every layer of a DONN system, layer i with seed
/// options.seed + i * 0x9e3779b9, concurrently on the shared pool; the
/// per-layer results are identical to sequential calls.
std::vector<TwoPiResult> optimize_2pi_all(const std::vector<MatrixD>& masks,
                                          const TwoPiOptions& options = {});

}  // namespace odonn::smooth2pi
