// Discrete phase-control levels.
//
// Physical phase modulators (SLMs, printed masks) offer a finite number of
// control levels; the paper's §I lists "discrete control levels in optical
// devices" among the sources of the modelling/deployment mismatch, and its
// Table I compares against the discrete-codesign line of work ([6], [8]).
// This module provides:
//  * uniform phase quantizers over [0, 2*pi) with k levels;
//  * straight-through-estimator (STE) quantization-aware training support
//    (quantize in the forward model, pass gradients through unchanged);
//  * a Gumbel-Softmax categorical relaxation over the level set — the
//    mechanism of the codesign paper [8], reusing the same machinery as the
//    2*pi smoother.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "tensor/matrix.hpp"

namespace odonn::donn {

struct QuantizeOptions {
  std::size_t levels = 16;   ///< number of control levels over [0, 2*pi)
};

/// Nearest-level quantization of a phase mask. Values are first reduced
/// mod 2*pi; level k maps to 2*pi*k/levels.
MatrixD quantize_phase(const MatrixD& phase, const QuantizeOptions& options = {});

/// Index of the nearest level for every pixel (0..levels-1).
Matrix<std::size_t> quantize_indices(const MatrixD& phase,
                                     const QuantizeOptions& options = {});

/// Mean absolute quantization error |q(phi) - wrap(phi)| (wrapped distance).
double quantization_error(const MatrixD& phase, const QuantizeOptions& options = {});

/// Straight-through estimator state for quantization-aware training: the
/// forward model sees quantized phases; optimizer steps apply to the latent
/// continuous phases (gradients pass through the quantizer unchanged).
class StePhaseQuantizer {
 public:
  explicit StePhaseQuantizer(const QuantizeOptions& options);

  const QuantizeOptions& options() const { return options_; }

  /// Quantized view of the latent phases (what the optics applies).
  std::vector<MatrixD> forward(const std::vector<MatrixD>& latent) const;

  /// STE backward is the identity — provided for symmetry/documentation.
  /// Gradients computed against the quantized phases apply to the latent
  /// parameters directly.
  const std::vector<MatrixD>& backward(const std::vector<MatrixD>& grads) const {
    return grads;
  }

 private:
  QuantizeOptions options_;
};

/// One Gumbel-Softmax relaxation step over the discrete level set (the
/// codesign mechanism of [8]): given per-pixel level logits (n x n x levels
/// flattened to levels matrices), samples a soft phase expectation and its
/// gradient chain factor. Exposed at this granularity so tests can verify
/// the categorical limit; full discrete training uses quantize-aware STE.
struct GumbelLevelSample {
  MatrixD soft_phase;            ///< sum_k p_k * phase_k per pixel
  std::vector<MatrixD> probs;    ///< per-level probabilities (softmax)
};
GumbelLevelSample gumbel_level_sample(const std::vector<MatrixD>& logits,
                                      double tau, Rng& rng,
                                      bool stochastic = true);

}  // namespace odonn::donn
