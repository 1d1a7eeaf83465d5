// Discrete phase-control levels.
//
// Physical phase modulators (SLMs, printed masks) offer a finite number of
// control levels; the paper's §I lists "discrete control levels in optical
// devices" among the sources of the modelling/deployment mismatch, and its
// Table I compares against the discrete-codesign line of work ([6], [8]).
// This module provides:
//  * uniform phase quantizers over [0, 2*pi) with k levels;
//  * straight-through-estimator (STE) quantization-aware training support
//    (quantize in the forward model, pass gradients through unchanged).
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/matrix.hpp"

namespace odonn::donn {

struct QuantizeOptions {
  std::size_t levels = 16;   ///< number of control levels over [0, 2*pi)
};

/// Nearest-level quantization of a phase mask. Values are first reduced
/// mod 2*pi; level k maps to 2*pi*k/levels.
MatrixD quantize_phase(const MatrixD& phase, const QuantizeOptions& options = {});

/// Mean absolute quantization error |q(phi) - wrap(phi)| (wrapped distance).
double quantization_error(const MatrixD& phase, const QuantizeOptions& options = {});

/// Straight-through estimator state for quantization-aware training: the
/// forward model sees quantized phases; optimizer steps apply to the latent
/// continuous phases. The STE backward is the identity: gradients computed
/// against the quantized phases apply to the latent phases unchanged.
class StePhaseQuantizer {
 public:
  explicit StePhaseQuantizer(const QuantizeOptions& options);

  const QuantizeOptions& options() const { return options_; }

  /// Quantized view of the latent phases (what the optics applies).
  std::vector<MatrixD> forward(const std::vector<MatrixD>& latent) const;

 private:
  QuantizeOptions options_;
};

}  // namespace odonn::donn
