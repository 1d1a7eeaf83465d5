// Roughness modelling (paper §III-B, Eq. 3-4).
//
// The roughness of pixel p is the L2 norm of the differences between p and
// its 4- or 8-neighborhood, with one-pixel zero padding at the boundary
// (virtual zero neighbors, k stays fixed):
//   R(p) = sqrt(sum_q (w_q - w_p)^2) / (2k).
// The factor 2 is the Fig. 3 normalization: it reproduces the values printed
// in the paper's Fig. 3 (23.78 / 25.80 / 25.88) to within the figure's
// one-decimal display rounding, and a global scale changes none of the
// paper's percentage-reduction claims. The elementwise reading
// (1/k) sum_q |w_q - w_p| inverts Fig. 3's ordering block < non-structured
// < bank, which is why only the L2 reading remains. The mask roughness R(W)
// is the sum of all per-pixel values. Gradients use an eps-smoothed norm so
// training never hits the kink at identical neighbors.
#pragma once

#include <cstddef>

#include "tensor/matrix.hpp"

namespace odonn::roughness {

enum class Neighborhood { Four = 4, Eight = 8 };

struct RoughnessOptions {
  Neighborhood neighborhood = Neighborhood::Eight;
};

/// Per-pixel roughness map R(p) (same shape as the mask).
MatrixD roughness_map(const MatrixD& mask, const RoughnessOptions& options = {});

/// Whole-mask roughness R(W) = sum_p R(p) (Eq. 4).
double mask_roughness(const MatrixD& mask, const RoughnessOptions& options = {});

/// R(W) together with dR/dW for training-time regularization (Eq. 5).
/// Returns the value; writes the gradient (accumulated into `grad` scaled by
/// `scale`, so callers can fold the regularization factor p directly).
double roughness_with_grad(const MatrixD& mask, MatrixD& grad, double scale,
                           const RoughnessOptions& options = {});

}  // namespace odonn::roughness
