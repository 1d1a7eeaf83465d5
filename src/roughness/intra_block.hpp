// Intra-block smoothness (paper §III-D1, Eq. 8, Fig. 4).
//
// The mask is partitioned into block_size x block_size tiles; the variance of
// each tile is computed and reduced. Fig. 4 reproduces with the *sample*
// variance (denominator m-1), sparsified tiles contributing zero, and the
// "AvgVar" display being the mean over tiles; the Eq. 8 regularizer
// R_intra(W) uses the sum over tiles.
#pragma once

#include <cstddef>

#include "tensor/matrix.hpp"

namespace odonn::roughness {

struct IntraBlockOptions {
  std::size_t block_size = 2;
};

/// Per-tile variance grid of shape ceil(rows/b) x ceil(cols/b). Partial
/// edge tiles (when b does not divide the mask) use their true element count.
MatrixD block_variance_map(const MatrixD& mask, const IntraBlockOptions& options);

/// R_intra(W): sum of per-tile variances (the Eq. 8 regularizer).
double intra_block_variance_sum(const MatrixD& mask,
                                const IntraBlockOptions& options);

/// Mean of per-tile variances (the "AvgVar" quantity printed in Fig. 4).
double intra_block_variance_mean(const MatrixD& mask,
                                 const IntraBlockOptions& options);

/// Variance sum together with d(sum)/dW accumulated into `grad` with factor
/// `scale` (so callers fold the q regularization factor directly).
double intra_block_variance_with_grad(const MatrixD& mask, MatrixD& grad,
                                      double scale,
                                      const IntraBlockOptions& options);

}  // namespace odonn::roughness
