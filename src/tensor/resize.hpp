// Image resampling: the paper interpolates 28x28 dataset images up to the
// 200x200 optical grid (§IV-A1).
#pragma once

#include <cstddef>

#include "tensor/matrix.hpp"

namespace odonn {

/// Bilinear resampling with edge clamping (align_corners=true semantics:
/// corners map to corners, which matches torch's interpolate used by DONN
/// codebases for upscaling masks).
MatrixD bilinear_resize(const MatrixD& src, std::size_t out_rows,
                        std::size_t out_cols);

}  // namespace odonn
