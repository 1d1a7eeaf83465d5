// Image transforms: the affine warp behind the fabrication misalignment
// model (fab/perturbation) and the dataset->optical-grid preparation step.
#pragma once

#include "data/dataset.hpp"
#include "tensor/matrix.hpp"

namespace odonn::data {

/// Affine warp (rotate by `angle` rad around the center, scale, translate by
/// (dx, dy) pixels) with bilinear sampling and zero fill.
MatrixD affine_warp(const MatrixD& src, double angle, double scale, double dx,
                    double dy);

/// Upsamples every image to target_n x target_n (bilinear), the paper's
/// 28x28 -> 200x200 interpolation (§IV-A1).
Dataset resize_dataset(const Dataset& dataset, std::size_t target_n);

}  // namespace odonn::data
