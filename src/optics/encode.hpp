// Input encoding: maps a grayscale image onto the coherent source field at
// the input plane (§III-A: "the input image is first encoded with the
// coherent laser light"). Pixel values become real field amplitudes, and
// the field is scaled to unit total power.
#pragma once

#include "optics/field.hpp"
#include "tensor/matrix.hpp"

namespace odonn::optics {

/// Encodes an image already sampled on the optical grid (image shape must be
/// grid.n x grid.n; values expected in [0, 1]).
Field encode_image(const MatrixD& image, const GridSpec& grid);

}  // namespace odonn::optics
