// Minimal netpbm writer: binary PPM (P6) for color. Used to dump phase-mask
// galleries (paper Fig. 5) without any external image dependency.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace odonn::io {

using Rgb = std::array<std::uint8_t, 3>;

/// Writes an RGB image stored row-major (rows x cols pixels).
void write_ppm(const std::string& path, const std::vector<Rgb>& pixels,
               std::size_t rows, std::size_t cols);

}  // namespace odonn::io
