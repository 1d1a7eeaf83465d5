#include "support/dft_ref.hpp"

#include <cmath>

#include "common/error.hpp"

namespace odonn::fft {

std::vector<Cplx> dft_reference(const std::vector<Cplx>& input, Direction dir) {
  const std::size_t n = input.size();
  ODONN_CHECK(n >= 1, "dft_reference requires non-empty input");
  const double sign = (dir == Direction::Forward) ? -1.0 : 1.0;
  std::vector<Cplx> out(n, Cplx(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    Cplx acc(0.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = sign * 2.0 * M_PI * static_cast<double>(j * k % n) /
                           static_cast<double>(n);
      acc += input[j] * Cplx(std::cos(angle), std::sin(angle));
    }
    out[k] = (dir == Direction::Inverse) ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

std::vector<Cplx> dft2d_reference(const std::vector<Cplx>& input,
                                  std::size_t rows, std::size_t cols,
                                  Direction dir) {
  ODONN_CHECK_SHAPE(input.size() == rows * cols,
                    "dft2d_reference: buffer does not match shape");
  std::vector<Cplx> tmp(rows * cols);
  // Rows first.
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<Cplx> row(input.begin() + static_cast<std::ptrdiff_t>(r * cols),
                          input.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols));
    auto out = dft_reference(row, dir);
    for (std::size_t c = 0; c < cols; ++c) tmp[r * cols + c] = out[c];
  }
  // Then columns.
  std::vector<Cplx> result(rows * cols);
  for (std::size_t c = 0; c < cols; ++c) {
    std::vector<Cplx> col(rows);
    for (std::size_t r = 0; r < rows; ++r) col[r] = tmp[r * cols + c];
    auto out = dft_reference(col, dir);
    for (std::size_t r = 0; r < rows; ++r) result[r * cols + c] = out[r];
  }
  return result;
}

}  // namespace odonn::fft
