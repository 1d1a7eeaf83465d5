#include "tensor/resize.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace odonn {

MatrixD bilinear_resize(const MatrixD& src, std::size_t out_rows,
                        std::size_t out_cols) {
  ODONN_CHECK(!src.empty(), "bilinear_resize: empty source");
  ODONN_CHECK(out_rows >= 1 && out_cols >= 1,
              "bilinear_resize: empty destination");
  MatrixD out(out_rows, out_cols);
  const double row_scale =
      out_rows == 1 ? 0.0
                    : static_cast<double>(src.rows() - 1) /
                          static_cast<double>(out_rows - 1);
  const double col_scale =
      out_cols == 1 ? 0.0
                    : static_cast<double>(src.cols() - 1) /
                          static_cast<double>(out_cols - 1);
  for (std::size_t r = 0; r < out_rows; ++r) {
    const double src_r = static_cast<double>(r) * row_scale;
    const std::size_t r0 = static_cast<std::size_t>(src_r);
    const std::size_t r1 = std::min(r0 + 1, src.rows() - 1);
    const double fr = src_r - static_cast<double>(r0);
    for (std::size_t c = 0; c < out_cols; ++c) {
      const double src_c = static_cast<double>(c) * col_scale;
      const std::size_t c0 = static_cast<std::size_t>(src_c);
      const std::size_t c1 = std::min(c0 + 1, src.cols() - 1);
      const double fc = src_c - static_cast<double>(c0);
      const double top = src(r0, c0) * (1.0 - fc) + src(r0, c1) * fc;
      const double bot = src(r1, c0) * (1.0 - fc) + src(r1, c1) * fc;
      out(r, c) = top * (1.0 - fr) + bot * fr;
    }
  }
  return out;
}

}  // namespace odonn
