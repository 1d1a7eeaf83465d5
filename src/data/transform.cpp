#include "data/transform.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "tensor/resize.hpp"

namespace odonn::data {

MatrixD affine_warp(const MatrixD& src, double angle, double scale, double dx,
                    double dy) {
  ODONN_CHECK(!src.empty(), "affine_warp: empty image");
  ODONN_CHECK(scale > 0.0, "affine_warp: scale must be positive");
  const double rows = static_cast<double>(src.rows());
  const double cols = static_cast<double>(src.cols());
  const double cr = (rows - 1.0) / 2.0;
  const double cc = (cols - 1.0) / 2.0;
  const double ca = std::cos(angle);
  const double sa = std::sin(angle);
  MatrixD out(src.rows(), src.cols(), 0.0);
  // Inverse mapping: for each destination pixel find the source sample.
  for (std::size_t r = 0; r < src.rows(); ++r) {
    for (std::size_t c = 0; c < src.cols(); ++c) {
      const double yr = (static_cast<double>(r) - cr - dy) / scale;
      const double xc = (static_cast<double>(c) - cc - dx) / scale;
      const double sr = ca * yr + sa * xc + cr;
      const double sc = -sa * yr + ca * xc + cc;
      if (sr < 0.0 || sc < 0.0 || sr > rows - 1.0 || sc > cols - 1.0) continue;
      const std::size_t r0 = static_cast<std::size_t>(sr);
      const std::size_t c0 = static_cast<std::size_t>(sc);
      const std::size_t r1 = std::min(r0 + 1, src.rows() - 1);
      const std::size_t c1 = std::min(c0 + 1, src.cols() - 1);
      const double fr = sr - static_cast<double>(r0);
      const double fc = sc - static_cast<double>(c0);
      const double top = src(r0, c0) * (1.0 - fc) + src(r0, c1) * fc;
      const double bot = src(r1, c0) * (1.0 - fc) + src(r1, c1) * fc;
      out(r, c) = top * (1.0 - fr) + bot * fr;
    }
  }
  return out;
}

Dataset resize_dataset(const Dataset& dataset, std::size_t target_n) {
  ODONN_CHECK(!dataset.empty(), "resize_dataset: empty dataset");
  std::vector<MatrixD> images;
  std::vector<std::size_t> labels;
  images.reserve(dataset.size());
  labels.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    images.push_back(bilinear_resize(dataset.image(i), target_n, target_n));
    labels.push_back(dataset.label(i));
  }
  return Dataset(std::move(images), std::move(labels), dataset.num_classes());
}

}  // namespace odonn::data
