#include "support/gradcheck.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace odonn::donn {

MatrixD numerical_gradient(const std::function<double(const MatrixD&)>& f,
                           const MatrixD& at, double h) {
  ODONN_CHECK(h > 0.0, "numerical_gradient: h must be positive");
  MatrixD grad(at.rows(), at.cols());
  MatrixD probe = at;
  for (std::size_t i = 0; i < at.size(); ++i) {
    const double orig = probe[i];
    probe[i] = orig + h;
    const double hi = f(probe);
    probe[i] = orig - h;
    const double lo = f(probe);
    probe[i] = orig;
    grad[i] = (hi - lo) / (2.0 * h);
  }
  return grad;
}

double gradient_rel_error(const MatrixD& analytic, const MatrixD& numeric) {
  ODONN_CHECK_SHAPE(analytic.same_shape(numeric),
                    "gradient_rel_error: shape mismatch");
  double num = 0.0;
  double den = 1.0;
  for (std::size_t i = 0; i < analytic.size(); ++i) {
    num = std::max(num, std::abs(analytic[i] - numeric[i]));
    den = std::max({den, std::abs(analytic[i]), std::abs(numeric[i])});
  }
  return num / den;
}

}  // namespace odonn::donn
