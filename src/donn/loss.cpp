#include "donn/loss.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace odonn::donn {

std::vector<double> softmax(const std::vector<double>& logits) {
  ODONN_CHECK(!logits.empty(), "softmax of empty vector");
  const double peak = *std::max_element(logits.begin(), logits.end());
  std::vector<double> out(logits.size());
  double total = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - peak);
    total += out[i];
  }
  for (auto& v : out) v /= total;
  return out;
}

LossResult evaluate_loss(const std::vector<double>& sums, std::size_t label,
                         const LossOptions& options) {
  const std::size_t n = sums.size();
  ODONN_CHECK(n >= 2, "loss: need at least two classes");
  ODONN_CHECK(label < n, "loss: label out of range");

  LossResult result;
  result.predicted = static_cast<std::size_t>(
      std::max_element(sums.begin(), sums.end()) - sums.begin());

  // Normalize raw sums into logits z; remember the chain factors. The
  // denominator is sum(|s|), not sum(s): standard readouts are non-negative
  // so |s| is an exact identity there, while differential readouts are
  // signed and can sum to ~0, which would divide by eps and flip logit
  // signs.
  std::vector<double> z(n);
  double total = 0.0;
  for (double s : sums) total += std::abs(s);
  const double scale = static_cast<double>(n) / (total + options.eps);
  for (std::size_t i = 0; i < n; ++i) z[i] = sums[i] * scale;

  const std::vector<double> p = softmax(z);

  // dL/dz: l = sum_c (p_c - t_c)^2; dl/dz_k = p_k (e_k - sum_c e_c p_c),
  // e_c = 2 (p_c - t_c).
  std::vector<double> gz(n, 0.0);
  double loss = 0.0;
  double dot = 0.0;
  std::vector<double> e(n);
  for (std::size_t c = 0; c < n; ++c) {
    const double t = (c == label) ? 1.0 : 0.0;
    const double d = p[c] - t;
    loss += d * d;
    e[c] = 2.0 * d;
    dot += e[c] * p[c];
  }
  for (std::size_t k = 0; k < n; ++k) gz[k] = p[k] * (e[k] - dot);
  result.loss = loss;

  // Chain through the normalization z_i = scale(s) * s_i. With
  // total = sum(|s|):
  //   dz_i/ds_j = scale * delta_ij - n * s_i * sgn(s_j) / (total+eps)^2
  //             = scale * delta_ij - sgn(s_j) * z_i / (total+eps).
  // sgn(0) := +1, matching d|x|/dx one-sided at 0; for non-negative sums
  // every sgn is +1 and the arithmetic is unchanged bit for bit.
  result.grad_sums.assign(n, 0.0);
  double gz_dot_z = 0.0;
  for (std::size_t i = 0; i < n; ++i) gz_dot_z += gz[i] * z[i];
  const double inv_total = 1.0 / (total + options.eps);
  for (std::size_t j = 0; j < n; ++j) {
    const double sgn = (sums[j] < 0.0) ? -1.0 : 1.0;
    result.grad_sums[j] = scale * gz[j] - sgn * (inv_total * gz_dot_z);
  }
  return result;
}

}  // namespace odonn::donn
