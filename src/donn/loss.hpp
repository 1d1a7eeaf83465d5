// The classification loss on detector readouts.
//
// The paper trains with MSE on softmaxed detector sums (§III-A):
//   l = || Softmax(z) - t ||^2
// Raw detector sums can be numerically tiny (the field power is normalized),
// so the readout vector s is first normalized to the logits
//   z = C * s / (sum(|s|) + eps)
// (C classes), which keeps softmax in a useful dynamic range without
// changing argmax; the absolute-value total also keeps the scale positive
// and bounded for signed differential-readout scores.
#pragma once

#include <cstddef>
#include <vector>

namespace odonn::donn {

struct LossOptions {
  double eps = 1e-12;  ///< keeps the normalization finite for all-zero sums
};

struct LossResult {
  double loss = 0.0;
  std::vector<double> grad_sums;  ///< dL/d(raw detector sums)
  std::size_t predicted = 0;      ///< argmax of the raw sums
};

/// Computes loss, prediction and gradient wrt the *raw* detector sums for a
/// one-hot target `label`.
LossResult evaluate_loss(const std::vector<double>& sums, std::size_t label,
                         const LossOptions& options = {});

/// Softmax of a vector (stable; shifted by the maximum logit).
std::vector<double> softmax(const std::vector<double>& logits);

}  // namespace odonn::donn
