// Classification losses on detector readouts.
//
// The paper trains with MSE on softmaxed detector sums (§III-A):
//   l = || Softmax(I) - t ||^2
// Raw detector sums can be numerically tiny (the field power is normalized),
// so the readout vector is first normalized; NormMode::TotalPower rescales
// sums to num_classes * s / (sum(|s|) + eps), which keeps softmax in a
// useful dynamic range without changing argmax — the absolute-value total
// also keeps the scale positive and bounded for signed differential-readout
// scores. Cross-entropy (and NormMode::None) is an extension that only the
// tests use; no bench, example or CLI path trains with it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace odonn::donn {

enum class LossType { SoftmaxMse, CrossEntropy };

enum class NormMode {
  None,        ///< use raw scores as logits
  TotalPower,  ///< logits = C * s / (sum(|s|) + eps); exact for non-negative
               ///< sums, safe for signed differential scores
};

struct LossOptions {
  LossType type = LossType::SoftmaxMse;
  NormMode norm = NormMode::TotalPower;
  double eps = 1e-12;
};

LossType parse_loss(const std::string& name);

struct LossResult {
  double loss = 0.0;
  std::vector<double> grad_sums;  ///< dL/d(raw detector sums)
  std::size_t predicted = 0;      ///< argmax of the raw sums
};

/// Computes loss, prediction and gradient wrt the *raw* detector sums for a
/// one-hot target `label`.
LossResult evaluate_loss(const std::vector<double>& sums, std::size_t label,
                         const LossOptions& options = {});

/// Softmax of a vector (stable; exposed for tests and the 2pi optimizer).
std::vector<double> softmax(const std::vector<double>& logits);

}  // namespace odonn::donn
