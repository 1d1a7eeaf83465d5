// Adam over per-layer matrix parameters, the paper's optimizer (lr 0.2 for
// the baseline, 0.001 during sparsification, §IV-A2) with its fixed
// moments beta1 = 0.9, beta2 = 0.999, eps = 1e-8 and no weight decay.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/matrix.hpp"

namespace odonn::train {

class Adam {
 public:
  explicit Adam(double lr);

  /// In-place parameter update from gradients (shapes must match the first
  /// call; the moments are allocated lazily).
  void step(std::vector<MatrixD>& params, const std::vector<MatrixD>& grads);

 private:
  double lr_;
  std::size_t t_ = 0;
  std::vector<MatrixD> m_, v_;
};

}  // namespace odonn::train
