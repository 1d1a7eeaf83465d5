// System-level roughness reporting (paper §IV-B): the DONN roughness score
// R_overall is the average of R(W) over all phase masks in the system.
#pragma once

#include <vector>

#include "roughness/roughness.hpp"
#include "tensor/matrix.hpp"

namespace odonn::roughness {

struct RoughnessReport {
  std::vector<double> per_layer;  ///< R(W_i) for each diffractive layer
  double overall = 0.0;           ///< average over layers (R_overall)
};

/// Under the default (8-neighborhood) RoughnessOptions.
RoughnessReport report(const std::vector<MatrixD>& masks);

}  // namespace odonn::roughness
