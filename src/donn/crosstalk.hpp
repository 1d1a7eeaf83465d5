// Interpixel-crosstalk deployment model.
//
// The paper motivates roughness optimization with the accuracy gap between
// numerical modelling and physical deployment caused by interpixel
// interaction (§II-B cites >= 30% degradation). The physical masks are not
// available here, so this module emulates deployment: each pixel's phase is
// smeared toward its neighborhood average, with smearing strength growing
// with the local phase roughness (sharp neighbor transitions produce a
// fast-varying incident field that the fabricated surface cannot realize).
// A model evaluated through apply_crosstalk() exhibits exactly the paper's
// narrative: rough masks lose much more accuracy at "deployment" than
// smooth ones — see bench/table1_methods and the integration tests.
#pragma once

#include "roughness/roughness.hpp"
#include "tensor/matrix.hpp"

namespace odonn::donn {

struct CrosstalkOptions {
  /// Maximum blend factor toward the neighborhood mean (0 = ideal device,
  /// 1 = full smearing at the roughest pixels).
  double strength = 0.5;
  roughness::RoughnessOptions roughness = {};
};

/// Returns the "as-fabricated" phase mask: per-pixel blend between the ideal
/// phase and the 3x3 neighborhood mean, weighted by the saturating response
/// alpha = strength * R(p) / (R(p) + 1) of the local roughness R(p) (a
/// roughness of 1 rad produces half-maximal smearing). Smooth masks are
/// nearly unchanged; rough masks are distorted.
MatrixD apply_crosstalk(const MatrixD& phase, const CrosstalkOptions& options = {});

}  // namespace odonn::donn
